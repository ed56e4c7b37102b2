// The run-validity guard must keep unverified, degraded and
// checkpoint-less calls out of the timings, and let a clean call through.

#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "bt/bt.hpp"
#include "guard.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::Evidence;
using perfbench::Expected;
using perfbench::reject_reason;

npb::RunResult clean_result(const Expected& want) {
  npb::RunResult r;
  r.name = "CG";
  r.cls = want.cls;
  r.mode = want.mode;
  r.threads = want.threads;
  r.procs = want.procs;
  r.verified = true;
  r.reference_checked = true;
  return r;
}

// Writes a checkpoint of one span at `step` to `path`.
void write_ckpt(const std::string& path, const npb::ckpt::Meta& meta,
                long step) {
  const double x = 1.0;
  const std::vector<unsigned char> bytes =
      npb::ckpt::encode(meta, step, {{&x, sizeof x}});
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

TEST(Guard, AcceptsCleanShardedRun) {
  const Expected want{npb::ProblemClass::W, npb::Mode::Msg, 1, 2, false};
  EXPECT_EQ(reject_reason(clean_result(want), want, {}), "");
}

TEST(Guard, RejectsUnverifiedResult) {
  const Expected want{};
  npb::RunResult r = clean_result(want);
  r.verified = false;
  EXPECT_NE(reject_reason(r, want, {}), "");
  r = clean_result(want);
  r.reference_checked = false;
  EXPECT_NE(reject_reason(r, want, {}), "");
}

TEST(Guard, RejectsOtherConfiguration) {
  const Expected want{npb::ProblemClass::W, npb::Mode::Java, 2, 0, false};
  npb::RunResult r = clean_result(want);
  r.cls = npb::ProblemClass::S;
  EXPECT_NE(reject_reason(r, want, {}), "");
  r = clean_result(want);
  r.mode = npb::Mode::Native;
  EXPECT_NE(reject_reason(r, want, {}), "");
}

TEST(Guard, RejectsDegradedResult) {
  const Expected team{npb::ProblemClass::S, npb::Mode::Java, 2, 0, false};
  Evidence ev;
  ev.recovery.degraded = 1;
  EXPECT_NE(reject_reason(clean_result(team), team, ev), "");
  ev = {};
  ev.recovery.retries = 1;
  EXPECT_NE(reject_reason(clean_result(team), team, ev), "");

  // A hybrid run that lost a shard and finished on fewer processes.
  const Expected sharded{npb::ProblemClass::W, npb::Mode::Msg, 1, 2, false};
  npb::RunResult r = clean_result(sharded);
  r.procs = 1;
  EXPECT_NE(reject_reason(r, sharded, {}), "");
  ev = {};
  ev.recovery.lost_shards = 1;
  EXPECT_NE(reject_reason(clean_result(sharded), sharded, ev), "");
}

TEST(Guard, ChecksFinalCheckpoint) {
  const Expected want{npb::ProblemClass::W, npb::Mode::Java, 2, 0, true};
  const npb::ckpt::Meta meta{"CG", 'W', static_cast<std::uint8_t>(npb::Mode::Java),
                             0, 2};
  Evidence ev;
  ev.ckpt_meta = meta;
  ev.last_step = perfbench::last_step("CG", npb::ProblemClass::W);
  const npb::RunResult r = clean_result(want);

  ev.ckpt_path =
      (fs::path(::testing::TempDir()) / "perfbench_guard_test.ckpt").string();
  fs::remove(ev.ckpt_path);
  EXPECT_NE(reject_reason(r, want, ev), "") << "missing checkpoint";

  write_ckpt(ev.ckpt_path, meta, ev.last_step - 1);
  EXPECT_NE(reject_reason(r, want, ev), "") << "checkpoint short of the last step";

  npb::ckpt::Meta other = meta;
  other.benchmark = "MG";
  write_ckpt(ev.ckpt_path, other, ev.last_step);
  EXPECT_NE(reject_reason(r, want, ev), "") << "checkpoint of another kernel";

  write_ckpt(ev.ckpt_path, meta, ev.last_step);
  EXPECT_EQ(reject_reason(r, want, ev), "");
  fs::remove(ev.ckpt_path);
}

TEST(Guard, LastSteps) {
  EXPECT_EQ(perfbench::last_step("EP", npb::ProblemClass::S), 1);
  EXPECT_EQ(perfbench::last_step("BT", npb::ProblemClass::S),
            npb::bt_params(npb::ProblemClass::S).iterations - 1);
  EXPECT_EQ(perfbench::last_step("XX", npb::ProblemClass::S), -1);
}

}  // namespace
