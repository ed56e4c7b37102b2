// Durable checkpoint/restart: the on-disk format's hostile-input battery
// (every truncation, every header byte flip, payload bit rot, wrong-identity
// metadata, stale versions, trailing garbage — all rejected with a named
// CkptError, never a crash or a silently wrong resume), the Session
// commit/load round trip with its corrupt-commit-keeps-last-good guarantee,
// the StepRunner's durable step path (resume once, no shadow without
// rollback, every flush checked, bad writes rewritten and never degraded).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "fault/retry.hpp"
#include "npb/registry.hpp"
#include "obs/obs.hpp"

namespace npb {
namespace {

ckpt::Meta sample_meta() {
  ckpt::Meta m;
  m.benchmark = "CG";
  m.cls = 'S';
  m.mode = 1;
  m.runtime = 0;
  m.threads = 2;
  return m;
}

struct Sample {
  std::vector<double> a{1.5, -2.25, 3.0, 0.0};
  std::vector<double> b{42.0, -0.5};
  long step = 7;

  std::vector<ckpt::SpanView> views() const {
    return {{a.data(), a.size() * sizeof(double)},
            {b.data(), b.size() * sizeof(double)}};
  }
  /// The same spans as a StepRunner registers them: what commit() reads.
  std::vector<ckpt::MutSpanView> live() {
    return {{a.data(), a.size() * sizeof(double)},
            {b.data(), b.size() * sizeof(double)}};
  }
  std::vector<ckpt::MutSpanView> mut_views(std::vector<double>& oa,
                                           std::vector<double>& ob) const {
    oa.assign(a.size(), 0.0);
    ob.assign(b.size(), 0.0);
    return {{oa.data(), oa.size() * sizeof(double)},
            {ob.data(), ob.size() * sizeof(double)}};
  }
  std::vector<unsigned char> encode() const {
    return ckpt::encode(sample_meta(), step, views());
  }
};

/// Asserts decode rejects `bytes` with a CkptError whose message contains
/// `expect` (empty = any message), in both validate-only and restore mode.
void expect_rejected(const std::vector<unsigned char>& bytes,
                     const ckpt::Meta& meta, const std::string& expect,
                     const char* context) {
  try {
    ckpt::decode(bytes, meta, nullptr);
    FAIL() << context << ": decode accepted a corrupt image";
  } catch (const ckpt::CkptError& e) {
    if (!expect.empty()) {
      EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
          << context << ": unexpected message: " << e.what();
    }
  } catch (const std::exception& e) {
    FAIL() << context << ": wrong exception type: " << e.what();
  }
}

TEST(CkptFormat, RoundTripRestoresStepAndEverySpanByte) {
  const Sample s;
  const auto bytes = s.encode();
  std::vector<double> oa, ob;
  const auto views = s.mut_views(oa, ob);
  const long step = ckpt::decode(bytes, sample_meta(), &views);
  EXPECT_EQ(step, s.step);
  EXPECT_EQ(oa, s.a);
  EXPECT_EQ(ob, s.b);
}

TEST(CkptFormat, EveryTruncationIsRejected) {
  const Sample s;
  const auto bytes = s.encode();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<unsigned char> cut(bytes.begin(),
                                         bytes.begin() + static_cast<long>(len));
    expect_rejected(cut, sample_meta(), "",
                    ("truncated to " + std::to_string(len)).c_str());
  }
}

TEST(CkptFormat, EveryHeaderByteFlipIsRejected) {
  const Sample s;
  const auto bytes = s.encode();
  std::size_t payload = 0;
  for (const auto& v : s.views()) payload += v.bytes;
  // Everything before the payload: magic, version, name, identity fields,
  // span table, header CRC.  Any single-bit damage must be fatal.
  const std::size_t header_bytes =
      bytes.size() - payload - sizeof(std::uint32_t);
  for (std::size_t at = 0; at < header_bytes; ++at) {
    auto bad = bytes;
    bad[at] ^= 0x40;
    expect_rejected(bad, sample_meta(), "",
                    ("header byte " + std::to_string(at)).c_str());
  }
}

TEST(CkptFormat, PayloadBitFlipIsRejectedAsPayloadCrcMismatch) {
  const Sample s;
  auto bytes = s.encode();
  // Flip one payload bit (last 4 bytes are the payload CRC).
  bytes[bytes.size() - sizeof(std::uint32_t) - 8] ^= 0x01;
  expect_rejected(bytes, sample_meta(), "payload CRC mismatch", "payload flip");
}

TEST(CkptFormat, StaleFormatVersionIsNamedNotCrashed) {
  const Sample s;
  auto bytes = s.encode();
  // The version field sits right after the 8-byte magic and is validated
  // before the header CRC, so a future-format file gets the version message.
  bytes[8] = 99;
  expect_rejected(bytes, sample_meta(), "version 99 unsupported", "version");
}

TEST(CkptFormat, WrongIdentityMetadataIsNamed) {
  const Sample s;
  const auto bytes = s.encode();
  auto meta = sample_meta();
  meta.benchmark = "EP";
  expect_rejected(bytes, meta, "for benchmark 'CG'", "benchmark");
  meta = sample_meta();
  meta.cls = 'W';
  expect_rejected(bytes, meta, "class", "class");
  meta = sample_meta();
  meta.mode = 3;
  expect_rejected(bytes, meta, "mode", "mode");
  meta = sample_meta();
  meta.runtime = 1;
  expect_rejected(bytes, meta, "runtime", "runtime");
  meta = sample_meta();
  meta.threads = 3;
  expect_rejected(bytes, meta, "width", "threads");
}

TEST(CkptFormat, TrailingBytesAreRejected) {
  const Sample s;
  auto bytes = s.encode();
  bytes.push_back(0);
  expect_rejected(bytes, sample_meta(), "trailing bytes", "trailing");
}

TEST(CkptFormat, SpanLayoutMismatchIsRejectedOnRestore) {
  const Sample s;
  const auto bytes = s.encode();
  std::vector<double> oa, ob;
  // Wrong span count.
  std::vector<ckpt::MutSpanView> one = s.mut_views(oa, ob);
  one.pop_back();
  EXPECT_THROW(ckpt::decode(bytes, sample_meta(), &one), ckpt::CkptError);
  // Right count, wrong size.
  std::vector<ckpt::MutSpanView> wrong = s.mut_views(oa, ob);
  wrong[1].bytes -= sizeof(double);
  EXPECT_THROW(ckpt::decode(bytes, sample_meta(), &wrong), ckpt::CkptError);
}

TEST(CkptFormat, EmptyAndGarbageFilesAreRejected) {
  expect_rejected({}, sample_meta(), "truncated", "empty");
  std::vector<unsigned char> garbage(64, 0xAB);
  expect_rejected(garbage, sample_meta(), "magic mismatch", "garbage");
}

// ---- Session: durable flush / resume ---------------------------------------

std::string fresh_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "npb_ckpt_" + tag;
  // Leftovers from a previous run of the same test must not satisfy the
  // resume; start from an empty benchmark file.
  std::remove((dir + "/CG-S.ckpt").c_str());
  return dir;
}

TEST(CkptSession, CommitThenLoadRoundTrips) {
  Sample s;
  const std::string dir = fresh_dir("roundtrip");
  ckpt::CkptOptions save_opts;
  save_opts.dir = dir;
  ckpt::Session saver(sample_meta(), save_opts);
  ASSERT_TRUE(saver.commit(s.step, s.live(), false));

  ckpt::CkptOptions load_opts;
  load_opts.dir = dir;
  load_opts.resume = true;
  ckpt::Session loader(sample_meta(), load_opts);
  EXPECT_EQ(loader.load_path(), saver.save_path());
  std::vector<double> oa, ob;
  const auto views = s.mut_views(oa, ob);
  EXPECT_EQ(loader.load(views), s.step);
  EXPECT_EQ(oa, s.a);
  EXPECT_EQ(ob, s.b);
}

TEST(CkptSession, CorruptFlushKeepsThePreviousGoodCheckpoint) {
  Sample s;
  const std::string dir = fresh_dir("corrupt");
  ckpt::CkptOptions opts;
  opts.dir = dir;
  ckpt::Session saver(sample_meta(), opts);
  ASSERT_TRUE(saver.commit(3, s.live(), false));

  // A later commit whose payload rots between CRC stamping and rename must
  // report failure and leave step 3 on disk untouched.
  s.a[0] = 99.0;
  EXPECT_FALSE(saver.commit(4, s.live(), true));

  ckpt::CkptOptions load_opts;
  load_opts.dir = dir;
  load_opts.resume = true;
  ckpt::Session loader(sample_meta(), load_opts);
  std::vector<double> oa, ob;
  const auto views = s.mut_views(oa, ob);
  EXPECT_EQ(loader.load(views), 3);
  EXPECT_EQ(oa[0], 1.5);  // the pre-corruption value
}

std::vector<unsigned char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(CkptSession, CommittedFileEqualsEncodeByteForByte) {
  // commit streams the header, the live spans and the payload CRC straight
  // to the temp file; what it commits must be encode()'s image exactly.
  Sample s;
  const std::string dir = fresh_dir("bytes");
  ckpt::CkptOptions opts;
  opts.dir = dir;
  ckpt::Session saver(sample_meta(), opts);
  ASSERT_TRUE(saver.commit(s.step, s.live(), false));
  EXPECT_EQ(file_bytes(saver.save_path()), s.encode());
}

TEST(CkptSession, CorruptFlushFlipsTheFileNeverTheLiveSpans) {
  Sample s;
  const Sample pristine;
  const std::string dir = fresh_dir("corrupt_live");
  ckpt::CkptOptions opts;
  opts.dir = dir;
  ckpt::Session saver(sample_meta(), opts);
  // An empty span first and the payload midpoint (byte 24 of 48) inside the
  // last span: locating the flipped byte has to walk the span table.
  const std::vector<ckpt::MutSpanView> views = {
      {nullptr, 0},
      {s.b.data(), s.b.size() * sizeof(double)},
      {s.a.data(), s.a.size() * sizeof(double)}};
  EXPECT_FALSE(saver.commit(s.step, views, true));
  EXPECT_EQ(s.a, pristine.a);
  EXPECT_EQ(s.b, pristine.b);
  EXPECT_FALSE(file_exists(saver.save_path()));
  EXPECT_FALSE(file_exists(saver.save_path() + ".tmp"));
}

TEST(CkptSession, MissingResumeFileIsACkptError) {
  ckpt::CkptOptions opts;
  opts.resume = true;
  opts.resume_path = ::testing::TempDir() + "npb_ckpt_nonexistent.ckpt";
  ckpt::Session loader(sample_meta(), opts);
  std::vector<double> oa, ob;
  const Sample s;
  const auto views = s.mut_views(oa, ob);
  EXPECT_THROW(loader.load(views), ckpt::CkptError);
}

TEST(CkptSession, ResumePathOverridesTheDirDerivedLoadPath) {
  Sample s;
  const std::string dir = fresh_dir("override");
  ckpt::CkptOptions save_opts;
  save_opts.dir = dir;
  ckpt::Session saver(sample_meta(), save_opts);
  ASSERT_TRUE(saver.commit(s.step, s.live(), false));

  ckpt::CkptOptions load_opts;
  load_opts.resume = true;
  load_opts.resume_path = dir + "/CG-S.ckpt";
  ckpt::Session loader(sample_meta(), load_opts);
  EXPECT_EQ(loader.load_path(), dir + "/CG-S.ckpt");
  std::vector<double> oa, ob;
  const auto views = s.mut_views(oa, ob);
  EXPECT_EQ(loader.load(views), s.step);
}

TEST(CkptInterrupt, FlagSetsAndClears) {
  ckpt::clear_interrupt();
  EXPECT_FALSE(ckpt::interrupt_requested());
  ckpt::request_interrupt();
  EXPECT_TRUE(ckpt::interrupt_requested());
  ckpt::clear_interrupt();
  EXPECT_FALSE(ckpt::interrupt_requested());
}

// ---- StepRunner: the durable step path -------------------------------------

TEST(CkptStepRunner, ResumeLoadsOnceAndSkipsTheStepsItCovers) {
  const std::string dir = fresh_dir("runner_resume");
  TeamOptions topts;
  WorkerTeam team(2, topts);
  std::vector<double> x(8, 0.0);
  {
    ckpt::CkptOptions opts;
    opts.dir = dir;
    opts.every = 2;
    const ckpt::ScopedCkptSession scope(sample_meta(), opts);
    fault::StepRunner steps(&team, topts);
    steps.add(x.data(), x.size() * sizeof(double));
    for (long it = 1; it <= 3; ++it)
      steps.step(it, [&](WorkerTeam&, int) { x[0] += 1.0; });
  }
  // Step 2 is on disk; step 3 was off cadence.
  std::vector<double> y(8, 0.0);
  ckpt::CkptOptions opts;
  opts.dir = dir;
  opts.resume = true;
  const ckpt::ScopedCkptSession scope(sample_meta(), opts);
  fault::StepRunner steps(&team, topts);
  steps.add(y.data(), y.size() * sizeof(double));
  std::vector<long> ran;
  for (long it = 1; it <= 4; ++it)
    steps.step(it, [&](WorkerTeam&, int) {
      ran.push_back(it);
      y[0] += 1.0;
    });
  EXPECT_EQ(ran, (std::vector<long>{3, 4}));
  EXPECT_EQ(y[0], 4.0) << "the checkpoint is loaded once, before step 3";
}

RunConfig cg_durable(const char* tag) {
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.threads = 2;
  cfg.ckpt.dir = fresh_dir(tag);
  cfg.fault.backoff_ms = 0;
  return cfg;
}

long step_on_disk(const RunConfig& cfg) {
  return ckpt::decode(file_bytes(cfg.ckpt.dir + "/CG-S.ckpt"),
                      ckpt_meta("CG", cfg), nullptr);
}

TEST(CkptStepRunner, DurableOnlyRunsAcquireNoShadow) {
  // The shadow exists for rolling a failed body back; a durable session
  // alone never rolls back, so it must not copy the carried state.
  for (const char* name : {"CG", "MG", "IS"}) {
    RunFn fn = find_benchmark(name);
    ASSERT_NE(fn, nullptr);
    RunConfig cfg;
    cfg.cls = ProblemClass::S;
    cfg.threads = 2;
    const RunResult plain = run_instrumented(fn, cfg);
    cfg.ckpt.dir = fresh_dir("noshadow");
    const RunResult durable = run_instrumented(fn, cfg);
    EXPECT_TRUE(plain.verified) << name;
    EXPECT_TRUE(durable.verified) << name;
#ifndef NPB_OBS_DISABLED
    EXPECT_GE(durable.obs.ckpt_saved_count, 1u) << name;
    EXPECT_EQ(durable.obs.mem_bytes_allocated, plain.obs.mem_bytes_allocated)
        << name;
    EXPECT_EQ(durable.obs.mem_arena_hit_bytes, plain.obs.mem_arena_hit_bytes)
        << name;
    EXPECT_EQ(durable.obs.mem_arena_hit_count, plain.obs.mem_arena_hit_count)
        << name;
#endif
  }
}

TEST(CkptStepRunner, FinalFlushIsCheckedLikeEveryOther) {
  // Step 5 is off the every-3 cadence; the halt knob stops the run there,
  // and the stop's flush crosses the ckpt site like a cadenced one: the
  // corrupt write is caught, rewritten, and step 5 lands on disk.
  RunConfig cfg = cg_durable("final_flush");
  cfg.ckpt.every = 3;
  cfg.ckpt.halt_after_step = 5;
  cfg.fault.specs.push_back(*fault::parse_fault_spec("ckpt:corrupt:5:0:0"));
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  long stopped = ckpt::kNoStep;
  try {
    (void)find_benchmark("CG")(cfg);
  } catch (const ckpt::Interrupted& e) {
    stopped = e.step();
  }
  EXPECT_EQ(stopped, 5);
#ifndef NPB_OBS_DISABLED
  EXPECT_EQ(reg.snapshot().ckpt_crc_fail_count, 1u);
#endif
  EXPECT_EQ(step_on_disk(cfg), 5);
}

TEST(CkptStepRunner, PersistentlyBadWritesExhaustWithoutShrinkingTheTeam) {
  // Every write of step 3 rots: one write plus --max-retries rewrites, then
  // RecoveryExhausted.  The team is never shrunk for a bad write, and step
  // 2 stays the last good checkpoint.
  RunConfig cfg = cg_durable("persist_flush");
  cfg.fault.specs.push_back(
      *fault::parse_fault_spec("ckpt:corrupt:3:0:0:persist"));
  cfg.fault.max_retries = 2;
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  EXPECT_THROW((void)find_benchmark("CG")(cfg), fault::RecoveryExhausted);
#ifndef NPB_OBS_DISABLED
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.degraded_width_count, 0u);
  EXPECT_EQ(snap.ckpt_crc_fail_count, 3u);
  EXPECT_EQ(snap.fault_retries_count, 3u);
#endif
  EXPECT_EQ(step_on_disk(cfg), 2);
}

}  // namespace
}  // namespace npb
