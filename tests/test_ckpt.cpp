// Durable checkpoint/restart: the on-disk format's hostile-input battery
// (every truncation, every header byte flip, payload bit rot, wrong-identity
// metadata, stale versions, trailing garbage — all rejected with a named
// CkptError, never a crash or a silently wrong resume), the Session
// flush/consume round trip with its corrupt-flush-keeps-last-good guarantee,
// and the service-level kill-and-resubmit resume path.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "npb/registry.hpp"
#include "svc/jobspec.hpp"
#include "svc/scheduler.hpp"

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
    if (!expect.empty())
      EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
          << context << ": unexpected message: " << e.what();
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

TEST(CkptSession, FlushThenConsumeResumeRoundTrips) {
  const Sample s;
  const std::string dir = fresh_dir("roundtrip");
  ckpt::CkptOptions save_opts;
  save_opts.dir = dir;
  ckpt::Session saver(sample_meta(), save_opts);
  ASSERT_TRUE(saver.flush(s.step, s.views(), false));

  ckpt::CkptOptions load_opts;
  load_opts.dir = dir;
  load_opts.resume = true;
  ckpt::Session loader(sample_meta(), load_opts);
  ASSERT_TRUE(loader.resume_pending());
  std::vector<double> oa, ob;
  const auto views = s.mut_views(oa, ob);
  EXPECT_EQ(loader.consume_resume(views), s.step);
  EXPECT_EQ(oa, s.a);
  EXPECT_EQ(ob, s.b);
  EXPECT_FALSE(loader.resume_pending());
}

TEST(CkptSession, CorruptFlushKeepsThePreviousGoodCheckpoint) {
  Sample s;
  const std::string dir = fresh_dir("corrupt");
  ckpt::CkptOptions opts;
  opts.dir = dir;
  ckpt::Session saver(sample_meta(), opts);
  ASSERT_TRUE(saver.flush(3, s.views(), false));

  // A later flush whose payload rots between CRC stamping and commit must
  // report failure and leave step 3 on disk untouched.
  s.a[0] = 99.0;
  EXPECT_FALSE(saver.flush(4, s.views(), true));

  ckpt::CkptOptions load_opts;
  load_opts.dir = dir;
  load_opts.resume = true;
  ckpt::Session loader(sample_meta(), load_opts);
  std::vector<double> oa, ob;
  const auto views = s.mut_views(oa, ob);
  EXPECT_EQ(loader.consume_resume(views), 3);
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
  // flush streams the header, the live spans and the payload CRC straight
  // to the temp file; what it commits must be encode()'s image exactly.
  const Sample s;
  const std::string dir = fresh_dir("bytes");
  ckpt::CkptOptions opts;
  opts.dir = dir;
  ckpt::Session saver(sample_meta(), opts);
  ASSERT_TRUE(saver.flush(s.step, s.views(), false));
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
  const std::vector<ckpt::SpanView> views = {
      {nullptr, 0},
      {s.b.data(), s.b.size() * sizeof(double)},
      {s.a.data(), s.a.size() * sizeof(double)}};
  EXPECT_FALSE(saver.flush(s.step, views, true));
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
  EXPECT_THROW(loader.consume_resume(views), ckpt::CkptError);
}

TEST(CkptSession, ResumePathOverridesTheDirDerivedLoadPath) {
  const Sample s;
  const std::string dir = fresh_dir("override");
  ckpt::CkptOptions save_opts;
  save_opts.dir = dir;
  ckpt::Session saver(sample_meta(), save_opts);
  ASSERT_TRUE(saver.flush(s.step, s.views(), false));

  ckpt::CkptOptions load_opts;
  load_opts.resume = true;
  load_opts.resume_path = dir + "/CG-S.ckpt";
  ckpt::Session loader(sample_meta(), load_opts);
  EXPECT_EQ(loader.load_path(), dir + "/CG-S.ckpt");
  std::vector<double> oa, ob;
  const auto views = s.mut_views(oa, ob);
  EXPECT_EQ(loader.consume_resume(views), s.step);
}

TEST(CkptInterrupt, FlagSetsAndClears) {
  ckpt::clear_interrupt();
  EXPECT_FALSE(ckpt::interrupt_requested());
  ckpt::request_interrupt();
  EXPECT_TRUE(ckpt::interrupt_requested());
  ckpt::clear_interrupt();
  EXPECT_FALSE(ckpt::interrupt_requested());
}

// ---- service layer: killed job resubmitted with resume ---------------------

TEST(SvcCkpt, KilledJobResumesOnResubmitAndVerifies) {
  const std::string dir = ::testing::TempDir() + "npb_svc_ckpt";
  std::remove((dir + "/CG-S.ckpt").c_str());

  svc::JobSpec spec;
  spec.id = "cg-ckpt";
  spec.benchmark = "CG";
  spec.cfg.cls = ProblemClass::S;
  spec.cfg.threads = 2;
  spec.cfg.ckpt.dir = dir;
  spec.cfg.ckpt.halt_after_step = 7;  // the deterministic stand-in for a kill

  svc::SchedulerOptions so;
  so.pool_widths = {2};
  {
    svc::JobScheduler sched(so);
    sched.submit_wait(spec);
    const auto outs = sched.drain();
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_FALSE(outs[0].completed);
    EXPECT_NE(outs[0].error.find("interrupted after step 7"),
              std::string::npos)
        << outs[0].error;
  }
  spec.cfg.ckpt.halt_after_step = ckpt::kNoStep;
  spec.cfg.ckpt.resume = true;
  {
    svc::JobScheduler sched(so);
    sched.submit_wait(spec);
    const auto outs = sched.drain();
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(outs[0].completed) << outs[0].error;
    EXPECT_TRUE(outs[0].verified) << outs[0].result.verify_detail;
  }
}

TEST(SvcCkpt, JobSpecParsesCkptKeysAndRejectsBadCombos) {
  std::string err;
  const auto ok = svc::parse_job_stream(
      R"({"benchmark":"CG","threads":2,"ckpt_dir":"ck","ckpt_every":3,"resume":true})"
      "\n",
      &err);
  ASSERT_TRUE(ok.has_value()) << err;
  ASSERT_EQ(ok->size(), 1u);
  EXPECT_EQ((*ok)[0].cfg.ckpt.dir, "ck");
  EXPECT_EQ((*ok)[0].cfg.ckpt.every, 3);
  EXPECT_TRUE((*ok)[0].cfg.ckpt.resume);

  // resume/ckpt_every without ckpt_dir, empty dir, bad cadence, irregular
  // workloads: all strict parse errors, never a silently ignored key.
  const char* bad[] = {
      R"({"benchmark":"CG","resume":true})",
      R"({"benchmark":"CG","ckpt_every":2})",
      R"({"benchmark":"CG","ckpt_dir":""})",
      R"({"benchmark":"CG","ckpt_dir":"ck","ckpt_every":0})",
      R"({"benchmark":"SORT","ckpt_dir":"ck"})",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(svc::parse_job_stream(std::string(line) + "\n", &err)
                     .has_value())
        << line << " was accepted";
  }
}

}  // namespace
}  // namespace npb
