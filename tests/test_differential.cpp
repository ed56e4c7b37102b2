// Differential thread-vs-serial matrix: every registered benchmark runs
// serially (threads=0) and then at 1, 2, 3, and 7 worker threads, and the
// threaded checksums must match the serial run via verify_checksums.  This
// pins the property the whole paper reproduction rests on: the master-workers
// translation computes the same answer as the serial code, at any team size
// (including sizes that do not divide the grid, hence 3 and 7).
//
// Matrix sizing: the full suite runs at class S.  Class W is covered for the
// benchmarks whose W runtime is sub-second (FT, IS, CG, MG); the pseudo-apps
// and EP at W cost seconds each per cell (~15s serial for the four of them),
// which is fine once per benchmark plainly but prohibitive under TSan's
// 10-20x slowdown, so they run one representative threaded W cell and that
// cell is compiled out under sanitizers.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "common/verify.hpp"
#include "fault/fault.hpp"
#include "msg/msg_suite.hpp"
#include "npb/registry.hpp"
#include "tolerance.hpp"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define NPB_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define NPB_UNDER_SANITIZER 1
#endif
#endif
#ifndef NPB_UNDER_SANITIZER
#define NPB_UNDER_SANITIZER 0
#endif

namespace npb {
namespace {

struct Cell {
  const char* name;
  ProblemClass cls;
  int threads;
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return std::string(info.param.name) + "_" + to_string(info.param.cls) + "_t" +
         std::to_string(info.param.threads);
}

bool fast_at_w(std::string_view name) {
  return name == "FT" || name == "IS" || name == "CG" || name == "MG";
}

std::vector<Cell> build_matrix() {
  constexpr int kThreadCounts[] = {1, 2, 3, 7};
  std::vector<Cell> cells;
  for (const auto& b : suite()) {
    for (int th : kThreadCounts) cells.push_back({b.name, ProblemClass::S, th});
    if (fast_at_w(b.name)) {
      for (int th : kThreadCounts) cells.push_back({b.name, ProblemClass::W, th});
    } else if (!NPB_UNDER_SANITIZER) {
      cells.push_back({b.name, ProblemClass::W, 3});
    }
  }
  return cells;
}

class Differential : public ::testing::TestWithParam<Cell> {
 protected:
  // Serial baselines are shared across all cells of a (benchmark, class):
  // one serial run anchors four threaded comparisons.
  static const RunResult& serial_baseline(const char* name, ProblemClass cls) {
    static std::map<std::pair<std::string, ProblemClass>, RunResult> cache;
    const auto key = std::make_pair(std::string(name), cls);
    auto it = cache.find(key);
    if (it == cache.end()) {
      RunConfig cfg;
      cfg.cls = cls;
      cfg.mode = Mode::Native;
      cfg.threads = 0;
      RunFn fn = find_benchmark(name);
      it = cache.emplace(key, fn(cfg)).first;
    }
    return it->second;
  }
};

TEST_P(Differential, ThreadedChecksumsMatchSerial) {
  const Cell cell = GetParam();
  const RunResult& serial = serial_baseline(cell.name, cell.cls);
  ASSERT_TRUE(serial.verified) << serial.verify_detail;
  ASSERT_FALSE(serial.checksums.empty());

  RunConfig cfg;
  cfg.cls = cell.cls;
  cfg.mode = Mode::Native;
  cfg.threads = cell.threads;
  RunFn fn = find_benchmark(cell.name);
  ASSERT_NE(fn, nullptr);
  const RunResult threaded = fn(cfg);

  EXPECT_TRUE(threaded.verified) << threaded.verify_detail;
  const VerifyResult diff =
      verify_checksums(threaded.checksums, serial.checksums);
  EXPECT_TRUE(diff.passed)
      << cell.name << "." << to_string(cell.cls) << " threads=" << cell.threads
      << " diverged from serial:\n"
      << diff.detail;
}

INSTANTIATE_TEST_SUITE_P(Matrix, Differential,
                         ::testing::ValuesIn(build_matrix()), cell_name);

// ---- fused-vs-forked bit-identity ------------------------------------------
// The SPMD-region refactor promises more than near-equality: for a fixed
// schedule and thread count, entering one fused region per time step must
// produce the *bit-identical* checksums of the one-dispatch-per-loop path,
// because partitioning and reduction combine order are shared between the
// two drivers.  So this matrix compares --fused=on against --fused=off with
// EXPECT_EQ on the raw doubles (no verify_checksums tolerance), across every
// benchmark, every Schedule kind, and team sizes 1/2/3/7.  Under sanitizers
// the axes are trimmed (EP at class S costs seconds per run under TSan).

struct FusedCell {
  const char* name;
  Schedule sched;
  int threads;
};

std::string fused_cell_name(const ::testing::TestParamInfo<FusedCell>& info) {
  return std::string(info.param.name) + "_" + to_string(info.param.sched.kind) +
         "_t" + std::to_string(info.param.threads);
}

std::vector<FusedCell> build_fused_matrix() {
  const Schedule kSchedules[] = {Schedule::static_(), Schedule::dynamic(),
                                 Schedule::guided()};
  constexpr int kThreadCounts[] = {1, 2, 3, 7};
  std::vector<FusedCell> cells;
  for (const auto& b : suite())
    for (const Schedule& s : kSchedules)
      for (int th : kThreadCounts) {
        if (NPB_UNDER_SANITIZER &&
            (th == 1 || s.kind == Schedule::Kind::Guided))
          continue;
        cells.push_back({b.name, s, th});
      }
  return cells;
}

class FusedDifferential : public ::testing::TestWithParam<FusedCell> {};

TEST_P(FusedDifferential, FusedChecksumsBitIdenticalToForked) {
  const FusedCell cell = GetParam();
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = Mode::Native;
  cfg.threads = cell.threads;
  cfg.schedule = cell.sched;
  RunFn fn = find_benchmark(cell.name);
  ASSERT_NE(fn, nullptr);

  cfg.fused = true;
  const RunResult fused = fn(cfg);
  cfg.fused = false;
  const RunResult forked = fn(cfg);

  EXPECT_TRUE(fused.verified) << fused.verify_detail;
  EXPECT_TRUE(forked.verified) << forked.verify_detail;
  ASSERT_EQ(fused.checksums.size(), forked.checksums.size());
  for (std::size_t i = 0; i < fused.checksums.size(); ++i)
    EXPECT_EQ(fused.checksums[i], forked.checksums[i])
        << cell.name << " sched=" << to_string(cell.sched)
        << " threads=" << cell.threads << ": checksum " << i
        << " is not bit-identical fused vs forked";
}

INSTANTIATE_TEST_SUITE_P(FusedMatrix, FusedDifferential,
                         ::testing::ValuesIn(build_fused_matrix()),
                         fused_cell_name);

// ---- vec-vs-native tolerance matrix ----------------------------------------
// The vec kernels reassociate exactly one thing — the lane-striped
// accumulators of sum()/dot()-shaped reductions — so each benchmark's vec
// checksums sit a *predictable* distance from native, and that distance is a
// per-benchmark contract this matrix pins (benchmark x schedule x team size,
// vec vs native at the same configuration):
//
//  * EP/IS/FT/LU dispatch vec to the native instantiation (no lane kernels
//    apply) — Tier::Exact, any drift is a dispatch bug.
//  * MG's vec stencil preserves per-element operation order; only FMA
//    contraction decisions differ, and the l2norm checksum accumulates
//    serially — a tight ULP budget.
//  * BT/SP reassociate the 5-term block dots of the line solvers, amplified
//    across the time-step recursion (measured worst: BT ~1.2M ulps,
//    schedule- and width-independent) — a loose ULP budget, ~4e-9 relative,
//    that still sits under half the NPB acceptance epsilon.
//  * CG reassociates the full-length dot products inside an iterative solve
//    whose iteration count is fixed — drift compounds past useful ULP
//    bounds, so it gets the NPB acceptance epsilon (the tier NPB itself
//    judges CG by).
//
// NPB verification must also hold in vec mode for every cell.

testing::Tolerance vec_tolerance(std::string_view name) {
  using testing::Tolerance;
  if (name == "CG") return Tolerance::npb_eps();
  if (name == "MG") return Tolerance::ulps(4096);
  if (name == "BT" || name == "SP") return Tolerance::ulps(1ull << 24);
  return Tolerance::exact();
}

class VecDifferential : public ::testing::TestWithParam<FusedCell> {
 protected:
  // Native baselines shared across nothing (each cell's baseline is its own
  // configuration), but cached so a re-run within one process is free.
  static const RunResult& native_baseline(const FusedCell& cell) {
    static std::map<std::string, RunResult> cache;
    const std::string key = std::string(cell.name) + "/" +
                            to_string(cell.sched.kind) + "/" +
                            std::to_string(cell.threads);
    auto it = cache.find(key);
    if (it == cache.end()) {
      RunConfig cfg;
      cfg.cls = ProblemClass::S;
      cfg.mode = Mode::Native;
      cfg.threads = cell.threads;
      cfg.schedule = cell.sched;
      it = cache.emplace(key, find_benchmark(cell.name)(cfg)).first;
    }
    return it->second;
  }
};

TEST_P(VecDifferential, VecChecksumsWithinTierOfNative) {
  const FusedCell cell = GetParam();
  const RunResult& native = native_baseline(cell);
  ASSERT_TRUE(native.verified) << native.verify_detail;

  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = Mode::Vec;
  cfg.threads = cell.threads;
  cfg.schedule = cell.sched;
  RunFn fn = find_benchmark(cell.name);
  ASSERT_NE(fn, nullptr);
  const RunResult vec = fn(cfg);

  EXPECT_TRUE(vec.verified)
      << cell.name << " failed NPB verification in vec mode:\n"
      << vec.verify_detail;
  const testing::TierResult diff = testing::compare_checksums(
      vec.checksums, native.checksums, vec_tolerance(cell.name));
  EXPECT_TRUE(diff.passed)
      << cell.name << " sched=" << to_string(cell.sched)
      << " threads=" << cell.threads << " vec drifted out of tier: "
      << diff.detail;
}

INSTANTIATE_TEST_SUITE_P(VecMatrix, VecDifferential,
                         ::testing::ValuesIn(build_fused_matrix()),
                         fused_cell_name);

// ---- fault-retry bit-identity ----------------------------------------------
// The recovery promise of the fault subsystem: a step that faults, restores
// its checkpoint, and retries at the *same* width must finish with checksums
// bit-identical to a fault-free run — the retry re-runs exactly the same
// partition and reduction order, and the checkpoint guarantees it starts
// from exactly the same state.  Three transient fault kinds per benchmark:
// a thrown region-entry fault (exercises checkpoint restore), a barrier
// delay (exercises perturbed timing with no failure), and a poisoned
// reduction partial (exercises the healthy() NaN gate; it only actually
// fires where reductions run inside steps — CG — and is vacuously clean
// elsewhere).  Under sanitizers only the threads=3 column runs.

struct FaultCell {
  const char* name;
  const char* label;
  const char* spec;
  int threads;
  Mode mode = Mode::Native;
};

std::string fault_cell_name(const ::testing::TestParamInfo<FaultCell>& info) {
  return std::string(info.param.name) + "_" + info.param.label + "_t" +
         std::to_string(info.param.threads);
}

std::vector<FaultCell> build_fault_matrix() {
  struct FaultKind {
    const char* label;
    const char* spec;
  };
  const FaultKind kFaults[] = {
      {"throw", "region:throw:*:1:0"},
      {"delay", "barrier:delay(5):*:0:0"},
      {"nanpoison", "reduce:nan-poison:*:0:0"},
  };
  constexpr int kThreadCounts[] = {2, 3, 7};
  std::vector<FaultCell> cells;
  for (const auto& b : suite()) {
    for (const FaultKind& f : kFaults)
      for (int th : kThreadCounts) {
        if (NPB_UNDER_SANITIZER && th != 3) continue;
        cells.push_back({b.name, f.label, f.spec, th});
      }
    // The vec column: a thrown fault at the reduce site while the kernels
    // run lane-parallel.  The retry re-runs the same partition at the same
    // width with the same lane kernels, so the recovery promise is
    // unchanged: bit-identical to the fault-free vec run (it fires inside
    // steps only where reductions do — CG — and is vacuously clean
    // elsewhere).
    cells.push_back({b.name, "vecreduce", "reduce:throw:*:1:0", 3, Mode::Vec});
  }
  return cells;
}

class FaultRetryDifferential : public ::testing::TestWithParam<FaultCell> {
 protected:
  // Fault-free baselines shared across the fault kinds of a
  // (benchmark, threads, mode) triple.
  static const RunResult& clean_baseline(const char* name, int threads,
                                         Mode mode) {
    static std::map<std::string, RunResult> cache;
    const std::string key = std::string(name) + "/" + std::to_string(threads) +
                            "/" + to_string(mode);
    auto it = cache.find(key);
    if (it == cache.end()) {
      RunConfig cfg;
      cfg.cls = ProblemClass::S;
      cfg.mode = mode;
      cfg.threads = threads;
      it = cache.emplace(key, find_benchmark(name)(cfg)).first;
    }
    return it->second;
  }
};

TEST_P(FaultRetryDifferential, RetriedStepBitIdenticalToFaultFree) {
  const FaultCell cell = GetParam();
  const RunResult& clean =
      clean_baseline(cell.name, cell.threads, cell.mode);
  ASSERT_TRUE(clean.verified) << clean.verify_detail;

  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = cell.mode;
  cfg.threads = cell.threads;
  const auto spec = fault::parse_fault_spec(cell.spec);
  ASSERT_TRUE(spec.has_value()) << cell.spec;
  cfg.fault.specs.push_back(*spec);
  cfg.fault.backoff_ms = 0;
  RunFn fn = find_benchmark(cell.name);
  ASSERT_NE(fn, nullptr);
  const RunResult faulted = fn(cfg);

  EXPECT_TRUE(faulted.verified) << cell.name << " with " << cell.spec << ": "
                                << faulted.verify_detail;
  ASSERT_EQ(faulted.checksums.size(), clean.checksums.size());
  for (std::size_t i = 0; i < faulted.checksums.size(); ++i)
    EXPECT_EQ(faulted.checksums[i], clean.checksums[i])
        << cell.name << " threads=" << cell.threads << " spec=" << cell.spec
        << ": checksum " << i << " diverged after fault recovery";

  if (cell.mode == Mode::Vec) {
    // The recovered vec run must also still sit inside the benchmark's vec
    // tolerance tier of the native answer — the retry may not launder a
    // numerics change through the fault path.
    const RunResult& native =
        clean_baseline(cell.name, cell.threads, Mode::Native);
    const testing::TierResult diff = testing::compare_checksums(
        faulted.checksums, native.checksums, vec_tolerance(cell.name));
    EXPECT_TRUE(diff.passed)
        << cell.name << " recovered vec run out of tier vs native: "
        << diff.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(FaultMatrix, FaultRetryDifferential,
                         ::testing::ValuesIn(build_fault_matrix()),
                         fault_cell_name);

// ---- graceful degradation ---------------------------------------------------
// A :persist fault pinned to a rank models a deterministically bad CPU: the
// retry budget at full width is burned, the runner shrinks the team by the
// blamed rank and re-runs the step there.  Results after a width change are
// valid but not bit-identical (partition-dependent summation order), so the
// degraded checksums are held to the weakest tier of tests/tolerance.hpp —
// the NPB acceptance epsilon — against a clean full-width run, plus evidence
// that injection really fired more than once before the width dropped.

class DegradedRecovery : public ::testing::TestWithParam<const char*> {};

TEST_P(DegradedRecovery, PersistentRankFaultShrinksTeamAndStillVerifies) {
  RunConfig clean_cfg;
  clean_cfg.cls = ProblemClass::S;
  clean_cfg.mode = Mode::Native;
  clean_cfg.threads = 3;
  RunFn fn = find_benchmark(GetParam());
  ASSERT_NE(fn, nullptr);
  const RunResult clean = fn(clean_cfg);
  ASSERT_TRUE(clean.verified) << clean.verify_detail;

  RunConfig cfg = clean_cfg;
  const auto spec = fault::parse_fault_spec("region:throw:*:2:0:persist");
  ASSERT_TRUE(spec.has_value());
  cfg.fault.specs.push_back(*spec);
  cfg.fault.max_retries = 1;
  cfg.fault.backoff_ms = 0;
  const RunResult r = fn(cfg);
  EXPECT_TRUE(r.verified) << GetParam() << " failed to recover by degrading: "
                          << r.verify_detail;
  const testing::TierResult diff = testing::compare_checksums(
      r.checksums, clean.checksums, testing::Tolerance::npb_eps());
  EXPECT_TRUE(diff.passed) << GetParam()
                           << " degraded run out of npb-epsilon tier: "
                           << diff.detail;
  // Initial attempt + at least one full-width retry fired before the shrink
  // to width 2 removed the faulty rank (the session's counter survives the
  // run; the next install resets it).
  EXPECT_GE(fault::Injector::instance().injected(), 2u);
}

std::vector<const char*> degraded_benchmarks() {
  std::vector<const char*> names;
  for (const auto& b : suite()) {
    if (NPB_UNDER_SANITIZER && std::string_view(b.name) != "CG" &&
        std::string_view(b.name) != "IS")
      continue;
    names.push_back(b.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, DegradedRecovery,
                         ::testing::ValuesIn(degraded_benchmarks()),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ---- hybrid msg-vs-shared-memory matrix -------------------------------------
// The message-passing drivers (EP, CG, FT, IS) re-derive each benchmark as
// P rank shards x T team threads over the forked shared-memory transport.
// Every cell of procs 1/2/4 x threads 1/2 is held against the *serial
// shared-memory* run of the same benchmark:
//
//  * IS is integer counting — histogram merges are exact in any order, so
//    every cell must be bit-identical (Tier::Exact).
//  * EP/CG/FT reassociate cross-rank reductions (rank-ordered partial sums
//    instead of one serial fold), so cells are held to the NPB acceptance
//    epsilon — the tier NPB itself judges results by — and must still pass
//    their own reference verification.
//
// Transport invariance (shm vs inproc, bit-identical) is pinned separately
// in test_msg_apps; this matrix runs the shm transport, the deep path.

struct MsgCell {
  const char* name;
  int procs;
  int threads;
};

std::string msg_cell_name(const ::testing::TestParamInfo<MsgCell>& info) {
  return std::string(info.param.name) + "_p" + std::to_string(info.param.procs) +
         "_t" + std::to_string(info.param.threads);
}

std::vector<MsgCell> build_msg_matrix() {
  constexpr const char* kMsgBenchmarks[] = {"EP", "CG", "FT", "IS"};
  constexpr int kProcCounts[] = {1, 2, 4};
  constexpr int kThreadCounts[] = {1, 2};
  std::vector<MsgCell> cells;
  for (const char* name : kMsgBenchmarks)
    for (int procs : kProcCounts)
      for (int th : kThreadCounts) cells.push_back({name, procs, th});
  return cells;
}

class MsgDifferential : public ::testing::TestWithParam<MsgCell> {
 protected:
  static const RunResult& shared_memory_baseline(const char* name) {
    static std::map<std::string, RunResult> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
      RunConfig cfg;
      cfg.cls = ProblemClass::S;
      cfg.mode = Mode::Native;
      cfg.threads = 0;
      it = cache.emplace(name, find_benchmark(name)(cfg)).first;
    }
    return it->second;
  }
};

TEST_P(MsgDifferential, HybridShardChecksumsInTierOfSharedMemory) {
  const MsgCell cell = GetParam();
  const RunResult& base = shared_memory_baseline(cell.name);
  ASSERT_TRUE(base.verified) << base.verify_detail;

  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = Mode::Msg;
  cfg.threads = cell.threads;
  cfg.msg.procs = cell.procs;
  cfg.msg.transport = msg::TransportKind::Shm;
  RunFn fn = msg::find_msg_benchmark(cell.name);
  ASSERT_NE(fn, nullptr);
  const RunResult hybrid = fn(cfg);

  EXPECT_TRUE(hybrid.verified)
      << cell.name << " procs=" << cell.procs << " threads=" << cell.threads
      << " failed NPB verification in msg mode:\n"
      << hybrid.verify_detail;
  EXPECT_EQ(hybrid.procs, cell.procs);
  const testing::Tolerance tol = std::string_view(cell.name) == "IS"
                                     ? testing::Tolerance::exact()
                                     : testing::Tolerance::npb_eps();
  const testing::TierResult diff =
      testing::compare_checksums(hybrid.checksums, base.checksums, tol);
  EXPECT_TRUE(diff.passed)
      << cell.name << " procs=" << cell.procs << " threads=" << cell.threads
      << " drifted out of tier vs shared memory: " << diff.detail;
}

INSTANTIATE_TEST_SUITE_P(MsgMatrix, MsgDifferential,
                         ::testing::ValuesIn(build_msg_matrix()),
                         msg_cell_name);

// ---- durable checkpoint/restart bit-identity --------------------------------
// The crash-recovery promise: a run killed at step k and resumed from its
// durable checkpoint must finish with checksums *bit-identical* to an
// uninterrupted run of the same configuration — the resumed half re-runs the
// same partition and reduction order from exactly the restored state.  The
// kill is modeled deterministically by the session's halt-after-step knob,
// which takes the same final flush a SIGINT would and throws
// ckpt::Interrupted at the same step boundary.  Halt steps sit mid-run for
// the iterative benchmarks (CG 15 iterations, IS 10, MG 4) and after EP's
// single step (resume then goes straight to verification from restored
// state).  A second battery pins the detection promise of the ckpt:corrupt
// fault: a flush whose payload rots after CRC stamping is caught by readback
// verification (ckpt/crc_fail), retried, and the run still verifies —
// corruption may cost a retry, never a silently wrong checkpoint.

struct CkptCell {
  const char* name;
  int threads;
  long halt;
};

std::string ckpt_cell_name(const ::testing::TestParamInfo<CkptCell>& info) {
  return std::string(info.param.name) + "_t" +
         std::to_string(info.param.threads);
}

std::vector<CkptCell> build_ckpt_matrix() {
  struct Bench {
    const char* name;
    long halt;
  };
  constexpr Bench kBenches[] = {{"EP", 1}, {"CG", 7}, {"MG", 2}, {"IS", 5}};
  constexpr int kThreadCounts[] = {1, 2, 3};
  std::vector<CkptCell> cells;
  for (const Bench& b : kBenches)
    for (int th : kThreadCounts) {
      if (NPB_UNDER_SANITIZER && th != 2) continue;
      cells.push_back({b.name, th, b.halt});
    }
  return cells;
}

class CkptDifferential : public ::testing::TestWithParam<CkptCell> {};

TEST_P(CkptDifferential, KilledAndResumedRunBitIdenticalToUninterrupted) {
  const CkptCell cell = GetParam();
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = Mode::Native;
  cfg.threads = cell.threads;
  RunFn fn = find_benchmark(cell.name);
  ASSERT_NE(fn, nullptr);
  const RunResult clean = fn(cfg);
  ASSERT_TRUE(clean.verified) << clean.verify_detail;

  const std::string dir = ::testing::TempDir() + "npb_diff_ckpt_" +
                          cell.name + "_t" + std::to_string(cell.threads);
  RunConfig killed = cfg;
  killed.ckpt.dir = dir;
  killed.ckpt.halt_after_step = cell.halt;
  bool interrupted = false;
  try {
    (void)fn(killed);
  } catch (const ckpt::Interrupted& e) {
    interrupted = true;
    EXPECT_EQ(e.step(), cell.halt);
  }
  ASSERT_TRUE(interrupted)
      << cell.name << " ran to completion instead of halting at step "
      << cell.halt;

  RunConfig resume = cfg;
  resume.ckpt.dir = dir;
  resume.ckpt.resume = true;
  const RunResult resumed = run_instrumented(fn, resume);
  EXPECT_TRUE(resumed.verified)
      << cell.name << " failed verification after resume:\n"
      << resumed.verify_detail;
#ifndef NPB_OBS_DISABLED
  EXPECT_GE(resumed.obs.ckpt_restored_count, 1u)
      << cell.name << " did not restore from the checkpoint";
  EXPECT_EQ(resumed.obs.ckpt_restored_step_sum, static_cast<double>(cell.halt));
#endif
  ASSERT_EQ(resumed.checksums.size(), clean.checksums.size());
  for (std::size_t i = 0; i < resumed.checksums.size(); ++i)
    EXPECT_EQ(resumed.checksums[i], clean.checksums[i])
        << cell.name << " threads=" << cell.threads << ": checksum " << i
        << " diverged after kill-at-" << cell.halt << "-and-resume";
}

TEST_P(CkptDifferential, CorruptFlushIsDetectedRetriedAndStillVerifies) {
  const CkptCell cell = GetParam();
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = Mode::Native;
  cfg.threads = cell.threads;
  cfg.ckpt.dir = ::testing::TempDir() + "npb_diff_ckpt_corrupt_" + cell.name +
                 "_t" + std::to_string(cell.threads);
  const auto spec = fault::parse_fault_spec("ckpt:corrupt:*:0:0");
  ASSERT_TRUE(spec.has_value());
  cfg.fault.specs.push_back(*spec);
  cfg.fault.backoff_ms = 0;
  RunFn fn = find_benchmark(cell.name);
  ASSERT_NE(fn, nullptr);
  const RunResult r = run_instrumented(fn, cfg);
  EXPECT_TRUE(r.verified)
      << cell.name << " failed to recover from a corrupt flush:\n"
      << r.verify_detail;
  // The corruption must be *detected* (readback CRC, blamed in obs), the
  // step retried, and later flushes must have committed clean.
#ifndef NPB_OBS_DISABLED
  EXPECT_GE(r.obs.ckpt_crc_fail_count, 1u)
      << cell.name << ": injected ckpt corruption was never detected";
  EXPECT_GE(r.obs.ckpt_saved_count, 1u);
  EXPECT_GE(r.obs.fault_injected_count, 1u);
#endif
}

INSTANTIATE_TEST_SUITE_P(CkptMatrix, CkptDifferential,
                         ::testing::ValuesIn(build_ckpt_matrix()),
                         ckpt_cell_name);

}  // namespace
}  // namespace npb
