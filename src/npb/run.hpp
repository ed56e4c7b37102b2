#pragma once

#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "ckpt/options.hpp"
#include "common/classes.hpp"
#include "common/mode.hpp"
#include "fault/options.hpp"
#include "mem/options.hpp"
#include "msg/options.hpp"
#include "obs/obs.hpp"
#include "par/barrier.hpp"
#include "par/schedule.hpp"
#include "par/team.hpp"

namespace npb {

/// Priming spins per worker that --warmup requests: the
/// paper's CG thread warm-up fix (see TeamOptions::warmup_spins).
inline constexpr long kWarmupSpins = 1000000;

/// One benchmark execution request.  `threads == 0` runs the plain serial
/// code path (no team, no synchronization — the paper's "Serial" column);
/// `threads >= 1` runs the master-workers translation with that many worker
/// threads (the "1" column measures pure threading overhead).
struct RunConfig {
  ProblemClass cls = ProblemClass::S;
  Mode mode = Mode::Native;
  /// Parallel personality of the team threads: Spmd (default) keeps the
  /// chunk-queue SPMD collectives bit-identical to every prior release;
  /// Steal arms the work-stealing task runtime for benchmarks that have a
  /// task formulation (the irregular suite).  Regular NPBs ignore Steal —
  /// they have no task spawns — so both values are accepted everywhere.
  Runtime runtime = Runtime::Spmd;
  int threads = 0;
  BarrierKind barrier = BarrierKind::CondVar;
  long warmup_spins = 0;
  /// Loop schedule for the benchmarks with imbalance-sensitive loops (CG's
  /// sparse mat-vec rows, IS's histogram phases, MG's per-plane operators,
  /// EP's blocks).  The structured pseudo-apps keep their static slabs.
  Schedule schedule{};
  /// Allocation policy for the benchmark's arrays: alignment, serial vs
  /// team first-touch page placement, huge-page hint.  Placement never
  /// changes the values written, so checksums are identical under every
  /// setting — only where the pages land differs.
  mem::MemOptions mem{};
  /// Fused SPMD regions (--fused=on, the default): each time step runs as
  /// one team dispatch with in-region barriers; off restores one fork/join
  /// per parallel loop.  Checksums are bit-identical either way for a fixed
  /// schedule and thread count — the knob exists for the section 5.2
  /// dispatch-overhead ablation.
  bool fused = true;
  /// Fault session for this run: injection specs (--fault-spec, repeatable),
  /// barrier watchdog timeout (--watchdog-ms), and the step-retry policy
  /// (--max-retries, degradation).  Default-constructed = disarmed; the
  /// benchmark hot paths then pay one relaxed load per hook.
  fault::FaultOptions fault{};
  /// Durable checkpoint/restart policy: --ckpt-dir enables flushes of the
  /// step-carried state every --ckpt-every steps, --resume restores the
  /// newest checkpoint and continues from the step after it.  Inactive by
  /// default; requires a threaded (threads >= 1) shared-memory run — npbrun
  /// rejects serial and msg-mode combinations up front.
  ckpt::CkptOptions ckpt{};
  /// Hybrid sharding for --mode=msg runs: rank-shard count P and which
  /// Transport carries the ranks (threads vs forked processes over shm
  /// rings).  `threads` above is then the per-shard team width T, so one
  /// config describes a P-process x T-thread run.  Ignored by the
  /// shared-memory modes.
  msg::MsgOptions msg{};

  bool operator==(const RunConfig&) const = default;
};

/// The TeamOptions a run's team is built with: every driver wrapper builds
/// its team from this.
inline TeamOptions team_options(const RunConfig& cfg) {
  return TeamOptions{cfg.barrier, cfg.warmup_spins, cfg.schedule,
                     cfg.fused,   cfg.fault.watchdog_ms, cfg.mode,
                     cfg.runtime};
}

/// The durable-checkpoint identity of one run: everything a --resume must
/// match before restoring bytes into live arrays.  Each driver wrapper
/// passes its registry name and the run's config (see ScopedCkptSession).
inline ckpt::Meta ckpt_meta(const char* name, const RunConfig& cfg) {
  return ckpt::Meta{name, to_string(cfg.cls)[0],
                    static_cast<std::uint8_t>(cfg.mode),
                    static_cast<std::uint8_t>(cfg.runtime), cfg.threads};
}

struct RunResult {
  std::string name;
  ProblemClass cls = ProblemClass::S;
  Mode mode = Mode::Native;
  int threads = 0;
  double seconds = 0.0;
  double mops = 0.0;
  bool verified = false;
  /// True when a frozen reference existed for (name, cls) and was compared;
  /// false means verification relied on intrinsic invariants only.
  bool reference_checked = false;
  std::string verify_detail;
  /// Benchmark-specific checksums, in the order tools/gen_reference freezes.
  std::vector<double> checksums;
  /// Region timers and team counters captured for this run (empty unless the
  /// run went through run_instrumented, or under NPB_OBS_DISABLED).
  obs::Snapshot obs;
  /// Shard count of a hybrid --mode=msg run (0 for the shared-memory modes;
  /// reports print and emit it only when positive).
  int procs = 0;
  /// Per-process snapshots of a hybrid shm run, shipped back over the
  /// result pipes and merged here so one report row carries every worker.
  std::vector<obs::ShardSnapshot> shards;
};

}  // namespace npb
