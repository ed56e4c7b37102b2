#pragma once

// Region-scoped observability for the thread runtime — the instrumentation
// the paper's section 5 analysis presumes.  NPB's reference codes carry a
// `timer_*` facility (timer_start/timer_stop per named section); this layer
// extends that idea with *thread-level attribution*: every region keeps one
// cache-line-padded accumulator per team rank (plus one for the master /
// serial path), so a hot loop never writes a line another rank reads, and
// the per-rank breakdown the paper reasons about — where the 10-20% thread
// overhead goes, why LU's in-loop synchronization hurts — can be read back
// directly.
//
// The reserved counters the runtime layers record themselves (team
// dispatch and barriers, mem, fault, steal, ckpt, msg) are the rows of
// kCounters below.  A row names the counter's path, its unit and its
// Snapshot fields; interning, snapshot extraction, the report emitters and
// the shard wire format all loop over that table, so adding a counter takes
// a value/count field pair in Snapshot and one row.  Every counter keeps its
// per-rank slots like a user region does.
//
// Compile with -DNPB_OBS_DISABLED to replace the whole API with inline
// no-ops (distinct inline namespace, so mixed translation units stay
// ODR-clean); the data structs below stay defined either way so RunResult's
// snapshot field keeps one layout.

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/wtime.hpp"

namespace npb::obs {

/// Stable index into the registry; negative means "not recorded".
using RegionId = int;

/// Aggregated view of one region.  Slot 0 is the master (rank -1, also the
/// plain serial path); slot r+1 is worker rank r.  Vectors are trimmed to
/// the highest slot that recorded anything.
struct RegionStats {
  std::string name;
  double seconds = 0.0;
  std::uint64_t count = 0;
  std::vector<double> rank_seconds;
  std::vector<std::uint64_t> rank_count;
};

/// Per-rank slots of one reserved counter, laid out like RegionStats':
/// slot 0 is the master, slot r+1 is worker rank r, trimmed to the highest
/// slot that recorded anything.
struct RankSlots {
  std::vector<double> value;
  std::vector<std::uint64_t> count;
};

/// One run's worth of instrumentation: user regions plus one value/count
/// pair per reserved counter (a kCounters row) and that counter's per-rank
/// slots.
struct Snapshot {
  std::vector<RegionStats> regions;
  /// Indexed by the counter's RegionId; empty in a snapshot no registry
  /// filled, so read it through slots().
  std::vector<RankSlots> rank_slots;

  double run_span_seconds = 0.0;
  std::uint64_t run_count = 0;
  double dispatch_seconds = 0.0;
  std::uint64_t dispatch_count = 0;
  double dispatches_total = 0.0;
  std::uint64_t dispatches_count = 0;
  double region_span_seconds = 0.0;
  std::uint64_t region_count = 0;
  double barrier_wait_seconds = 0.0;
  std::uint64_t barrier_wait_count = 0;
  double pipeline_wait_seconds = 0.0;
  std::uint64_t pipeline_wait_count = 0;
  double loop_iters_total = 0.0;
  std::uint64_t loop_record_count = 0;
  double mem_bytes_allocated = 0.0;
  std::uint64_t mem_alloc_count = 0;
  double mem_arena_hit_bytes = 0.0;
  std::uint64_t mem_arena_hit_count = 0;
  double first_touch_seconds = 0.0;
  std::uint64_t first_touch_count = 0;
  double fault_injected_total = 0.0;
  std::uint64_t fault_injected_count = 0;
  double watchdog_fires_total = 0.0;
  std::uint64_t watchdog_fires_count = 0;
  double stuck_rank_total = 0.0;
  std::uint64_t stuck_rank_count = 0;
  double fault_retries_total = 0.0;
  std::uint64_t fault_retries_count = 0;
  double degraded_width_sum = 0.0;
  std::uint64_t degraded_width_count = 0;
  double lost_shard_total = 0.0;
  std::uint64_t lost_shard_count = 0;
  double steal_steals_total = 0.0;
  std::uint64_t steal_steals_count = 0;
  double steal_attempts_total = 0.0;
  std::uint64_t steal_attempts_count = 0;
  double steal_deque_max_sum = 0.0;
  std::uint64_t steal_deque_max_count = 0;
  double ckpt_saved_total = 0.0;
  std::uint64_t ckpt_saved_count = 0;
  double ckpt_restored_step_sum = 0.0;
  std::uint64_t ckpt_restored_count = 0;
  double ckpt_crc_fail_total = 0.0;
  std::uint64_t ckpt_crc_fail_count = 0;
  double msg_crc_fail_total = 0.0;
  std::uint64_t msg_crc_fail_count = 0;

  /// Per-rank slots of reserved counter `id` (empty when none recorded).
  const RankSlots& slots(RegionId id) const noexcept {
    static const RankSlots kNone;
    return id >= 0 && static_cast<std::size_t>(id) < rank_slots.size()
               ? rank_slots[static_cast<std::size_t>(id)]
               : kNone;
  }

  /// Max-over-mean of per-worker iteration counts in scheduled loops: 1.0 is
  /// perfectly balanced, nranks is one rank doing everything, 0.0 means no
  /// scheduled loop recorded.  Worker slots only (slot 0 falls back in when
  /// only the serial path recorded).
  double loop_imbalance() const noexcept;
};

/// What a counter's value accumulates; its count is always events recorded.
enum class Unit { Seconds, Count, Bytes, Iterations, Width, Step };

inline constexpr std::string_view kUnitNames[] = {
    "seconds", "count", "bytes", "iterations", "width", "step"};

constexpr std::string_view unit_name(Unit u) noexcept {
  return kUnitNames[static_cast<int>(u)];
}

/// One reserved counter: its registry path, the unit of its value, and the
/// Snapshot fields the value and count land in.
struct Counter {
  std::string_view path;
  Unit unit;
  double Snapshot::*value;
  std::uint64_t Snapshot::*count;
};

/// The reserved counters; a row's index is its RegionId.  "Per rank" rows
/// attribute to the recording (or blamed) rank's slot, the rest to slot 0.
inline constexpr Counter kCounters[] = {
    // Master wall time of each WorkerTeam::run() fork-join.
    {"team/run_span", Unit::Seconds, &Snapshot::run_span_seconds,
     &Snapshot::run_count},
    // Master notify -> worker start latency, per rank.
    {"team/dispatch", Unit::Seconds, &Snapshot::dispatch_seconds,
     &Snapshot::dispatch_count},
    // WorkerTeam::run() dispatches, 1 each: fused-vs-forked dispatches/step.
    {"team/dispatches", Unit::Count, &Snapshot::dispatches_total,
     &Snapshot::dispatches_count},
    // Master wall time inside fused spmd() regions; count = regions entered.
    {"team/region_span", Unit::Seconds, &Snapshot::region_span_seconds,
     &Snapshot::region_count},
    // Arrive -> release time in team barriers, per rank.
    {"team/barrier_wait", Unit::Seconds, &Snapshot::barrier_wait_seconds,
     &Snapshot::barrier_wait_count},
    // Spin time in PipelineSync::wait_for, per rank (LU's wavefront).
    {"team/pipeline_wait", Unit::Seconds, &Snapshot::pipeline_wait_seconds,
     &Snapshot::pipeline_wait_count},
    // Iterations run per rank in scheduled loops; count = per-rank passes.
    {"team/loop_iters", Unit::Iterations, &Snapshot::loop_iters_total,
     &Snapshot::loop_record_count},
    // Fresh bytes obtained from the allocator; count = allocations.
    {"mem/bytes", Unit::Bytes, &Snapshot::mem_bytes_allocated,
     &Snapshot::mem_alloc_count},
    // Bytes served warm from the arena pool; count = pool hits.
    {"mem/arena_hit", Unit::Bytes, &Snapshot::mem_arena_hit_bytes,
     &Snapshot::mem_arena_hit_count},
    // Wall time of team-executed first-touch fills; count = fills.
    {"mem/first_touch", Unit::Seconds, &Snapshot::first_touch_seconds,
     &Snapshot::first_touch_count},
    // Faults fired by the injector, per rank.
    {"fault/injected", Unit::Count, &Snapshot::fault_injected_total,
     &Snapshot::fault_injected_count},
    // Barrier-watchdog escalations to Barrier::abort().
    {"fault/watchdog_fires", Unit::Count, &Snapshot::watchdog_fires_total,
     &Snapshot::watchdog_fires_count},
    // Ranks the watchdog found absent, 1 in each blamed rank's slot.
    {"fault/stuck_rank", Unit::Count, &Snapshot::stuck_rank_total,
     &Snapshot::stuck_rank_count},
    // Retries performed by StepRunner: re-run steps and rewritten flushes.
    {"fault/retries", Unit::Count, &Snapshot::fault_retries_total,
     &Snapshot::fault_retries_count},
    // Width adopted by each graceful-degradation shrink; count = shrinks.
    {"fault/degraded_width", Unit::Width, &Snapshot::degraded_width_sum,
     &Snapshot::degraded_width_count},
    // Shm shards that died or went silent, 1 in each lost rank's slot.
    {"fault/lost_shard", Unit::Count, &Snapshot::lost_shard_total,
     &Snapshot::lost_shard_count},
    // Jobs taken by work stealing, per thief; count = scopes that stole.
    {"steal/steals", Unit::Count, &Snapshot::steal_steals_total,
     &Snapshot::steal_steals_count},
    // Steal attempts, successful or not, per rank.
    {"steal/attempts", Unit::Count, &Snapshot::steal_attempts_total,
     &Snapshot::steal_attempts_count},
    // Each task scope's deque depth watermark per rank; count = scopes.
    {"steal/deque_max", Unit::Count, &Snapshot::steal_deque_max_sum,
     &Snapshot::steal_deque_max_count},
    // Durable checkpoints committed by StepRunner's flushes.
    {"ckpt/saved", Unit::Count, &Snapshot::ckpt_saved_total,
     &Snapshot::ckpt_saved_count},
    // Step restored by each resume from a checkpoint; count = resumes.
    {"ckpt/restored", Unit::Step, &Snapshot::ckpt_restored_step_sum,
     &Snapshot::ckpt_restored_count},
    // Checkpoint CRC32C failures: flushed readback or in-memory shadow.
    {"ckpt/crc_fail", Unit::Count, &Snapshot::ckpt_crc_fail_total,
     &Snapshot::ckpt_crc_fail_count},
    // Corrupt shm frames, 1 in the blamed sender's slot.
    {"msg/crc_fail", Unit::Count, &Snapshot::msg_crc_fail_total,
     &Snapshot::msg_crc_fail_count},
};

inline constexpr int kReservedRegions = static_cast<int>(std::size(kCounters));

/// RegionId of the reserved counter at `path`; an unknown path does not
/// compile.
consteval RegionId counter_id(std::string_view path) {
  for (int id = 0; id < kReservedRegions; ++id)
    if (kCounters[id].path == path) return id;
  throw "obs: no reserved counter has this path";
}

inline double Snapshot::loop_imbalance() const noexcept {
  const RankSlots& s = slots(counter_id("team/loop_iters"));
  double mx = 0.0, sum = 0.0;
  int n = 0;
  for (std::size_t i = 1; i < s.count.size(); ++i) {
    if (s.count[i] == 0) continue;
    const double v = s.value[i];
    if (v > mx) mx = v;
    sum += v;
    ++n;
  }
  if (n == 0) {
    if (s.count.empty() || s.count[0] == 0) return 0.0;
    return 1.0;  // serial path: trivially balanced
  }
  const double mean = sum / static_cast<double>(n);
  return mean > 0.0 ? mx / mean : 0.0;
}

/// Worker ranks 0..kMaxRanks-1 get their own slot; higher ranks are dropped.
inline constexpr int kMaxRanks = 32;
inline constexpr int kMaxRegions = 256;

/// One shard's (worker process's) instrumentation in a hybrid shm run:
/// the rank's in-process snapshot plus its timed-phase wall seconds, shipped
/// back over the result pipe and merged into the parent's RunResult so one
/// JSON report carries every process's breakdown.  Defined unconditionally
/// (like Snapshot) so RunResult keeps one layout under NPB_OBS_DISABLED.
struct ShardSnapshot {
  int rank = 0;
  double seconds = 0.0;
  Snapshot snap;
};

#ifndef NPB_OBS_DISABLED

inline constexpr bool kActive = true;

inline namespace enabled {

/// Rank of the calling thread inside its WorkerTeam (-1 on the master or
/// any non-team thread).  Set by the team runtime; lets ScopedTimer
/// attribute without plumbing rank through every call chain.
void set_thread_rank(int rank) noexcept;
int thread_rank() noexcept;

class ObsRegistry {
 public:
  static ObsRegistry& instance();

  ObsRegistry(const ObsRegistry&) = delete;
  ObsRegistry& operator=(const ObsRegistry&) = delete;

  /// Interns `path` and returns its stable id (cold path, thread-safe).
  /// Ids survive reset(); returns -1 once kMaxRegions names exist.
  RegionId intern(std::string_view path);

  /// Adds `seconds` to (region, rank) and bumps its count.  Hot path:
  /// no locks, no allocation; each (region, rank) cell is one cache line
  /// written only by that rank's thread.
  void record(RegionId id, int rank, double seconds) noexcept {
    if (!enabled_relaxed() || id < 0 || id >= n_regions_hint()) return;
    const int slot = rank + 1;
    if (slot < 0 || slot > kMaxRanks) return;
    Cell& c = cells_[static_cast<std::size_t>(id) * kSlots +
                     static_cast<std::size_t>(slot)];
    c.seconds += seconds;
    ++c.count;
  }

  /// Runtime switch (compile-time one is NPB_OBS_DISABLED).  Disabled
  /// recording is a single relaxed atomic load.
  void set_enabled(bool on) noexcept;
  bool enabled() const noexcept { return enabled_relaxed(); }

  /// Zeroes every accumulator; interned names and ids are kept so cached
  /// RegionIds in benchmark code stay valid across runs.
  void reset() noexcept;

  /// Aggregates the current counters.  Caller must ensure no thread is
  /// recording concurrently (i.e. call between runs, not inside one).
  Snapshot snapshot() const;

 private:
  ObsRegistry();

  struct alignas(64) Cell {
    double seconds = 0.0;
    std::uint64_t count = 0;
  };
  static constexpr std::size_t kSlots = static_cast<std::size_t>(kMaxRanks) + 1;

  bool enabled_relaxed() const noexcept;
  int n_regions_hint() const noexcept;

  struct Impl;
  Impl* impl_;   // names + interning lock (cold state)
  Cell* cells_;  // kMaxRegions * kSlots, one flat allocation, never moved
};

/// Interns a region path ("BT/x_solve" — '/' expresses the hierarchy).
inline RegionId region(std::string_view path) {
  return ObsRegistry::instance().intern(path);
}

/// RAII region timer.  Attribution rank defaults to the calling thread's
/// team rank.  Construction/destruction cost two wtime() calls when the
/// registry is enabled and nothing at all when it is runtime-disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(RegionId id) noexcept : ScopedTimer(id, thread_rank()) {}
  ScopedTimer(RegionId id, int rank) noexcept
      : id_(id), rank_(rank),
        start_(ObsRegistry::instance().enabled() ? wtime() : -1.0) {}
  ~ScopedTimer() {
    if (start_ >= 0.0)
      ObsRegistry::instance().record(id_, rank_, wtime() - start_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  RegionId id_;
  int rank_;
  double start_;
};

}  // inline namespace enabled

#else  // NPB_OBS_DISABLED

inline constexpr bool kActive = false;

inline namespace disabled {

inline void set_thread_rank(int) noexcept {}
inline int thread_rank() noexcept { return -1; }

class ObsRegistry {
 public:
  static ObsRegistry& instance() noexcept {
    static ObsRegistry r;
    return r;
  }
  RegionId intern(std::string_view) noexcept { return -1; }
  void record(RegionId, int, double) noexcept {}
  void set_enabled(bool) noexcept {}
  bool enabled() const noexcept { return false; }
  void reset() noexcept {}
  Snapshot snapshot() const { return {}; }
};

inline RegionId region(std::string_view) noexcept { return -1; }

class ScopedTimer {
 public:
  explicit ScopedTimer(RegionId) noexcept {}
  ScopedTimer(RegionId, int) noexcept {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
};

}  // inline namespace disabled

#endif  // NPB_OBS_DISABLED

}  // namespace npb::obs
