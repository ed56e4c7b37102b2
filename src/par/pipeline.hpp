#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "common/wtime.hpp"
#include "obs/obs.hpp"
#include "par/team.hpp"

namespace npb {

/// Point-to-point progress synchronization for software-pipelined wavefront
/// sweeps — the mechanism LU needs.  The paper singles LU out: "it performs
/// the thread synchronization inside a loop over one grid dimension, thus
/// introducing higher overhead".  Rank r publishes how far it has advanced
/// along the pipelined dimension; rank r+1 (or r-1, for the upper sweep)
/// waits for its neighbour to be at least one step ahead.
class PipelineSync {
 public:
  explicit PipelineSync(int nranks) : progress_(static_cast<std::size_t>(nranks)) {}

  /// Resets all progress counters.  Must be called by a single thread (or
  /// behind a barrier) between sweeps.
  void reset() {
    for (auto& c : progress_) c.v.store(-1, std::memory_order_relaxed);
  }

  /// Attaches the owning team's region-abort flag: while spinning, waiters
  /// poll it and unwind as RegionAborted when the region is poisoned, so a
  /// wavefront whose upstream rank died (injected throw, watchdog abort)
  /// cannot spin forever on a post that will never come.  Optional — an
  /// unattached PipelineSync spins unconditionally, as before.
  void set_abort_source(const WorkerTeam* team) noexcept { team_ = team; }

  /// Announces that `rank` has completed pipeline step `step`.
  void post(int rank, long step) {
    progress_[static_cast<std::size_t>(rank)].v.store(step, std::memory_order_release);
  }

  /// Blocks until `rank` has posted a step >= `step`.  Time spent spinning
  /// is charged to the team/pipeline_wait counter (the paper's LU-specific
  /// overhead: synchronization inside a loop over one grid dimension).
  void wait_for(int rank, long step) const {
    const auto& cell = progress_[static_cast<std::size_t>(rank)].v;
    if (cell.load(std::memory_order_acquire) >= step) return;
    if (obs::kActive && obs::ObsRegistry::instance().enabled()) {
      const double t0 = wtime();
      spin(cell, step);
      obs::ObsRegistry::instance().record(
          obs::counter_id("team/pipeline_wait"), obs::thread_rank(),
          wtime() - t0);
    } else {
      spin(cell, step);
    }
  }

 private:
  void spin(const std::atomic<long>& cell, long step) const {
    int spins = 0;
    while (cell.load(std::memory_order_acquire) < step) {
      if (++spins > 64) {
        if (team_ && team_->region_aborted()) throw RegionAborted{};
        std::this_thread::yield();
      }
    }
  }

  struct alignas(64) Cell {
    std::atomic<long> v{-1};
  };
  std::vector<Cell> progress_;
  const WorkerTeam* team_ = nullptr;
};

}  // namespace npb
