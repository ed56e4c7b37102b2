#pragma once

// Fused SPMD parallel regions.  The paper's section 5.2 charges 10-20% of
// parallel runtime to master-worker thread overhead, most of it the
// notify/join round trip every parallel loop pays; fusing a whole time step
// into one WorkerTeam::run() replaces those round trips with in-region team
// barriers, which is how the hand-parallelized NPB codes enlarge their
// parallel regions.  spmd(team, fn) enters one region; ParallelRegion then
// offers rank-callable variants of parallel_for / parallel_ranges /
// parallel_reduce_sum that run between barriers instead of fresh dispatches:
//
//   spmd(team, [&](ParallelRegion& rg, int rank) {
//     rg.for_each(rank, sched, 0, n, [&](long i) { ... });   // + barrier
//     rg.barrier();                                          // phase split
//     double s = rg.reduce_sum(rank, sched, 0, n, body);     // collective
//   });
//
// Every ParallelRegion method is a *collective*: all ranks of the region
// must call it with the same arguments, in the same order.  Scheduled
// (Dynamic/Guided) loops re-arm the region's ChunkQueue on rank 0 and
// publish it with a barrier; reductions combine exactly like the forked
// path — per-rank partials in rank order under Static, per-chunk partials
// in chunk order under Dynamic/Guided — so results are bit-identical to
// parallel_reduce_sum for a fixed schedule and thread count.
//
// If a region body throws between barriers, the team poisons the barrier so
// sibling ranks unwind (see RegionAborted) and the master rethrows the
// original exception from spmd(); the team remains reusable.

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/wtime.hpp"
#include "obs/obs.hpp"
#include "par/partition.hpp"
#include "par/schedule.hpp"
#include "par/task.hpp"
#include "par/team.hpp"

namespace npb {

class ParallelRegion {
 public:
  explicit ParallelRegion(WorkerTeam& team) : team_(team) {}

  ParallelRegion(const ParallelRegion&) = delete;
  ParallelRegion& operator=(const ParallelRegion&) = delete;

  WorkerTeam& team() noexcept { return team_; }
  int size() const noexcept { return team_.size(); }

  /// In-region team barrier (collective).
  void barrier() { team_.barrier(); }

  /// In-region parallel_for: body(i) over [lo, hi).  Collective; closes
  /// with a barrier, so every rank sees the loop's writes on return.
  template <class Body>
  void for_each(int rank, Schedule sched, long lo, long hi, const Body& body) {
    fault::on_site(fault::Site::Collective, rank);
    if (sched.kind == Schedule::Kind::Static) {
      const Range r = partition(lo, hi, rank, team_.size());
      for (long i = r.lo; i < r.hi; ++i) body(i);
      detail::record_loop_iters(rank, r.size());
      team_.barrier();
      return;
    }
    arm(rank, lo, hi, sched);
    claim_chunks(queue_, rank, [&](long clo, long chi) {
      for (long i = clo; i < chi; ++i) body(i);
    });
    team_.barrier();
  }

  /// In-region parallel_ranges: body(rank, lo_r, hi_r) per assigned block
  /// (Static: once per rank) or claimed chunk (Dynamic/Guided: possibly
  /// several per rank).  Collective; closes with a barrier.
  template <class Body>
  void ranges(int rank, Schedule sched, long lo, long hi, const Body& body) {
    fault::on_site(fault::Site::Collective, rank);
    if (sched.kind == Schedule::Kind::Static) {
      const Range r = partition(lo, hi, rank, team_.size());
      body(rank, r.lo, r.hi);
      detail::record_loop_iters(rank, r.size());
      team_.barrier();
      return;
    }
    arm(rank, lo, hi, sched);
    claim_chunks(queue_, rank,
                 [&](long clo, long chi) { body(rank, clo, chi); });
    team_.barrier();
  }

  /// In-region parallel_reduce_sum: sum of body(i) over [lo, hi), returned
  /// on every rank.  Collective.  Combine order matches the forked path
  /// exactly (rank order under Static, chunk order under Dynamic/Guided),
  /// so the result is bit-identical to parallel_reduce_sum for a fixed
  /// schedule and thread count.
  template <class Body>
  double reduce_sum(int rank, Schedule sched, long lo, long hi,
                    const Body& body) {
    fault::on_site(fault::Site::Collective, rank);
    if (sched.kind == Schedule::Kind::Static) {
      const Range r = partition(lo, hi, rank, team_.size());
      double s = 0.0;
      for (long i = r.lo; i < r.hi; ++i) s += body(i);
      detail::record_loop_iters(rank, r.size());
      return reduce_partials(rank, s);
    }
    std::vector<Range>& chunks = team_.chunk_scratch();
    std::vector<double>& partial = team_.partial_scratch();
    std::optional<ReduceScratchGuard> guard;
    if (rank == 0) {
      guard.emplace(team_);
      schedule_chunks_into(chunks, lo, hi, sched, team_.size());
      partial.assign(chunks.size(), 0.0);
      cursor_.store(0, std::memory_order_relaxed);
    }
    team_.barrier();  // publishes the chunk list, partials, and cursor
    long iters = 0;
    for (;;) {
      const std::size_t c = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks.size()) break;
      double s = 0.0;
      for (long i = chunks[c].lo; i < chunks[c].hi; ++i) s += body(i);
      // The Reduce injection site: a nan-poison spec corrupts this rank's
      // chunk partial, exactly the failure a retried step must wash out.
      partial[c] = fault::poison(rank, s);
      iters += chunks[c].size();
    }
    detail::record_loop_iters(rank, iters);
    team_.barrier();  // all partials written
    double total = 0.0;
    for (const double p : partial) total += p;  // chunk order: deterministic
    team_.barrier();  // all ranks done reading before scratch is reused
    return total;
  }

  /// Low-level rank-ordered combine of one double per rank through the
  /// team's padded scratch; returns the sum on every rank.  Collective.
  /// This is the deterministic dot-product primitive CG's resident loop
  /// uses: identical addend order to the forked Static reduction.
  double reduce_partials(int rank, double mine) {
    detail::PaddedDouble* partial = team_.reduce_scratch();
    std::optional<ReduceScratchGuard> guard;
    if (rank == 0) guard.emplace(team_);
    // The Reduce injection site of the rank-ordered combine (nan-poison).
    partial[rank].v = fault::poison(rank, mine);
    team_.barrier();  // all partials written
    double total = 0.0;
    for (int t = 0; t < team_.size(); ++t) total += partial[t].v;
    team_.barrier();  // all ranks done reading before scratch is reused
    return total;
  }

  /// Work-stealing task scope (collective): between two region barriers,
  /// rank 0 runs `root()` as the root task while every other rank becomes a
  /// thief on the team's task pool — task::fork2 / task::parallel_for
  /// called under `root` fork onto per-rank Chase-Lev deques instead of
  /// running serially.  This is the task-spawning surface inside an SPMD
  /// region: a driver can fuse regular (chunk-queue) phases and irregular
  /// (stolen) phases of one time step under a single dispatch.
  ///
  /// Error contract matches the rest of the region API: an exception from
  /// any task propagates to rank 0's join chain and out of the region (the
  /// team barrier is poisoned so thieves unwind; the master rethrows).  A
  /// watchdog escalation mid-scope is honored by thieves between jobs; jobs
  /// already forked are still completed by the joining parent, so no stack
  /// frame unwinds while a thief references it.
  ///
  /// Per-rank steal counters (steal/steals, steal/attempts,
  /// steal/deque_max) flush to obs when the scope closes.
  template <class Root>
  void task_scope(int rank, const Root& root) {
    task::Pool& pool = team_.task_pool();
    if (rank == 0) pool.arm();
    team_.barrier();  // publishes the re-armed pool
    {
      task::detail::ScopedWorkerCtx bind(&pool, &team_, rank);
      if (rank == 0) {
        std::exception_ptr err;
        try {
          root();
        } catch (...) {
          err = std::current_exception();
        }
        // Release the thieves even on the error path — they would
        // otherwise spin on a finished flag nobody sets.
        pool.finish();
        if (err) std::rethrow_exception(err);
      } else {
        pool.thief_loop(team_, rank);
      }
    }
    flush_steal_stats(pool, rank);
    team_.barrier();
  }

 private:
  /// Flushes (and zeroes) one rank's steal counters into the reserved obs
  /// regions.  Runs on the rank's own thread, so the owner-only stats and
  /// deque depth watermark are read race-free.
  void flush_steal_stats(task::Pool& pool, int rank) {
    task::StealStats& st = pool.stats(rank);
    task::StealDeque& dq = pool.deque(rank);
    auto& reg = obs::ObsRegistry::instance();
    if (st.steals > 0)
      reg.record(obs::counter_id("steal/steals"), rank,
                 static_cast<double>(st.steals));
    if (st.attempts > 0)
      reg.record(obs::counter_id("steal/attempts"), rank,
                 static_cast<double>(st.attempts));
    if (dq.max_depth() > 0)
      reg.record(obs::counter_id("steal/deque_max"), rank,
                 static_cast<double>(dq.max_depth()));
    st = task::StealStats{};
    dq.reset_max_depth();
  }

  /// Re-arms the region's chunk queue for one scheduled pass: rank 0 resets,
  /// a barrier publishes it.  The closing barrier of the *previous* loop
  /// guarantees no rank is still claiming from the old pass.
  void arm(int rank, long lo, long hi, Schedule sched) {
    if (rank == 0) queue_.reset(lo, hi, sched, team_.size());
    team_.barrier();
  }

  WorkerTeam& team_;
  ChunkQueue queue_;
  alignas(64) std::atomic<std::size_t> cursor_{0};
};

/// Enters one fused SPMD region: a single team dispatch under which
/// fn(region, rank) runs to completion on every rank, with in-region
/// collectives between barriers instead of fresh fork/joins.  Records the
/// master-side span under team/region_span; rethrows the first worker
/// exception (the team stays reusable afterwards).
template <class F>
void spmd(WorkerTeam& team, F&& fn) {
  ParallelRegion region(team);
  const bool obs_on = obs::kActive && obs::ObsRegistry::instance().enabled();
  const double t0 = obs_on ? wtime() : 0.0;
  team.run([&](int rank) { fn(region, rank); });
  if (obs_on)
    obs::ObsRegistry::instance().record(obs::counter_id("team/region_span"),
                                        -1, wtime() - t0);
}

}  // namespace npb
