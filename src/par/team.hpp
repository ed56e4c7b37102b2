#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mode.hpp"
#include "common/threadctx.hpp"
#include "common/wtime.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "par/barrier.hpp"
#include "par/schedule.hpp"

namespace npb {

namespace task {
class Pool;
}  // namespace task

/// True when the calling thread is a WorkerTeam worker (i.e. we are inside a
/// run() body or worker startup).  The mem layer uses it to keep worker-side
/// allocations from trying to dispatch a first-touch fill onto the team they
/// are already part of — which would deadlock — and it stays meaningful in
/// NPB_OBS_DISABLED builds where obs::thread_rank() is compiled to a stub.
bool on_team_thread() noexcept;

/// Rank of the calling thread within its WorkerTeam; -1 on the master or any
/// non-team thread.  Unlike obs::thread_rank() this survives
/// NPB_OBS_DISABLED builds, so the fault hooks and the barrier watchdog can
/// attribute by rank in every configuration.
int team_rank() noexcept;

namespace detail {
/// One cache line per rank, so concurrent per-rank writes (reduction
/// partials, scratch results) never share a line.
struct alignas(64) PaddedDouble {
  double v = 0.0;
};

/// One atomic double per cache line: the watchdog's per-rank barrier-entry
/// timestamps, written by the waiting rank and scanned by the poll thread.
struct alignas(64) PaddedAtomicDouble {
  std::atomic<double> v{0.0};
};
}  // namespace detail

struct TeamOptions {
  BarrierKind barrier = BarrierKind::CondVar;
  /// Priming work (floating-point spins) each worker executes at startup.
  /// This is the paper's CG fix: "by initializing the thread load, we were
  /// able to get a visible speedup of CG" — the JVM only assigned threads to
  /// distinct CPUs once each had demonstrated real work.  A 1:1 std::thread
  /// runtime doesn't need it, but the knob exists so bench_ablation_sync can
  /// measure what the fix itself costs.
  long warmup_spins = 0;
  /// Default loop schedule for this team's parallel_for / parallel_ranges /
  /// parallel_reduce_sum calls (call sites can still pass an explicit
  /// Schedule).  Static reproduces the paper's block partition bit-for-bit.
  Schedule schedule{};
  /// When true, benchmark time-step bodies run as one fused SPMD region per
  /// iteration (spmd() + in-region collectives, see par/region.hpp) instead
  /// of one fork/join dispatch per loop.  Results are bit-identical either
  /// way for a fixed schedule and thread count; the knob exists for the
  /// section 5.2 overhead ablation (--fused=on|off).
  bool fused = true;
  /// Barrier watchdog timeout in milliseconds; > 0 starts a poll thread
  /// that detects a barrier stuck past the timeout (some ranks parked, at
  /// least one absent), blames the absent ranks through obs
  /// (fault/stuck_rank) and the fault injector's failed mask, and escalates
  /// to Barrier::abort() so the region unwinds as RegionAborted instead of
  /// hanging.  Must exceed the longest healthy time step.  0 (default)
  /// compiles the timestamps and the thread away at runtime.
  long watchdog_ms = 0;
  /// Kernel mode this team executes (native / java / vec).  The kernel
  /// *selection* is compile-time — each driver dispatches to the per-mode
  /// translation unit — but the runtime layers see the mode here: a degraded
  /// retry re-runs at the same mode, and obs/bench reports label rows by it.
  Mode mode = Mode::Native;
  /// Execution personality of this team's threads: Spmd (default — the
  /// chunk-queue master-workers shape, bit-identical to every prior
  /// release) or Steal (the same threads drive per-rank work-stealing
  /// deques through ParallelRegion::task_scope; see par/task.hpp).  The
  /// task pool itself exists either way — a handful of empty deques — so
  /// Spmd teams pay nothing but the allocation.
  Runtime runtime = Runtime::Spmd;
};

/// Thrown by WorkerTeam::barrier() on a rank whose region was aborted because
/// a sibling rank threw between in-region barriers.  Deliberately not derived
/// from std::exception: worker_main swallows it (the sibling's exception is
/// the one the master rethrows) and region bodies should never catch it.
struct RegionAborted {};

/// Master-workers thread team, structured exactly like the paper's Java
/// translation: the master (the caller of run()) owns `n` persistent worker
/// threads that are "switched between blocked and runnable states with
/// wait() and notify() methods" — here, a condition variable.  Each run()
/// broadcasts one work item, executes it on every worker, and blocks the
/// master until all workers have finished (implicit join barrier, like the
/// end of an OpenMP parallel region).
///
/// Instrumentation (compiled out under NPB_OBS_DISABLED): every run()
/// records its master-side span, every worker records the notify->start
/// dispatch latency, and barrier() records each rank's arrive->release wait
/// — the raw ingredients of the paper's section 5.2 thread-overhead
/// decomposition.
class WorkerTeam {
 public:
  explicit WorkerTeam(int nthreads, TeamOptions opts = {});
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  int size() const noexcept { return n_; }

  /// The team's default loop schedule (TeamOptions::schedule).
  const Schedule& schedule() const noexcept { return opts_.schedule; }

  /// Whether benchmark drivers should fuse their time-step bodies into one
  /// SPMD region per iteration (TeamOptions::fused).
  bool fused() const noexcept { return opts_.fused; }

  /// Executes fn(rank) on all workers; rethrows the first worker exception.
  /// The callable is dispatched as a (function-pointer, context) pair, so
  /// per-iteration lambdas in tight ADI sweeps pay no std::function
  /// type-erasure, allocation, or copy.
  template <class F>
  void run(F&& fn) {
    using Fn = std::remove_reference_t<F>;
    dispatch(&invoke_as<Fn>,
             const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

  /// Callable from inside a run() body: blocks until all workers arrive.
  /// Throws RegionAborted when a sibling rank threw out of the region body —
  /// the abort releases every parked rank so fused regions never deadlock on
  /// a barrier their thrower will not reach.  Under an active fault session
  /// this is also the Barrier injection site, and with a watchdog running
  /// each rank timestamps its wait so stuck barriers can be detected.
  void barrier() {
    const int rank = team_rank();
    fault::on_site(fault::Site::Barrier, rank);
    note_barrier_entry(rank, wtime());
    bool ok;
    if (obs::kActive && obs::ObsRegistry::instance().enabled()) {
      const double t0 = wtime();
      ok = barrier_->arrive_and_wait();
      obs::ObsRegistry::instance().record(obs::counter_id("team/barrier_wait"),
                                          obs::thread_rank(), wtime() - t0);
    } else {
      ok = barrier_->arrive_and_wait();
    }
    note_barrier_entry(rank, 0.0);
    if (!ok) throw RegionAborted{};
  }

  /// Per-team padded scratch with one slot per rank, reused by
  /// parallel_reduce_sum (and friends) so reductions never allocate per
  /// call.  Valid while the team lives; contents are overwritten by each
  /// reduction.
  detail::PaddedDouble* reduce_scratch() noexcept { return scratch_.data(); }

  /// Per-team scratch for the dynamic/guided reduction path: the chunk list
  /// and the per-chunk partials, reused across calls so scheduled reductions
  /// are allocation-free after their first invocation (the capacity sticks).
  /// Valid while the team lives; contents are overwritten by each reduction,
  /// so only one scheduled reduction may be in flight per team — the same
  /// contract reduce_scratch() already imposes, enforced in debug builds by
  /// ReduceScratchGuard.
  std::vector<Range>& chunk_scratch() noexcept { return chunk_scratch_; }
  std::vector<double>& partial_scratch() noexcept { return partial_scratch_; }

  /// Poisons the team barrier from outside the region (watchdog escalation
  /// path).  Waiting ranks unwind as RegionAborted; dispatch() detects the
  /// poison after the join and reports RegionAborted to the master too.
  void abort_region() noexcept { barrier_->abort(); }

  /// True while the team barrier is poisoned (a region abort is in flight).
  /// PipelineSync polls it so wavefront spins unwind instead of waiting
  /// forever for a rank that already aborted.
  bool region_aborted() const noexcept { return barrier_->aborted(); }

  /// The team's work-stealing task pool (one Chase-Lev deque per rank),
  /// driven by ParallelRegion::task_scope when TeamOptions::runtime is
  /// Steal.  Always constructed; idle under the Spmd personality.
  task::Pool& task_pool() noexcept { return *task_pool_; }

 private:
  friend class ReduceScratchGuard;
  using JobFn = void (*)(void*, int);

  template <class Fn>
  static void invoke_as(void* ctx, int rank) {
    (*static_cast<Fn*>(ctx))(rank);
  }

  void dispatch(JobFn invoke, void* ctx);
  void worker_main(int rank);
  void watchdog_main();

  /// Publishes rank's barrier wait (entry wtime, or 0.0 = not waiting) for
  /// the watchdog scan.  One padded cell per rank; nothing at all when no
  /// watchdog is running or the caller is not a team rank.
  void note_barrier_entry(int rank, double when) noexcept {
    if (!watchdog_active_ || rank < 0 || rank >= n_) return;
    barrier_entry_[static_cast<std::size_t>(rank)].v.store(
        when, std::memory_order_release);
  }

  const int n_;
  const TeamOptions opts_;
  std::unique_ptr<Barrier> barrier_;
  std::unique_ptr<task::Pool> task_pool_;
  std::vector<detail::PaddedDouble> scratch_;
  std::vector<Range> chunk_scratch_;
  std::vector<double> partial_scratch_;
  std::atomic<bool> scratch_busy_{false};

  std::mutex m_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  JobFn job_invoke_ = nullptr;
  void* job_ctx_ = nullptr;
  /// The dispatching master's threadctx slots, snapshotted per dispatch and
  /// installed in each worker for the span of the job.  The master is parked
  /// in the join for that whole span, so the pointed-to state is stable.
  threadctx::Slots job_slots_{};
  double job_issued_at_ = 0.0;
  unsigned long generation_ = 0;
  int done_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;

  std::vector<std::thread> threads_;

  /// Watchdog state (inert unless opts_.watchdog_ms > 0).
  const bool watchdog_active_;
  std::vector<detail::PaddedAtomicDouble> barrier_entry_;
  std::mutex wd_m_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;
  std::thread watchdog_;
};

/// RAII guard for the "one reduction in flight per team" scratch contract
/// (reduce_scratch / chunk_scratch / partial_scratch).  Held by the side
/// that arms the scratch — the master in forked parallel_reduce_sum, rank 0
/// in an in-region reduce — for the full span of the reduction.  A nested or
/// concurrent reduction on the same team asserts in debug builds instead of
/// silently corrupting partials.
class ReduceScratchGuard {
 public:
  explicit ReduceScratchGuard(WorkerTeam& team) noexcept : team_(team) {
    const bool was = team_.scratch_busy_.exchange(true, std::memory_order_acquire);
    assert(!was &&
           "nested or concurrent reduction on one team's shared scratch");
    (void)was;
  }
  ~ReduceScratchGuard() {
    team_.scratch_busy_.store(false, std::memory_order_release);
  }

  ReduceScratchGuard(const ReduceScratchGuard&) = delete;
  ReduceScratchGuard& operator=(const ReduceScratchGuard&) = delete;

 private:
  WorkerTeam& team_;
};

}  // namespace npb
