#include "par/team.hpp"

#include <chrono>
#include <cmath>

#include "par/task.hpp"

namespace npb {
namespace {

thread_local bool t_on_team_thread = false;
thread_local int t_team_rank = -1;

}  // namespace

bool on_team_thread() noexcept { return t_on_team_thread; }
int team_rank() noexcept { return t_team_rank; }

namespace {

/// Floating-point busy work whose result escapes through a volatile so the
/// optimizer cannot delete it.  Mirrors the "initialization section
/// performing a large work in each thread" from the paper's CG study.
void warmup_spin(long spins) {
  volatile double sink = 0.0;
  double acc = 1.0;
  for (long i = 0; i < spins; ++i) acc = std::sqrt(acc + 1.0);
  sink = acc;
  (void)sink;
}

}  // namespace

WorkerTeam::WorkerTeam(int nthreads, TeamOptions opts)
    : n_(nthreads),
      opts_(opts),
      barrier_(make_barrier(opts.barrier, nthreads)),
      // Seed mixed from the width so a fixed-shape team replays the same
      // per-rank victim sequences run to run (the steal *interleaving*
      // stays nondeterministic; results verify by invariants).
      task_pool_(std::make_unique<task::Pool>(
          nthreads, 0x6e70627461736bULL ^
                        static_cast<std::uint64_t>(nthreads))),
      scratch_(static_cast<std::size_t>(nthreads)),
      wd_injector_(&fault::current()),
      watchdog_active_(opts.watchdog_ms > 0),
      barrier_entry_(watchdog_active_ ? static_cast<std::size_t>(nthreads)
                                      : 0) {
  threads_.reserve(static_cast<std::size_t>(n_));
  for (int rank = 0; rank < n_; ++rank)
    threads_.emplace_back([this, rank] { worker_main(rank); });
  if (watchdog_active_) watchdog_ = std::thread([this] { watchdog_main(); });
}

WorkerTeam::~WorkerTeam() {
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(wd_m_);
      wd_stop_ = true;
    }
    wd_cv_.notify_all();
    watchdog_.join();
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerTeam::dispatch(JobFn invoke, void* ctx) {
  // Dispatching from a team thread would deadlock (the caller can never
  // reach the join while it is itself a worker the join waits for).  The
  // mem layer documents this hazard for first-touch fills; make it an
  // immediate diagnostic instead of a hang.
  assert(!on_team_thread() &&
         "WorkerTeam::run() entered from a team thread (self-deadlock)");
  const bool obs_on = obs::kActive && obs::ObsRegistry::instance().enabled();
  const double t0 = obs_on ? wtime() : 0.0;
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(m_);
    job_invoke_ = invoke;
    job_ctx_ = ctx;
    // Hand the caller's job context (mem context, fault injector) to the
    // workers for the span of this dispatch.  Also point the watchdog at the
    // caller's injector so blame lands on the job currently running here.
    job_slots_ = threadctx::current();
    wd_injector_.store(&fault::current(), std::memory_order_release);
    job_issued_at_ = obs_on ? wtime() : 0.0;
    done_ = 0;
    ++generation_;
    cv_start_.notify_all();
    cv_done_.wait(lk, [&] { return done_ == n_; });
    job_invoke_ = nullptr;
    job_ctx_ = nullptr;
    err = first_error_;
    first_error_ = nullptr;
  }
  if (obs_on) {
    auto& reg = obs::ObsRegistry::instance();
    reg.record(obs::counter_id("team/run_span"), -1, wtime() - t0);
    // 1 per run(), so the fused ablation can count dispatches per time step
    // straight off the snapshot.
    reg.record(obs::counter_id("team/dispatches"), -1, 1.0);
  }
  if (err) {
    // A worker threw: the in-region barrier is poisoned (abort()) so its
    // peers could unwind.  All workers are parked again by now (the join
    // above), so clear the poison and any partial arrivals — the team stays
    // reusable after the rethrow.
    barrier_->reset();
    std::rethrow_exception(err);
  }
  if (barrier_->aborted()) {
    // External abort (a watchdog escalation): every rank unwound quietly as
    // RegionAborted, so there is no worker exception to rethrow — but the
    // region did not complete.  Clear the poison and tell the caller, who
    // can retry the step (see fault::StepRunner).
    barrier_->reset();
    throw RegionAborted{};
  }
}

void WorkerTeam::worker_main(int rank) {
  t_on_team_thread = true;
  t_team_rank = rank;
  obs::set_thread_rank(rank);
  if (opts_.warmup_spins > 0) warmup_spin(opts_.warmup_spins);
  unsigned long seen = 0;
  for (;;) {
    JobFn invoke = nullptr;
    void* ctx = nullptr;
    threadctx::Slots slots;
    double issued = 0.0;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      invoke = job_invoke_;
      ctx = job_ctx_;
      slots = job_slots_;
      issued = job_issued_at_;
    }
    // Run the job under the dispatcher's context (job-scoped mem/fault state
    // under the service scheduler; null slots = process defaults otherwise).
    const threadctx::Slots prev_slots = threadctx::exchange(slots);
    if (obs::kActive && issued > 0.0 &&
        obs::ObsRegistry::instance().enabled())
      obs::ObsRegistry::instance().record(obs::counter_id("team/dispatch"),
                                          rank, wtime() - issued);
    std::exception_ptr err;
    try {
      // The Region injection site: every benchmark body crosses it once per
      // dispatch on every rank, so a throw spec always has somewhere to
      // fire even in regions without in-region barriers or collectives
      // (EP's single-shot body).
      fault::on_site(fault::Site::Region, rank);
      invoke(ctx, rank);
    } catch (const RegionAborted&) {
      // A sibling rank's exception aborted the region; this rank just
      // unwinds quietly — the sibling's error is the one the master sees.
    } catch (...) {
      err = std::current_exception();
      // Release peers parked at (or headed for) an in-region barrier this
      // rank will never reach.  dispatch() un-poisons after the join.
      barrier_->abort();
    }
    threadctx::exchange(prev_slots);
    {
      std::lock_guard<std::mutex> lk(m_);
      if (err && !first_error_) first_error_ = err;
      if (++done_ == n_) cv_done_.notify_one();
    }
  }
}

void WorkerTeam::watchdog_main() {
  const double timeout = static_cast<double>(opts_.watchdog_ms) / 1000.0;
  const long poll_ms = opts_.watchdog_ms / 4 > 0 ? opts_.watchdog_ms / 4 : 1;

  // Stuck means: some ranks have been parked at the barrier longer than the
  // timeout while at least one rank has not arrived.  All-parked is a
  // healthy barrier in its release window; none-parked is compute.
  const auto stuck_longer_than = [&](double cutoff) {
    int waiting = 0;
    double oldest = wtime();
    for (int r = 0; r < n_; ++r) {
      const double e =
          barrier_entry_[static_cast<std::size_t>(r)].v.load(
              std::memory_order_acquire);
      if (e > 0.0) {
        ++waiting;
        if (e < oldest) oldest = e;
      }
    }
    return waiting > 0 && waiting < n_ && wtime() - oldest > cutoff;
  };

  std::unique_lock<std::mutex> lk(wd_m_);
  for (;;) {
    if (wd_cv_.wait_for(lk, std::chrono::milliseconds(poll_ms),
                        [&] { return wd_stop_; }))
      return;
    if (barrier_->aborted()) continue;  // an unwind is already in flight
    if (!stuck_longer_than(timeout)) continue;
    // Re-check right before escalating: the stragglers may have arrived
    // between the scan and now.  A release in the window after this check
    // costs one spurious retry of a completed step — checksum-preserving,
    // since the retry replays from the checkpoint.
    if (!stuck_longer_than(timeout)) continue;
    auto& reg = obs::ObsRegistry::instance();
    for (int r = 0; r < n_; ++r) {
      if (barrier_entry_[static_cast<std::size_t>(r)].v.load(
              std::memory_order_acquire) > 0.0)
        continue;
      // This rank never reached the barrier its siblings are parked at:
      // blame it in the injector of the job running here (refreshed at each
      // dispatch) so degradation shrinks the right tenant's team.
      wd_injector_.load(std::memory_order_acquire)->note_failed(r);
      reg.record(obs::counter_id("fault/stuck_rank"), r, 1.0);
    }
    reg.record(obs::counter_id("fault/watchdog_fires"), -1, 1.0);
    barrier_->abort();
  }
}

}  // namespace npb
