#include "svc/scheduler.hpp"

#include <algorithm>
#include <exception>

#include "common/wtime.hpp"
#include "fault/fault.hpp"
#include "irr/irr.hpp"
#include "npb/registry.hpp"
#include "obs/obs.hpp"

namespace npb::svc {
namespace {

/// Runs the driver under job-local isolation state already bound to the
/// calling thread.  Fills result/error fields of `out`; returns driver
/// health (false when it threw).
bool execute(const JobSpec& spec, WorkerTeam* team, JobOutcome& out) {
  RunConfig cfg = spec.cfg;
  cfg.team = team;
  RunFn fn = find_benchmark(spec.benchmark);
  if (fn == nullptr) fn = find_irr_benchmark(spec.benchmark);
  if (fn == nullptr) {
    out.error = "unknown benchmark \"" + spec.benchmark + "\"";
    return false;
  }
  const double t0 = wtime();
  bool healthy = true;
  try {
    out.result = fn(cfg);
    out.completed = true;
    out.verified = out.result.verified;
  } catch (const std::exception& e) {
    out.error = e.what();
    healthy = false;
  } catch (...) {
    out.error = "unknown exception";
    healthy = false;
  }
  out.run_seconds = wtime() - t0;
  return healthy;
}

}  // namespace

JobScheduler::JobScheduler(SchedulerOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.pool_widths),
      obs_was_enabled_(obs::ObsRegistry::instance().enabled()),
      started_at_(wtime()) {
  // The obs registry's per-(region, rank) cells are process-global: two
  // concurrent teams' rank-r threads would write the same cache line.
  // Service metrics come from the scheduler, not the registry.
  obs::ObsRegistry::instance().set_enabled(false);
  stats_.pool_width = pool_.total_width();
}

JobScheduler::~JobScheduler() {
  drain();
  obs::ObsRegistry::instance().set_enabled(obs_was_enabled_);
}

bool JobScheduler::submit(JobSpec spec) {
  std::unique_lock<std::mutex> lk(m_);
  if (queue_full_locked()) {
    ++stats_.jobs_rejected;
    return false;
  }
  const std::uint64_t seq = seq_next_++;
  ++waiting_;
  ++stats_.jobs_submitted;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, waiting_);
  outcomes_.emplace_back();
  const double now = wtime();
  threads_.emplace_back([this, s = std::move(spec), seq, now]() mutable {
    runner(std::move(s), seq, now);
  });
  return true;
}

void JobScheduler::submit_wait(JobSpec spec) {
  {
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [&] { return !queue_full_locked(); });
  }
  // Between the wait and submit() another producer could refill the queue;
  // loop until our submit lands.  Single-producer callers never loop.
  while (!submit(spec)) {
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [&] { return !queue_full_locked(); });
  }
}

void JobScheduler::runner(JobSpec spec, std::uint64_t seq,
                          double submitted_at) {
  const int width = spec.cfg.threads;
  const TeamOptions topts = team_options(spec.cfg);

  std::optional<TeamLease> lease;
  {
    std::unique_lock<std::mutex> lk(m_);
    // Strict FIFO: wait for our turn, then (if pooled) for a team of our
    // width.  Holding the turn while waiting is the no-bypass guarantee.
    cv_turn_.wait(lk, [&] { return seq == next_turn_; });
    if (width > 0 && pool_.has_width(width)) {
      cv_resource_.wait(lk, [&] {
        lease = pool_.try_checkout(width, topts);
        return lease.has_value();
      });
    }
    ++next_turn_;
    --waiting_;
    ++running_;
    width_in_use_ += width > 0 ? width : 0;
    stats_.peak_width_in_use = std::max(stats_.peak_width_in_use,
                                        width_in_use_);
    cv_turn_.notify_all();
    cv_done_.notify_all();
  }

  JobOutcome out;
  out.spec = spec;
  out.queue_seconds = wtime() - submitted_at;
  out.pooled_team = lease.has_value();

  bool healthy;
  {
    // Job-local isolation state, bound to this thread and inherited by the
    // team's workers at every dispatch.
    fault::Injector injector;
    const fault::ScopedInjectorBinding binding(injector);
    mem::Arena private_arena;
    const mem::ScopedArena arena_scope(lease ? lease->arena : &private_arena);
    healthy = execute(spec, lease ? lease->team : nullptr, out);
    out.faults_injected = injector.injected();
    out.degraded_width = injector.degraded_width();
  }

  std::unique_lock<std::mutex> lk(m_);
  if (lease) {
    pool_.checkin(*lease, healthy);
    cv_resource_.notify_all();
  }
  --running_;
  ++done_;
  width_in_use_ -= width > 0 ? width : 0;
  stats_.width_seconds += (width > 0 ? width : 0) * out.run_seconds;
  if (out.completed) {
    ++stats_.jobs_completed;
    if (!out.verified) ++stats_.jobs_unverified;
  } else {
    ++stats_.jobs_failed;
  }
  if (out.degraded_width > 0) ++stats_.jobs_degraded;
  latencies_.push_back(out.queue_seconds + out.run_seconds);
  outcomes_.at(static_cast<std::size_t>(seq - drained_base_)) =
      std::move(out);
  cv_done_.notify_all();
}

std::vector<JobOutcome> JobScheduler::drain() {
  std::vector<std::thread> joinable;
  std::vector<JobOutcome> result;
  {
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [&] { return waiting_ == 0 && running_ == 0; });
    joinable.swap(threads_);
    result.swap(outcomes_);
    drained_base_ = seq_next_;
    done_ = 0;
  }
  for (std::thread& t : joinable) t.join();
  return result;
}

ServiceStats JobScheduler::stats() const {
  std::unique_lock<std::mutex> lk(m_);
  ServiceStats s = stats_;
  s.wall_seconds = wtime() - started_at_;
  s.pool = pool_.stats();
  if (!latencies_.empty()) {
    std::vector<double> sorted = latencies_;
    std::sort(sorted.begin(), sorted.end());
    const auto at = [&](double q) {
      const std::size_t i =
          static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
      return sorted[i];
    };
    s.latency_p50 = at(0.5);
    s.latency_p99 = at(0.99);
  }
  return s;
}

std::size_t JobScheduler::in_flight() const {
  std::unique_lock<std::mutex> lk(m_);
  return waiting_ + running_;
}

JobOutcome JobScheduler::run_job_now(const JobSpec& spec) {
  JobOutcome out;
  out.spec = spec;
  fault::Injector injector;
  const fault::ScopedInjectorBinding binding(injector);
  mem::Arena arena;
  const mem::ScopedArena arena_scope(&arena);
  execute(spec, nullptr, out);
  out.faults_injected = injector.injected();
  out.degraded_width = injector.degraded_width();
  return out;
}

}  // namespace npb::svc
