#pragma once

// Seeded deterministic fault injection for the thread runtime.  The hooks
// below are compiled into the runtime's choke points (team barriers, region
// entry, collectives, chunk claiming, reduction partials, mem::acquire);
// each is a single relaxed atomic load when no fault session is installed,
// so the healthy paths the paper measures stay unperturbed.
//
// A ScopedFaultSession installs a FaultPlan (compiled FaultOptions) into the
// process-wide Injector.  Specs fire only while a driver-declared time step
// is current (StepRunner::step sets it; -1 between steps), so setup and
// verification phases never inject.  Firing is deterministic per spec: each
// spec counts its own matching hook crossings and fires when the count
// reaches the spec's seed (once by default, at every later crossing too
// under :persist).
//
// Layering: this translation unit depends only on obs and the standard
// library.  The par runtime links against it and calls the hooks; retry.hpp
// (header-only) builds the checkpoint/retry/degradation story on top of par
// and the durable ckpt library.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fault/options.hpp"
#include "obs/obs.hpp"

namespace npb::fault {

/// Thrown by a firing Throw/AllocFail-adjacent hook.  Derived from
/// std::runtime_error so the team's worker loop treats it like any other
/// region-body failure: abort the barrier, rethrow on the master.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what) : std::runtime_error(what) {}
};

class Injector {
 public:
  /// The process's injector: every hook, the retry machinery and the
  /// barrier watchdog route through it.
  static Injector& instance() noexcept;

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// True while a session with at least one spec is installed — the hot-path
  /// gate every hook checks first (one relaxed load).
  bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Installs/clears the session plan.  Master-only, between team regions.
  void install(const std::vector<FaultSpec>& specs);
  void clear();

  /// Current time step gate; kAnyStep-style -1 disarms (no spec matches
  /// between steps).  Set by StepRunner around each step body.
  void set_step(long step) noexcept {
    step_.store(step, std::memory_order_release);
  }
  long step() const noexcept { return step_.load(std::memory_order_acquire); }

  /// Throw/Delay hook.  Called by the runtime at `site` on `rank`; throws
  /// InjectedFault or sleeps when a matching spec fires.
  void on_site(Site site, int rank) {
    if (!armed()) return;
    on_site_slow(site, rank);
  }

  /// NaN-poison hook for reduction partials: returns `value`, or NaN when a
  /// matching Site::Reduce spec fires on `rank`.
  double poison(int rank, double value) {
    if (!armed()) return value;
    return poison_slow(rank, value);
  }

  /// Alloc-fail hook: true when a matching Site::Alloc spec fires for the
  /// calling thread (mem::acquire then reports bad_alloc).
  bool should_fail_alloc() {
    if (!armed()) return false;
    return alloc_slow();
  }

  /// Corrupt hook: true when a matching Kind::Corrupt spec fires at `site`
  /// (Ckpt for the durable flush, Proc for an shm frame) on `rank` — the
  /// caller then flips one bit in its about-to-be-committed bytes and the
  /// integrity layer must detect it.
  bool should_corrupt(Site site, int rank) {
    if (!armed()) return false;
    return corrupt_slow(site, rank);
  }

  /// Ranks blamed for injected/watchdog-detected failures since the last
  /// clear_failed() — the degradation step's shrink count.
  void note_failed(int rank) noexcept;
  int failed_ranks() const noexcept;
  void clear_failed() noexcept;

  /// Retry policy of the installed session (StepRunner reads it here so
  /// kernel signatures stay untouched).
  int max_retries() const noexcept { return max_retries_; }
  int backoff_ms() const noexcept { return backoff_ms_; }
  bool allow_degraded() const noexcept { return allow_degraded_; }
  void set_retry_policy(int max_retries, int backoff_ms,
                        bool allow_degraded) noexcept;

  /// Total faults this injector has fired since install (tests; the obs
  /// fault/injected counter carries the same number per run).
  std::uint64_t injected() const noexcept {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  Injector() = default;

  struct CompiledSpec {
    FaultSpec spec;
    std::atomic<unsigned long> occurrence{0};
    std::atomic<bool> fired{false};

    explicit CompiledSpec(const FaultSpec& s) : spec(s) {}
  };

  bool matches(const CompiledSpec& cs, Site site, int rank) const noexcept;
  /// Counts one crossing of a matching spec; true when it should fire now.
  bool crossed(CompiledSpec& cs) noexcept;
  void record_injected(int rank) noexcept;

  void on_site_slow(Site site, int rank);
  double poison_slow(int rank, double value);
  bool alloc_slow();
  bool corrupt_slow(Site site, int rank);

  std::atomic<bool> armed_{false};
  std::atomic<long> step_{-1};
  std::atomic<std::uint32_t> failed_mask_{0};
  std::atomic<std::uint64_t> injected_{0};
  /// Stable while armed: install/clear happen between team regions only.
  std::vector<CompiledSpec*> specs_;
  int max_retries_ = 3;
  int backoff_ms_ = 1;
  bool allow_degraded_ = true;
};

/// Installs a fault plan for the current scope (a benchmark run): specs,
/// step gate cleared, failed-rank mask cleared, retry policy published.
/// Restores the empty plan on destruction.  An empty FaultOptions installs
/// nothing, so healthy runs never even construct injector state.
class ScopedFaultSession {
 public:
  explicit ScopedFaultSession(const FaultOptions& opts)
      : inj_(Injector::instance()), armed_(opts.armed()) {
    inj_.set_retry_policy(opts.max_retries, opts.backoff_ms,
                          opts.allow_degraded);
    if (armed_) inj_.install(opts.specs);
  }
  ~ScopedFaultSession() {
    if (armed_) inj_.clear();
  }

  ScopedFaultSession(const ScopedFaultSession&) = delete;
  ScopedFaultSession& operator=(const ScopedFaultSession&) = delete;

 private:
  Injector& inj_;
  const bool armed_;
};

/// Free-function hook forms, so call sites stay one short line.
inline void on_site(Site site, int rank) {
  Injector::instance().on_site(site, rank);
}
inline double poison(int rank, double value) {
  return Injector::instance().poison(rank, value);
}
inline bool should_fail_alloc() {
  return Injector::instance().should_fail_alloc();
}
inline bool should_corrupt(Site site, int rank) {
  return Injector::instance().should_corrupt(site, rank);
}

}  // namespace npb::fault
