#pragma once

// Step-level checkpoint/retry — the recovery half of the fault subsystem.
// Every NPB driver advances through discrete time steps whose only mutable
// state is a handful of arrays (CG: x; MG: u and r at the finest level;
// BT/SP/LU: the solution field u); everything else is either immutable after
// setup or recomputed from scratch each step.  That makes a step the natural
// retry unit:
//
//   fault::Checkpoint ckpt;
//   ckpt.add(x.data(), x.size() * sizeof(double));
//   fault::StepRunner steps(team, topts, ckpt);
//   for (int it = 1; it <= niter; ++it)
//     steps.step(it, [&](WorkerTeam& tm, int nt) { ...one time step... });
//
// step() is a straight pass-through when no fault session is armed (no save,
// no gating, no extra branches in the hot loop beyond one relaxed load).
// Under an armed session it snapshots the registered spans, opens the
// injection window (Injector::set_step), runs the body, and on failure —
// InjectedFault, RegionAborted (a watchdog escalation), or bad_alloc —
// restores the snapshot and retries with linear backoff, up to the session's
// --max-retries.  Shadow buffers come from mem::acquire once and are reused,
// and the arenas' shape-reuse pooling means a restored step re-acquires its
// scratch from the pool, so retries are allocation-free after the first
// attempt.
//
// The same registered spans double as the durable checkpoint's payload:
// when a ckpt::ScopedCkptSession is installed (--ckpt-dir/--resume),
// StepRunner flushes them to disk every --ckpt-every steps through the
// session (CRC32C-framed, fsynced, atomically renamed), skips steps a
// resumed checkpoint already covers, and honours SIGINT/SIGTERM and the
// session's halt-after-step knob by taking a final flush and throwing
// ckpt::Interrupted.
//
// When one width keeps failing (a :persist spec pinned to a rank — the model
// of a deterministically bad CPU), StepRunner degrades: it shrinks the team
// by the number of blamed ranks (Injector::failed_ranks, fed by injection
// sites and the watchdog), builds a fresh WorkerTeam at the smaller width
// with the same TeamOptions, and re-runs the step there.  Bodies receive
// (team, nt) precisely so they can re-partition per attempt.  Results after
// degradation are still *valid* (NPB verification passes) but not
// bit-identical to the original width — partition-dependent reduction orders
// change — which is why the differential tests pin transient faults to a
// fixed width and check degradation against the verification tolerance only.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "common/crc32c.hpp"
#include "fault/fault.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "par/team.hpp"

namespace npb::fault {

/// Retries and (when allowed) width degradation both failed to complete a
/// step — or recovery state itself failed integrity checks.  npbrun maps
/// this to the unrecoverable exit code.
class RecoveryExhausted : public std::runtime_error {
 public:
  explicit RecoveryExhausted(const std::string& what)
      : std::runtime_error(what) {}
};

/// The set of memory spans that make up one step's restartable state.
/// Register each mutable array once before the step loop; save()/restore()
/// memcpy them against lazily-acquired shadow buffers.  Registration order is
/// restoration order.  Spans must outlive the Checkpoint; the shadows are
/// released in the destructor (so a Checkpoint must not outlive the arena its
/// shadows were acquired from — in practice it is a stack local of the same
/// scope that owns the arrays).
class Checkpoint {
 public:
  Checkpoint() = default;
  ~Checkpoint() {
    for (Span& s : spans_) mem::release(s.shadow);
  }

  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  /// Registers `bytes` of mutable state at `p`.  No-op span when empty.
  void add(void* p, std::size_t bytes) {
    if (p == nullptr || bytes == 0) return;
    spans_.push_back(Span{p, bytes, {}});
  }

  std::size_t spans() const noexcept { return spans_.size(); }
  std::size_t bytes() const noexcept {
    std::size_t total = 0;
    for (const Span& s : spans_) total += s.bytes;
    return total;
  }

  /// The spans as read-only views in registration order — exactly what a
  /// durable ckpt::Session::flush serializes.
  std::vector<ckpt::SpanView> views() const {
    std::vector<ckpt::SpanView> v;
    v.reserve(spans_.size());
    for (const Span& s : spans_) v.push_back(ckpt::SpanView{s.p, s.bytes});
    return v;
  }

  /// The spans as writable views — the restore targets of --resume.
  std::vector<ckpt::MutSpanView> mut_views() const {
    std::vector<ckpt::MutSpanView> v;
    v.reserve(spans_.size());
    for (const Span& s : spans_) v.push_back(ckpt::MutSpanView{s.p, s.bytes});
    return v;
  }

  /// Copies every span into its shadow (acquiring shadows on first use) and
  /// stamps a CRC32C over the snapshot, so a later restore() can prove the
  /// shadow was not corrupted in the meantime.
  void save() {
    for (Span& s : spans_) {
      if (s.shadow.p == nullptr) s.shadow = mem::acquire(s.bytes, 64);
      std::memcpy(s.shadow.p, s.p, s.bytes);
      s.crc = crc::crc32c(s.shadow.p, s.bytes);
    }
  }

  /// Copies every shadow back over its span.  save() must have run first.
  /// Each shadow is CRC-verified before the copy: rolling corrupted state
  /// back would *become* the silent wrongness this subsystem exists to
  /// prevent, so a mismatch is unrecoverable by construction.
  void restore() {
    for (Span& s : spans_) {
      if (s.shadow.p == nullptr) continue;
      if (crc::crc32c(s.shadow.p, s.bytes) != s.crc) {
        obs::ObsRegistry::instance().record(obs::counter_id("ckpt/crc_fail"),
                                            -1, 1.0);
        throw RecoveryExhausted(
            "carried-state shadow failed CRC verification; refusing to "
            "restore corrupted checkpoint state");
      }
      std::memcpy(s.p, s.shadow.p, s.bytes);
    }
  }

 private:
  struct Span {
    void* p;
    std::size_t bytes;
    mem::Allocation shadow;
    std::uint32_t crc = 0;
  };
  std::vector<Span> spans_;
};

/// Runs time steps with checkpoint/retry/degradation under an armed fault
/// session, and as a zero-copy pass-through otherwise.  One StepRunner per
/// benchmark run; bodies are `body(WorkerTeam& tm, int nt)` and must derive
/// every partition from (tm, nt) rather than the original thread count, so a
/// degraded re-run re-partitions cleanly.
class StepRunner {
 public:
  /// `team` is the full-width team; `topts` are its options (reused verbatim
  /// for degraded teams, watchdog included); `ckpt` holds the step state.
  /// A durable ckpt::Session installed on the constructing thread (see
  /// ScopedCkptSession in the benchmark wrappers) is picked up here and
  /// drives --resume restoration and --ckpt-every flushes transparently.
  StepRunner(WorkerTeam& team, const TeamOptions& topts, Checkpoint& ckpt)
      : base_(team),
        topts_(topts),
        ckpt_(ckpt),
        width_(team.size()),
        session_(ckpt::current()) {}

  /// Current team width (shrinks on degradation; floor 1).
  int width() const noexcept { return width_; }

  /// The team steps currently run on: the base team, or the degraded
  /// replacement after a shrink.
  WorkerTeam& team() noexcept { return degraded_ ? *degraded_ : base_; }

  /// True once at least one degradation happened.
  bool degraded() const noexcept { return degraded_ != nullptr; }

  template <class Body>
  void step(long step_no, Body&& body) {
    step(step_no, std::forward<Body>(body), [] { return true; });
  }

  /// Runs one step.  `healthy()` is evaluated after a body that returned
  /// normally; returning false (e.g. a NaN in the step's residual — the
  /// nan-poison signature) counts as a failure and triggers the same
  /// restore/retry path as a thrown fault.
  template <class Body, class Healthy>
  void step(long step_no, Body&& body, Healthy&& healthy) {
    Injector& inj = current();
    // Fast path: no save, no gating.  A running watchdog keeps the retry
    // machinery engaged even without injection specs, so a genuinely hung
    // rank (the watchdog's real-world case) still gets restore-and-retry
    // instead of propagating RegionAborted out of the run.  A durable
    // checkpoint session always takes the slow path, for the resume gate,
    // the cadence flush, and the retry after a failed flush (which restores
    // the shadow snapshot).  The flush itself writes the live spans.
    if (session_ == nullptr && !inj.armed() && topts_.watchdog_ms <= 0) {
      body(team(), width_);
      if (ckpt::interrupt_requested()) throw ckpt::Interrupted(step_no);
      return;
    }
    // Resume restoration is lazy — done at the first step() call, after the
    // driver's setup has shaped every registered span — and idempotent via
    // resume_pending().  Steps the checkpoint already covers are skipped
    // outright; the restored arrays carry their full effect.
    if (session_ != nullptr && session_->resume_pending())
      resume_step_ = session_->consume_resume(ckpt_.mut_views());
    if (step_no <= resume_step_) return;
    ckpt_.save();
    int attempts = 0;
    for (;;) {
      inj.set_step(step_no);
      bool failed = false;
      try {
        body(team(), width_);
        failed = !healthy();
        if (!failed && session_ != nullptr && session_->should_flush(step_no)) {
          // Still inside the injection window: a ckpt:corrupt spec decides
          // here whether this flush commits a bit-flipped payload.  flush()
          // readback-verifies before rename, so a corrupted flush is
          // detected (false), blamed in obs, and retried like any fault —
          // while the previous durable checkpoint stays intact.
          const bool corrupt = inj.should_corrupt(Site::Ckpt, 0);
          failed = !session_->flush(step_no, ckpt_.views(), corrupt);
        }
      } catch (const RegionAborted&) {
        failed = true;  // watchdog escalation: the region unwound cleanly
      } catch (const InjectedFault&) {
        failed = true;
      } catch (const std::bad_alloc&) {
        failed = true;  // alloc-fail site, or genuine exhaustion
      }
      inj.set_step(-1);  // close the injection window before any recovery
      if (!failed) {
        inj.clear_failed();  // survived blame (e.g. washed-out poison)
        finish_step(step_no);  // may throw Interrupted after a final flush
        return;
      }
      ++attempts;
      obs::ObsRegistry::instance().record(obs::counter_id("fault/retries"), -1,
                                          1.0);
      ckpt_.restore();
      if (attempts <= inj.max_retries()) {
        if (inj.backoff_ms() > 0)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(inj.backoff_ms() * attempts));
        continue;
      }
      degrade(step_no);  // throws when degradation is off or exhausted
      attempts = 0;
    }
  }

 private:
  /// A step just completed (and its cadenced flush, if any, committed).
  /// Stop here — with a final off-cadence durable flush so nothing done is
  /// lost — when a SIGINT/SIGTERM arrived or the session's halt_after_step
  /// (the crash-test knob) is reached.
  void finish_step(long step_no) {
    const bool halted = session_ != nullptr &&
                        session_->halt_after_step() != ckpt::kNoStep &&
                        step_no >= session_->halt_after_step();
    if (!halted && !ckpt::interrupt_requested()) return;
    if (session_ != nullptr && session_->can_save() &&
        !session_->should_flush(step_no))
      session_->flush(step_no, ckpt_.views(), false);
    throw ckpt::Interrupted(step_no);
  }

  /// Retries at this width are exhausted: shrink by the blamed-rank count
  /// (every injection site and the watchdog call note_failed) and retry at
  /// the smaller width.  Unattributed failures shrink by one.
  void degrade(long step_no) {
    Injector& inj = current();
    if (!inj.allow_degraded() || width_ <= 1)
      throw RecoveryExhausted(
          "fault recovery exhausted at step " + std::to_string(step_no) +
          ": " + std::to_string(inj.max_retries()) + " retries at width " +
          std::to_string(width_) +
          (inj.allow_degraded() ? "" : " (degradation disabled)"));
    const int failed = inj.failed_ranks();
    int nw = width_ - (failed > 0 ? failed : 1);
    if (nw < 1) nw = 1;
    degraded_ = std::make_unique<WorkerTeam>(nw, topts_);
    width_ = nw;
    inj.clear_failed();
    inj.note_degraded(nw);
    obs::ObsRegistry::instance().record(obs::counter_id("fault/degraded_width"),
                                        -1, static_cast<double>(nw));
  }

  WorkerTeam& base_;
  const TeamOptions topts_;
  Checkpoint& ckpt_;
  int width_;
  ckpt::Session* session_;        ///< durable session, or nullptr
  long resume_step_ = ckpt::kNoStep;  ///< steps <= this replay from disk
  std::unique_ptr<WorkerTeam> degraded_;
};

}  // namespace npb::fault
