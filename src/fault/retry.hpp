#pragma once

// Step state, retry and durable checkpoints: the recovery half of the fault
// subsystem.  Every NPB driver advances through discrete time steps whose
// only mutable state is a handful of arrays (CG: x; MG: u and r at the
// finest level; BT/SP/LU: the solution field u); everything else is either
// immutable after setup or recomputed from scratch each step.  That makes a
// step the retry unit, and the StepRunner owns its state:
//
//   fault::StepRunner steps(team, topts);  // team may be null (serial)
//   steps.add(x.data(), x.size() * sizeof(double));
//   for (int it = 1; it <= niter; ++it)
//     steps.step(it, [&](WorkerTeam& tm, int nt) { ...one time step... });
//
// With no fault session armed, no watchdog and no durable session, step()
// runs the body and polls the interrupt flag, nothing more.  Only a step
// that can fail and be rolled back (an armed injector, or a watchdog) copies
// the spans into CRC32C-stamped shadows (from mem::acquire once, then
// reused), opens the injection window (Injector::set_step) and, on
// InjectedFault, RegionAborted (a watchdog escalation), bad_alloc or an
// unhealthy result, restores them and retries with linear backoff up to
// --max-retries.
//
// Under a ckpt::ScopedCkptSession (--ckpt-dir/--resume) the spans are the
// checkpoint payload; the session hides the file and the runner decides
// everything else.  It loads the --resume file once, at the first step
// (after setup has shaped every span), and skips the steps it covers.  One
// flush follows every --ckpt-every-th step and the step at which
// halt_after_step or a SIGINT/SIGTERM stops the run with ckpt::Interrupted.
// The flush runs inside the injection window, where a ckpt:corrupt spec
// decides whether the write is bit-flipped, and only reads the live spans;
// so a write whose readback fails needs no rollback and is rewritten from
// them, each attempt counted in fault/retries, up to --max-retries, then
// RecoveryExhausted.  A bad write never shrinks the team.
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

/// Runs time steps with retry/degradation under an armed fault session and
/// durable checkpoints under an installed ckpt session.  One StepRunner per
/// benchmark run, a stack local of the scope that owns the registered arrays
/// and their arena; bodies are `body(WorkerTeam& tm, int nt)` and must
/// derive every partition from (tm, nt) rather than the original thread
/// count, so a degraded re-run re-partitions cleanly.
class StepRunner {
 public:
  /// `team` is the full-width team, or null for a serial run (which may
  /// register spans but never steps); `topts` are its options (reused
  /// verbatim for degraded teams, watchdog included).  A durable
  /// ckpt::Session installed on the constructing thread is picked up here.
  StepRunner(WorkerTeam* team, const TeamOptions& topts)
      : base_(team),
        topts_(topts),
        width_(team != nullptr ? team->size() : 0),
        session_(ckpt::current()),
        durable_(session_ != nullptr ? session_->options()
                                     : ckpt::CkptOptions{}) {}

  ~StepRunner() {
    for (Shadow& s : shadows_) mem::release(s.copy);
  }

  StepRunner(const StepRunner&) = delete;
  StepRunner& operator=(const StepRunner&) = delete;

  /// Registers `bytes` of carried state at `p`, before the first step.
  /// Registration order is restore order and checkpoint-file order; a null
  /// or empty span is ignored.
  void add(void* p, std::size_t bytes) {
    if (p != nullptr && bytes > 0) spans_.push_back({p, bytes});
  }

  std::size_t spans() const noexcept { return spans_.size(); }
  std::size_t bytes() const noexcept {
    std::size_t total = 0;
    for (const ckpt::MutSpanView& s : spans_) total += s.bytes;
    return total;
  }

  /// Copies every span into its shadow (acquiring shadows on first use) and
  /// stamps a CRC32C over each copy, so restore() can prove the shadow was
  /// not corrupted in the meantime.  step() does this before a body that
  /// can fail.
  void save() {
    shadows_.resize(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Shadow& s = shadows_[i];
      if (s.copy.p == nullptr) s.copy = mem::acquire(spans_[i].bytes, 64);
      std::memcpy(s.copy.p, spans_[i].data, spans_[i].bytes);
      s.crc = crc::crc32c(s.copy.p, spans_[i].bytes);
    }
  }

  /// Copies every shadow back over its span; no-op before the first save().
  /// Each shadow is CRC-verified before the copy: rolling corrupted state
  /// back would *become* the silent wrongness this subsystem exists to
  /// prevent, so a mismatch is unrecoverable by construction.
  void restore() {
    for (std::size_t i = 0; i < shadows_.size(); ++i) {
      const Shadow& s = shadows_[i];
      if (crc::crc32c(s.copy.p, spans_[i].bytes) != s.crc) {
        obs::ObsRegistry::instance().record(obs::counter_id("ckpt/crc_fail"),
                                            -1, 1.0);
        throw RecoveryExhausted(
            "carried-state shadow failed CRC verification; refusing to "
            "restore corrupted checkpoint state");
      }
      std::memcpy(spans_[i].data, s.copy.p, spans_[i].bytes);
    }
  }

  /// Current team width (shrinks on degradation; floor 1).
  int width() const noexcept { return width_; }

  /// The team steps currently run on: the base team, or the degraded
  /// replacement after a shrink.
  WorkerTeam& team() noexcept { return degraded_ ? *degraded_ : *base_; }

  /// True once at least one degradation happened.
  bool degraded() const noexcept { return degraded_ != nullptr; }

  template <class Body>
  void step(long step_no, Body&& body) {
    step(step_no, std::forward<Body>(body), [] { return true; });
  }

  /// Runs one step.  `healthy()` is evaluated after a body that returned
  /// normally when the step can be rolled back; returning false (e.g. a NaN
  /// in the step's residual — the nan-poison signature) counts as a failure
  /// and triggers the same restore/retry path as a thrown fault.
  template <class Body, class Healthy>
  void step(long step_no, Body&& body, Healthy&& healthy) {
    Injector& inj = Injector::instance();
    // A running watchdog keeps the retry machinery engaged even without
    // injection specs, so a genuinely hung rank (the watchdog's real-world
    // case) still gets restore-and-retry instead of propagating
    // RegionAborted out of the run.
    const bool rollback = inj.armed() || topts_.watchdog_ms > 0;
    if (durable_.resume) {  // once, after setup has shaped every span
      durable_.resume = false;
      resume_step_ = session_->load(spans_);
    }
    if (step_no <= resume_step_) return;  // the restored spans carry it
    if (rollback)
      run_until_clean(step_no, body, healthy);
    else
      body(team(), width_);
    const long halt = durable_.halt_after_step;
    const long every = durable_.every;
    const bool stop = ckpt::interrupt_requested() ||
                      (halt != ckpt::kNoStep && step_no >= halt);
    if (!durable_.dir.empty() && (stop || (every > 0 && step_no % every == 0)))
      flush(step_no);
    if (rollback) inj.set_step(-1);  // close the injection window
    if (stop) throw ckpt::Interrupted(step_no);
  }

 private:
  struct Shadow {
    mem::Allocation copy;
    std::uint32_t crc = 0;
  };

  /// Runs the body from saved shadows until it completes healthy: restore
  /// and retry after a caught failure, degrade once the retries at this
  /// width are spent.  Returns with the injection window still open, so the
  /// step's flush runs inside it.
  template <class Body, class Healthy>
  void run_until_clean(long step_no, Body& body, Healthy& healthy) {
    Injector& inj = Injector::instance();
    save();
    int attempts = 0;
    for (;;) {
      inj.set_step(step_no);
      try {
        body(team(), width_);
        if (healthy()) {
          inj.clear_failed();  // survived blame (e.g. washed-out poison)
          return;
        }
      } catch (const RegionAborted&) {
        // watchdog escalation: the region unwound cleanly
      } catch (const InjectedFault&) {
      } catch (const std::bad_alloc&) {
        // alloc-fail site, or genuine exhaustion
      }
      inj.set_step(-1);  // close the injection window before any recovery
      ++attempts;
      obs::ObsRegistry::instance().record(obs::counter_id("fault/retries"), -1,
                                          1.0);
      restore();
      if (attempts <= inj.max_retries()) {
        back_off(attempts);
        continue;
      }
      degrade(step_no);  // throws when degradation is off or exhausted
      attempts = 0;
    }
  }

  /// Commits the live spans at `step_no`, rewriting them while the readback
  /// fails (the live spans are only read, so nothing needs restoring).
  void flush(long step_no) {
    Injector& inj = Injector::instance();
    for (int attempts = 1;; ++attempts) {
      // Still inside the injection window: a ckpt:corrupt spec decides here
      // whether this write commits a bit-flipped payload.
      const bool corrupt = inj.should_corrupt(Site::Ckpt, 0);
      if (session_->commit(step_no, spans_, corrupt)) return;
      obs::ObsRegistry::instance().record(obs::counter_id("fault/retries"), -1,
                                          1.0);
      if (attempts > inj.max_retries()) {
        inj.set_step(-1);
        throw RecoveryExhausted("checkpoint flush at step " +
                                std::to_string(step_no) + " failed readback " +
                                std::to_string(attempts) + " times");
      }
      back_off(attempts);
    }
  }

  /// Linear backoff: attempt k sleeps k * --backoff-ms.
  static void back_off(int attempts) {
    const int ms = Injector::instance().backoff_ms();
    if (ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(ms * attempts));
  }

  /// Retries at this width are exhausted: shrink by the blamed-rank count
  /// (every injection site and the watchdog call note_failed) and retry at
  /// the smaller width.  Unattributed failures shrink by one.
  void degrade(long step_no) {
    Injector& inj = Injector::instance();
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
    obs::ObsRegistry::instance().record(obs::counter_id("fault/degraded_width"),
                                        -1, static_cast<double>(nw));
  }

  WorkerTeam* base_;
  const TeamOptions topts_;
  int width_;
  std::vector<ckpt::MutSpanView> spans_;  ///< the carried state
  std::vector<Shadow> shadows_;           ///< one per span once saved
  ckpt::Session* session_;                ///< durable session, or nullptr
  ckpt::CkptOptions durable_;             ///< its options (resume cleared)
  long resume_step_ = ckpt::kNoStep;      ///< steps <= this replay from disk
  std::unique_ptr<WorkerTeam> degraded_;
};

}  // namespace npb::fault
