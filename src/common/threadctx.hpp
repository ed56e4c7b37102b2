#pragma once

// Per-thread job-context slots, inherited across WorkerTeam dispatches.
//
// The mem allocation context and the fault injector used to be process
// globals, installed by "the benchmark run" — correct while one benchmark
// ran at a time, and exactly wrong for the service scheduler, where many
// jobs run concurrently on pooled teams and each job's thread installs its
// *own* arena, placement options, and fault session.  The slots below are
// the hand-off point: every thread carries an opaque pointer to the mem
// context and fault injector that govern it, and WorkerTeam::dispatch()
// snapshots the master's slots and installs them in each worker for the span
// of the job (the master is parked in the join for that whole span, so the
// pointed-to state is stable).  A thread that never had anything installed
// carries null slots, which every consumer treats as "the process-wide
// default" — single-benchmark tools and tests behave exactly as before.
//
// This header sits in common (the lowest layer) on purpose: par must read
// the slots at dispatch, mem and fault must publish into them, and mem
// already links against par — routing the hand-off through an opaque struct
// here keeps the library graph acyclic.

namespace npb::threadctx {

/// One thread's inherited context.  Pointees are owned elsewhere (a scoped
/// install on the publishing thread) and are interpreted only by the layer
/// that published them.
struct Slots {
  const void* mem_context = nullptr;  ///< npb::mem::detail::Context
  void* fault_injector = nullptr;     ///< npb::fault::Injector
  /// npb::ckpt::Session: the run's checkpoint file, whose options the
  /// driver's fault::StepRunner reads to make every checkpoint decision.
  void* ckpt_session = nullptr;
};

namespace detail {
inline thread_local Slots t_slots;
}  // namespace detail

/// This thread's current slots (null members = process-wide defaults).
inline Slots current() noexcept { return detail::t_slots; }

/// Replaces this thread's slots; returns the previous value so scoped
/// installers (and the worker job loop) can restore it.
inline Slots exchange(const Slots& next) noexcept {
  const Slots prev = detail::t_slots;
  detail::t_slots = next;
  return prev;
}

}  // namespace npb::threadctx
