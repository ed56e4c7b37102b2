#pragma once

// Per-thread run-context slots, inherited across WorkerTeam dispatches.
//
// Two pieces of run state are per thread rather than process-wide: the mem
// allocation context (arena, placement options, first-touch team) and the
// durable checkpoint session.  In-process msg ranks are concurrent masters,
// each running its own driver with contexts of its own; and team workers
// allocate per-rank scratch under their master's mem context.  The slots
// below are the hand-off point: every thread carries an opaque pointer to
// each context that governs it, and WorkerTeam::dispatch() snapshots the
// master's slots and installs them in each worker for the span of the
// region (the master is parked in the join for that whole span, so the
// pointed-to state is stable).  A thread that never had anything installed
// carries null slots, which every consumer treats as "the default".
//
// This header sits in common (the lowest layer) on purpose: par must read
// the slots at dispatch, mem and ckpt must publish into them, and mem
// already links against par — routing the hand-off through an opaque struct
// here keeps the library graph acyclic.

namespace npb::threadctx {

/// One thread's inherited context.  Pointees are owned elsewhere (a scoped
/// install on the publishing thread) and are interpreted only by the layer
/// that published them.
struct Slots {
  const void* mem_context = nullptr;  ///< npb::mem::detail::Context
  /// npb::ckpt::Session: the run's checkpoint file, whose options the
  /// driver's fault::StepRunner reads to make every checkpoint decision.
  void* ckpt_session = nullptr;
};

namespace detail {
inline thread_local Slots t_slots;
}  // namespace detail

/// This thread's current slots (null members = defaults).
inline Slots current() noexcept { return detail::t_slots; }

/// Replaces this thread's slots; returns the previous value so scoped
/// installers (and the worker job loop) can restore it.
inline Slots exchange(const Slots& next) noexcept {
  const Slots prev = detail::t_slots;
  detail::t_slots = next;
  return prev;
}

}  // namespace npb::threadctx
