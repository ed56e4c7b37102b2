#pragma once

// Durable checkpoint/restart options (src/ckpt).  Standalone header with no
// dependencies beyond the standard library, mirroring fault/options.hpp, so
// npb/run.hpp can embed CkptOptions without pulling the ckpt runtime in.
//
// fault::StepRunner reads these options and decides when to load, flush and
// stop; they never make it shadow-copy the carried state, and an empty
// CkptOptions costs the hot loop nothing.  Serial runs (threads == 0) never
// step a StepRunner, so the CLI rejects checkpoint flags there rather than
// silently no-opping.

#include <limits>
#include <string>

namespace npb::ckpt {

/// Sentinel for "no step": step numbering starts at 0 for BT/SP/LU and 1
/// everywhere else, so the only safe null is the far end of the range.
inline constexpr long kNoStep = std::numeric_limits<long>::min();

struct CkptOptions {
  /// Checkpoint directory; empty disables durable checkpointing.  One file
  /// per (benchmark, class): `<dir>/<benchmark>-<class>.ckpt`.
  std::string dir;
  /// Flush cadence: a durable checkpoint is committed after every N-th
  /// completed step (and always at the step an interrupt or
  /// halt_after_step stops the run).  Must be >= 1.
  int every = 1;
  /// Consume a checkpoint before the first step: validate header + CRC,
  /// restore the carried spans, and skip every step up to the recorded one.
  bool resume = false;
  /// Explicit file to resume from; empty derives the path from `dir`.
  std::string resume_path;
  /// Test knob (no CLI flag): after successfully completing and flushing
  /// this step, throw ckpt::Interrupted exactly as a SIGINT between steps
  /// would — the deterministic half of the kill-resume differential matrix.
  long halt_after_step = kNoStep;

  /// True when a checkpoint session should be installed at all.
  bool active() const noexcept { return !dir.empty() || !resume_path.empty(); }

  bool operator==(const CkptOptions&) const = default;
};

}  // namespace npb::ckpt
