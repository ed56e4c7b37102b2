#pragma once

// Run-validity guard: decides whether one benchmark call may enter the
// timings.  A call counts only when the program verified its answer against
// a frozen reference, ran the configuration its workload names, needed no
// recovery (no step retry, no degraded team width, no lost shard), and --
// on checkpointing workloads -- left a final checkpoint that decodes, in
// readback mode, to the kernel's last time step.  Every other call counts
// against verified_frac and is left out of the medians.

#include <cstdint>
#include <string>
#include <string_view>

#include "ckpt/ckpt.hpp"
#include "npb/run.hpp"

namespace perfbench {

/// The configuration a workload names, as the guard checks it.
struct Expected {
  npb::ProblemClass cls = npb::ProblemClass::S;
  npb::Mode mode = npb::Mode::Native;
  int threads = 0;
  /// Shard count of a --mode=msg run; 0 for the shared-memory modes.
  int procs = 0;
  /// When true the run must have left a final checkpoint (see Evidence).
  bool ckpt = false;
};

/// Recovery activity over one call, read from obs counters.
struct Recovery {
  std::uint64_t retries = 0;
  std::uint64_t degraded = 0;
  std::uint64_t lost_shards = 0;

  friend Recovery operator-(const Recovery& a, const Recovery& b) {
    return {a.retries - b.retries, a.degraded - b.degraded,
            a.lost_shards - b.lost_shards};
  }
};

/// Recovery counters of a snapshot, plus those of the forked shards a
/// hybrid shm run shipped back.
Recovery recovery_of(const npb::obs::Snapshot& snap);
Recovery recovery_of(const npb::RunResult& r);

/// What the guard reads besides the RunResult.
struct Evidence {
  Recovery recovery;
  /// Checkpoint file the run's session saved to (Expected::ckpt only).
  std::string ckpt_path;
  /// Identity the checkpoint must decode under.
  npb::ckpt::Meta ckpt_meta;
  /// Step the final checkpoint must record.
  long last_step = 0;
};

/// Empty when the call counts; otherwise why it does not.
std::string reject_reason(const npb::RunResult& r, const Expected& want,
                          const Evidence& ev);

/// The final step a kernel's StepRunner completes at `cls`: BT, SP and LU
/// number their steps from 0, the others from 1, and EP is one step.
long last_step(std::string_view kernel, npb::ProblemClass cls);

}  // namespace perfbench
