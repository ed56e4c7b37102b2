#pragma once

// The hybrid run driver: one entry point that runs a ShardBody across
// cfg.msg.procs ranks over whichever transport the config names.  InProc
// runs the ranks as threads of this process (the original World); Shm forks
// worker processes via run_shm and adds the recovery story — lost shards
// are blamed in obs (fault/lost_shard), and when degradation is allowed the
// run retries at the next viable width until it completes or no width is
// viable.

#include <functional>
#include <memory>
#include <vector>

#include "npb/run.hpp"
#include "msg/shm.hpp"
#include "par/team.hpp"

namespace npb::msg {

struct HybridOutcome {
  /// Width the run finally completed at (== cfg.msg.procs unless degraded).
  int procs = 0;
  /// Shards lost across all attempts (0 for a healthy run).
  int lost_shards = 0;
  /// Per-rank result payloads of the completing attempt, rank order.
  std::vector<std::vector<double>> payloads;
  /// Per-process obs snapshots (shm transport only; empty for inproc).
  std::vector<obs::ShardSnapshot> shards;
};

/// Runs `body` on cfg.msg.procs ranks over cfg.msg.transport.  `width_ok`
/// says which rank counts the benchmark supports (FT needs divisors of its
/// grid; most accept anything >= 1) — checked up front for the requested
/// width (std::invalid_argument) and steered around while degrading.
///
/// Shm recovery: every rank that dies or goes heartbeat-silent is recorded
/// under obs fault/lost_shard (1 in the lost rank's slot) and noted failed;
/// the run then re-forks at the next viable width below `width - lost`
/// (fault/degraded_width records it), or throws
/// std::runtime_error when cfg.fault.allow_degraded is off or no viable
/// width remains.  A clean worker error (its body threw) is rethrown as
/// std::runtime_error instead of degrading — the code is wrong, not the
/// process.
HybridOutcome run_hybrid(const RunConfig& cfg,
                         const std::function<bool(int)>& width_ok,
                         const ShardBody& body);

/// The per-shard team of a hybrid run: cfg.threads workers under the run's
/// barrier, schedule and fused options, built only for cfg.threads >= 2.
/// For T <= 1 it returns null and the shard computes on its own process
/// thread through the driver's T=0 path, which every msg driver keeps
/// bit-identical to a 1-wide team — the way an MPI rank with one OpenMP
/// thread runs, without a condvar handoff per loop.  Call it inside the
/// ShardBody: a team's threads cannot cross fork().
std::unique_ptr<WorkerTeam> make_shard_team(const RunConfig& cfg);

}  // namespace npb::msg
