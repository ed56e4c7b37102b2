#pragma once

// Fault-injection plan options (src/fault).  Standalone header with no
// dependencies beyond the standard library, mirroring mem/options.hpp, so
// RunConfig-level headers can embed FaultOptions without pulling the
// injector runtime in.
//
// A fault spec names one deterministic injection:
//
//   site:kind:step:rank:seed[:persist]
//
//   site   barrier | region | collective | queue | reduce | alloc | proc |
//          steal | ckpt | *   (a runtime choke point, see fault::Site)
//   kind   throw | delay(MS) | nan-poison | alloc-fail | kill | corrupt
//          (nan-poison requires site reduce; alloc-fail requires site alloc;
//          kill requires site proc — it SIGKILLs the calling process, so it
//          is tied to the only site crossed exclusively by the forked shm
//          worker processes of a hybrid run, never by an in-process rank;
//          corrupt requires site ckpt or proc — it flips one bit in the
//          durable checkpoint payload between serialization and commit, or
//          in an shm message frame between CRC stamping and the ring write,
//          and the integrity machinery must *detect* it, never verify it)
//   step   time-step number the spec is armed for, or * for any step.
//          Injection only ever happens inside a driver-declared step (see
//          fault::StepRunner); setup and verification phases never inject.
//   rank   team rank the spec targets, or * for any rank
//   seed   occurrence index (0-based) at which the spec fires: the seed-th
//          matching hook crossing injects.  Deterministic for a pinned rank,
//          because one rank's hook-crossing sequence is a pure function of
//          the program.
//   persist  optional: keep firing at every matching crossing >= seed
//            instead of exactly once — the knob that forces the retry loop
//            to give up and degrade the team width.
//
// Examples:
//   region:throw:3:2:0          rank 2 throws entering step 3's region
//   barrier:delay(80):*:1:2     rank 1 sleeps 80 ms at its 3rd barrier wait
//   reduce:nan-poison:5:0:0     rank 0's first reduction partial of step 5
//                               becomes NaN
//   alloc:alloc-fail:2:*:0      the first tracked allocation of step 2 fails
//   region:throw:4:2:0:persist  rank 2 throws entering step 4, every retry
//   proc:kill:*:2:0             shard 2's worker process SIGKILLs itself at
//                               its first proc-site crossing inside a step
//   ckpt:corrupt:*:0:0          the first durable checkpoint flush writes
//                               a bit-flipped payload; the readback CRC
//                               must reject it and the flush is rewritten
//   proc:corrupt:*:1:0          shard 1's first shm send of a step carries
//                               a bit-flipped payload; the receiver's frame
//                               CRC must blame rank 1

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace npb::fault {

/// Runtime choke points the injector can fire at.  Mirrors where the hooks
/// are compiled in: WorkerTeam::barrier() (Barrier), region-body entry in
/// worker dispatch (Region), ParallelRegion collectives (Collective), chunk
/// claiming loops (Queue), reduction partials (Reduce — the nan-poison
/// site), mem::acquire (Alloc), the shm transport's send/barrier paths
/// (Proc — crossed only inside forked hybrid worker processes, the Kill
/// site), the task runtime's steal attempts (Steal — every
/// pop-empty/steal crossing of a work-stealing scope; throws from inside a
/// fork2 join are deferred past the join so no stolen frame unwinds early,
/// and the barrier watchdog still covers a scope whose thieves are stuck),
/// and the durable checkpoint flush (Ckpt — crossed once per StepRunner
/// flush attempt, the Corrupt kind's in-process choke point).
enum class Site { Barrier, Region, Collective, Queue, Reduce, Alloc, Proc, Steal, Ckpt };

enum class Kind { Throw, Delay, NanPoison, AllocFail, Kill, Corrupt };

inline constexpr int kAnyRank = -2;
inline constexpr long kAnyStep = -2;

struct FaultSpec {
  Site site = Site::Region;
  bool any_site = false;
  Kind kind = Kind::Throw;
  long step = kAnyStep;   ///< kAnyStep = any step
  int rank = kAnyRank;    ///< kAnyRank = any rank
  unsigned long seed = 0; ///< 0-based matching-occurrence index that fires
  long delay_ms = 0;      ///< Kind::Delay only
  bool persist = false;   ///< keep firing at every occurrence >= seed

  bool operator==(const FaultSpec&) const = default;
};

struct FaultOptions {
  std::vector<FaultSpec> specs;
  /// Watchdog timeout for team barriers in milliseconds; 0 disables the
  /// watchdog thread entirely.  Must exceed the longest healthy time step.
  long watchdog_ms = 0;
  /// Retries of one time step (restore checkpoint, re-run) before the
  /// runner degrades the team width.
  int max_retries = 3;
  /// Base backoff between retries; attempt k sleeps k*backoff_ms.
  int backoff_ms = 1;
  /// Allow shrinking the team by the failed-rank count after retries are
  /// exhausted; when false, exhaustion rethrows to the caller.
  bool allow_degraded = true;

  bool armed() const noexcept { return !specs.empty(); }

  bool operator==(const FaultOptions&) const = default;
};

const char* to_string(Site s) noexcept;
const char* to_string(Kind k) noexcept;
std::string to_string(const FaultSpec& spec);

/// Parses one `site:kind:step:rank:seed[:persist]` spec; nullopt on any
/// malformed field (unknown site/kind, non-numeric step/rank/seed, a
/// nan-poison away from the reduce site, an alloc-fail away from alloc, a
/// kill away from proc, a corrupt away from ckpt/proc, or a ckpt site with
/// any kind but corrupt).
std::optional<FaultSpec> parse_fault_spec(std::string_view spec);

}  // namespace npb::fault
