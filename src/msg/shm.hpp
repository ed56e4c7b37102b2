#pragma once

// Process-sharded transport for hybrid --mode=msg runs.  run_shm() forks one
// worker process per rank; tagged send/recv travels over lock-free SPSC byte
// rings in an anonymous MAP_SHARED segment mapped before the forks, and each
// worker ships its payload and obs snapshot back up a private result pipe.
// The parent supervises: it reaps exits, watches per-rank heartbeats, and
// converts a crashed or silent worker into a `lost_ranks` entry instead of a
// hang — the raw material for the shard layer's degrade-and-retry loop
// (msg/shard.hpp).  Every message is CRC32C framed, header and payload; a
// receiver that sees a mismatch aborts the run with the *sender* blamed in
// `crc_blamed`, so corrupt bytes can cost a retry but never verify.
//
// A waiter (empty ring, full ring, barrier) first spins a bounded number of
// `pause` iterations, tens of µs, so a peer that answers promptly costs no
// kernel round trip; only then does it park.  Parking uses raw
// FUTEX_WAIT/FUTEX_WAKE *without* FUTEX_PRIVATE_FLAG — libstdc++'s atomic
// wait uses private futexes, which never cross a process boundary.
// Non-Linux builds fall back to a short sleep poll.  Every park carries a
// ~50 ms timeout and rechecks the segment's abort flag, so a worker whose
// peer died unreported can never park forever.

#include <functional>
#include <string>
#include <vector>

#include "fault/options.hpp"
#include "msg/communicator.hpp"
#include "msg/options.hpp"
#include "obs/obs.hpp"

namespace npb::msg {

/// Capacity of one directed ring in bytes.  Power of two (the free-running
/// 32-bit head/tail indices require 2^32 % capacity == 0); messages larger
/// than the ring stream through it in chunks, so this caps memory, not
/// message size.
inline constexpr std::size_t kShmRingBytes = std::size_t{1} << 18;

/// One rank's work: runs against its Communicator and returns the shard's
/// result payload (by convention payload[0] is the rank's timed seconds;
/// rank 0 appends the benchmark checksums).
using ShardBody = std::function<std::vector<double>(Communicator&)>;

struct ShmRunOutcome {
  /// Indexed by rank; a rank that died before reporting leaves an empty
  /// element (only possible alongside a lost_ranks entry or an error).
  std::vector<std::vector<double>> payloads;
  /// Per-rank obs snapshots shipped over the result pipes, rank order.
  std::vector<obs::ShardSnapshot> shards;
  /// Ranks whose worker process died or went heartbeat-silent mid-run.
  std::vector<int> lost_ranks;
  /// Sender ranks a receiver's frame-CRC verification blamed for corrupt
  /// bytes on the wire (every send is CRC32C framed; a mismatch aborts the
  /// run and lands the *sender* here, never a silently wrong payload).
  std::vector<int> crc_blamed;
  /// First error a worker reported cleanly (its body threw), if any.
  std::string error;

  bool ok() const noexcept {
    return lost_ranks.empty() && crc_blamed.empty() && error.empty();
  }
};

/// Forks `nprocs` workers, runs `body` on each over the shm transport, and
/// supervises them to completion.  `fault` is installed inside each worker
/// (a fresh process, so occurrence counters start at zero) and its
/// watchdog_ms doubles as the parent's heartbeat staleness bound (0 = no
/// heartbeat watchdog; worker *death* is always detected via waitpid).
/// Never hangs and never throws for a worker failure — crashes land in
/// lost_ranks, clean worker errors in error.  Throws std::invalid_argument
/// for nprocs outside [1, kMaxShmProcs] and std::runtime_error for
/// fork/mmap-level failures.
ShmRunOutcome run_shm(int nprocs, const fault::FaultOptions& fault,
                      const ShardBody& body);

}  // namespace npb::msg
