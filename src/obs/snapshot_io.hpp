#pragma once

// Flat binary serialization of obs::Snapshot for the hybrid shm result
// plane: a forked worker snapshots its in-process registry and ships the
// bytes up the result pipe; the parent deserializes into a ShardSnapshot.
// Writer and reader are always the same binary (parent and its fork twin),
// so the format is versionless: each kCounters row in table order (value,
// count, then its per-rank slot vectors, each length-prefixed), then the
// user regions in the same shape behind their names.
// Compiles identically under NPB_OBS_DISABLED — Snapshot is always defined,
// a disabled build just ships all-zero snapshots.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/obs.hpp"

namespace npb::obs {

/// Caps every length field the reader accepts, so a hostile or corrupt
/// length cannot drive a huge resize.  Real snapshots are tiny (kMaxRegions
/// regions, kMaxRanks+1 slots, short names).
inline constexpr std::uint64_t kMaxLen = 1u << 20;

/// Appends `snap` to `out`.
void serialize_snapshot(const Snapshot& snap, std::vector<unsigned char>& out);

/// Reads one Snapshot from `bytes` starting at `at`; advances `at` past it.
/// Throws std::runtime_error on a truncated or malformed buffer (a worker
/// that died mid-write must surface as a lost shard, not garbage data).
Snapshot deserialize_snapshot(const std::vector<unsigned char>& bytes,
                              std::size_t& at);

}  // namespace npb::obs
