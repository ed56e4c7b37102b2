#pragma once

// Hybrid message-passing run options (src/msg).  Standalone header with no
// dependencies beyond the standard library, mirroring mem/options.hpp and
// fault/options.hpp, so RunConfig can embed MsgOptions without pulling the
// transports or the fork launcher in.

#include <optional>
#include <string_view>

namespace npb::msg {

/// Which Transport carries the ranks of a --mode=msg run.
///  - InProc: ranks are threads of this process; channels are the mutex+
///    condvar mailboxes the msg layer has always used.  Behavior-preserving.
///  - Shm: ranks are forked worker processes; tagged send/recv travels over
///    lock-free SPSC byte rings in an anonymous shared-memory segment, with
///    futex-parked producers/consumers and a pipe-per-child result plane.
enum class TransportKind { InProc, Shm };

/// Shm worker-process cap: the segment holds procs^2 rings, so the CLI and
/// the fork launcher both bound P here (inproc worlds may be wider).
inline constexpr int kMaxShmProcs = 16;

struct MsgOptions {
  /// Rank-shard count P of a hybrid P-process x T-thread run (T rides in
  /// RunConfig::threads).  1 = a single shard, still through the transport.
  int procs = 1;
  TransportKind transport = TransportKind::InProc;

  bool operator==(const MsgOptions&) const = default;
};

inline const char* to_string(TransportKind k) noexcept {
  switch (k) {
    case TransportKind::InProc: return "inproc";
    case TransportKind::Shm: return "shm";
  }
  return "?";
}

/// Strict parse of a --transport= flag value; nullopt on anything unknown so
/// the CLI can reject with exit 2 instead of silently defaulting.
inline std::optional<TransportKind> parse_transport(std::string_view s) noexcept {
  if (s == "inproc") return TransportKind::InProc;
  if (s == "shm") return TransportKind::Shm;
  return std::nullopt;
}

}  // namespace npb::msg
