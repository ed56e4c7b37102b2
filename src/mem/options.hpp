#pragma once

// Memory-placement knobs for the benchmark allocation paths (src/mem).
// Standalone header with no dependencies so RunConfig-level headers can
// embed MemOptions without pulling the mem runtime in.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace npb::mem {

/// Who commits the pages of a freshly allocated buffer.
///
///   Serial      the master thread writes every element (the seed behaviour:
///               std::vector value-initialization), so under first-touch NUMA
///               policies every page lands on the master's node — the memory
///               story behind the paper's FT collapse under memory pressure
///               and the dual-CPU PC's flat speedup (section 5, tables 2-6).
///   FirstTouch  the worker team performs the initializing write, each rank
///               covering the same index slab the compute loops will hand it,
///               so pages fault in next to the rank that will read them —
///               the placement discipline the paper's CG warm-up trick was
///               groping toward.
enum class Placement { Serial, FirstTouch };

/// Transparent-huge-page region size the huge_pages hint is aligned to.
inline constexpr std::size_t kHugePageBytes = 2u << 20;

struct MemOptions {
  /// Buffer base alignment in bytes (power of two).  64 = one x86 cache
  /// line, so no array ever straddles or false-shares its first line.
  std::size_t alignment = 64;
  Placement placement = Placement::Serial;
  /// Align buffers to 2 MiB and madvise(MADV_HUGEPAGE) them, inviting the
  /// kernel to back the arrays with huge pages (fewer TLB misses on the
  /// big class A-C grids).  A hint only: ignored where unsupported.
  bool huge_pages = false;

  bool operator==(const MemOptions&) const = default;
};

const char* to_string(Placement p) noexcept;
std::string to_string(const MemOptions& o);

/// Parses an alignment spec: a power-of-two byte count with an optional
/// K/M suffix ("64", "4K", "2M").  nullopt on anything else.
std::optional<std::size_t> parse_alignment(std::string_view spec);

}  // namespace npb::mem
