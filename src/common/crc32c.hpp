#pragma once

// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the integrity
// primitive under the durable checkpoint format (src/ckpt) and the shm
// transport's message frames (src/msg).  On x86-64 CPUs that report SSE4.2
// it runs on the `crc32` instruction (8 bytes per instruction); everywhere
// else it falls back to software slicing-by-8 (~1 B/cycle, no ISA
// assumptions).  Both paths compute the same values, so checkpoint files
// and shm frames are identical whichever one a build or a CPU takes.
//
// The incremental form composes: crc32c(b, crc32c(a)) == crc32c(a ++ b) with
// `seed` carrying the running value, so multi-span payloads (checkpoint
// spans, frame header + payload) checksum without concatenation.

#include <cstddef>
#include <cstdint>

namespace npb::crc {

/// One-shot or incremental CRC32C over `len` bytes at `data`.  Pass the
/// previous return value as `seed` to continue a running checksum; the
/// default seed 0 starts a fresh one.  Empty input returns the seed.
std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t seed = 0) noexcept;

namespace detail {
/// The portable slicing-by-8 path, whatever the CPU; exposed so tests can
/// hold the hardware path to it.
std::uint32_t crc32c_portable(const void* data, std::size_t len,
                              std::uint32_t seed = 0) noexcept;
/// True when crc32c() runs on the CPU's CRC32C instruction (probed once).
bool crc32c_hardware() noexcept;
}  // namespace detail

}  // namespace npb::crc
