#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <nmmintrin.h>
#define NPB_CRC32C_SSE42 1
#endif

namespace npb::crc {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

struct Tables {
  // table[k][b]: the CRC contribution of byte value b at lane k of an
  // 8-byte slice (slicing-by-8).
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  constexpr Tables() {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t c = b;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) != 0 ? (c >> 1) ^ kPoly : c >> 1;
      t[0][b] = c;
    }
    for (std::uint32_t b = 0; b < 256; ++b)
      for (std::size_t k = 1; k < 8; ++k)
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
  }
};

constexpr Tables kTables{};

#if NPB_CRC32C_SSE42

/// The SSE4.2 `crc32` instruction computes exactly this CRC (Castagnoli,
/// reflected), 8 bytes per instruction.  Compiled for SSE4.2 whatever the
/// build's baseline ISA; called only after the CPU probe below says yes.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const unsigned char* p, std::size_t len, std::uint32_t seed) noexcept {
  std::uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    crc = _mm_crc32_u64(crc, v);
  }
  auto c = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++p, --len) c = _mm_crc32_u8(c, *p);
  return ~c;
}

bool cpu_has_sse42() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & bit_SSE4_2) != 0;
}

#endif

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(const void* data, std::size_t len,
                              std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  const auto& t = kTables.t;
  while (len >= 8) {
    // Fold the current CRC into the first 4 bytes, then slice all 8.
    const std::uint32_t lo =
        crc ^ (static_cast<std::uint32_t>(p[0]) |
               static_cast<std::uint32_t>(p[1]) << 8 |
               static_cast<std::uint32_t>(p[2]) << 16 |
               static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  return ~crc;
}

bool crc32c_hardware() noexcept {
#if NPB_CRC32C_SSE42
  // Probed once, on first use: a function-local static is initialised on
  // demand, so callers running during static initialisation see it ready.
  static const bool has = cpu_has_sse42();
  return has;
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t seed) noexcept {
#if NPB_CRC32C_SSE42
  if (detail::crc32c_hardware())
    return crc32c_sse42(static_cast<const unsigned char*>(data), len, seed);
#endif
  return detail::crc32c_portable(data, len, seed);
}

}  // namespace npb::crc
