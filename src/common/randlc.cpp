#include "common/randlc.hpp"

#include <cstdint>

namespace npb {
namespace {

constexpr std::uint64_t kMask46 = (std::uint64_t{1} << 46) - 1;
constexpr double kR46 = 1.0 / static_cast<double>(std::uint64_t{1} << 46);

// x * a mod 2^46: the product wraps mod 2^64, whose low 46 bits are the
// product mod 2^46 because 2^46 divides 2^64.
constexpr std::uint64_t mul46(std::uint64_t x, std::uint64_t a) noexcept {
  return (x * a) & kMask46;
}

}  // namespace

double randlc(double& x, double a) noexcept {
  x = static_cast<double>(
      mul46(static_cast<std::uint64_t>(x), static_cast<std::uint64_t>(a)));
  return kR46 * x;
}

void vranlc(std::size_t n, double& x, double a, double* y) noexcept {
  const auto m = static_cast<std::uint64_t>(a);
  auto s = static_cast<std::uint64_t>(x);
  for (std::size_t i = 0; i < n; ++i) {
    s = mul46(s, m);
    y[i] = kR46 * static_cast<double>(s);
  }
  x = static_cast<double>(s);
}

double randlc_skip(double seed, double a, unsigned long long steps) noexcept {
  // Square-and-multiply: t runs through a^(2^k) mod 2^46, and each set bit k
  // of `steps` multiplies it into x.
  auto t = static_cast<std::uint64_t>(a);
  auto x = static_cast<std::uint64_t>(seed);
  for (; steps != 0; steps >>= 1) {
    if (steps & 1ULL) x = mul46(x, t);
    t = mul46(t, t);
  }
  return static_cast<double>(x);
}

}  // namespace npb
