#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include <vector>

#include "common/randlc.hpp"

namespace npb {
namespace {

// NPB's double-precision evaluation of x * a mod 2^46 (`randdp`, the Fortran
// RANDLC): a and x are split into 23-bit halves so that every partial
// product is exact in a double.  The generator under test must reproduce it
// bit for bit.
double randlc_split(double& x, double a) {
  constexpr double r23 = 0x1p-23, t23 = 0x1p23, r46 = 0x1p-46, t46 = 0x1p46;
  const double a1 = std::trunc(r23 * a);
  const double a2 = a - t23 * a1;
  const double x1 = std::trunc(r23 * x);
  const double x2 = x - t23 * x1;
  const double t1 = a1 * x2 + a2 * x1;
  const double z = t1 - t23 * std::trunc(r23 * t1);
  const double t3 = t23 * z + a2 * x2;
  x = t3 - t46 * std::trunc(r46 * t3);
  return r46 * x;
}

// Square-and-multiply over randlc_split: seed * a^steps mod 2^46.
double skip_split(double x, double a, unsigned long long steps) {
  double t = a;
  for (; steps != 0; steps >>= 1) {
    if (steps & 1ULL) randlc_split(x, t);
    const double base = t;
    randlc_split(t, base);
  }
  return x;
}

// Every seed a kernel starts a stream from: the default (which FT's kFtSeed
// equals, and IS, MG and CG's matrix use), EP's kEpSeed and CG's SPD probe.
constexpr double kSeeds[] = {kDefaultSeed, 271828183.0, 97531.0};
constexpr double kMax46 = 0x1p46 - 1.0;  // 2^46 - 1

// a^(2^k) mod 2^46 for k = 0..45: the multipliers randlc_skip composes.
std::vector<double> multiplier_powers() {
  std::vector<double> p{kDefaultMultiplier};
  while (p.size() < 46) {
    double t = p.back();
    randlc_split(t, p.back());
    p.push_back(t);
  }
  return p;
}

// `n` draws of randlc and of vranlc from (seed, a), each value and state
// against the oracle's.
void expect_matches_oracle(double seed, double a, std::size_t n) {
  std::vector<double> batch(n);
  double xv = seed;
  vranlc(n, xv, a, batch.data());
  double x = seed, xo = seed;
  for (std::size_t i = 0; i < n; ++i) {
    const double want = randlc_split(xo, a);
    ASSERT_EQ(randlc(x, a), want) << "seed " << seed << " a " << a << " draw " << i;
    ASSERT_EQ(x, xo) << "seed " << seed << " a " << a << " draw " << i;
    ASSERT_EQ(batch[i], want) << "vranlc seed " << seed << " a " << a << " draw " << i;
  }
  EXPECT_EQ(xv, xo) << "vranlc final state, seed " << seed << " a " << a;
}

TEST(Randlc, ValuesInUnitInterval) {
  double x = kDefaultSeed;
  for (int i = 0; i < 10000; ++i) {
    const double r = randlc(x, kDefaultMultiplier);
    EXPECT_GT(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(Randlc, DeterministicForSameSeed) {
  double x1 = kDefaultSeed, x2 = kDefaultSeed;
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(randlc(x1, kDefaultMultiplier), randlc(x2, kDefaultMultiplier));
}

TEST(Randlc, MeanIsOneHalf) {
  double x = kDefaultSeed;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += randlc(x, kDefaultMultiplier);
  EXPECT_NEAR(sum / n, 0.5, 2e-3);
}

TEST(Randlc, SeedStaysA46BitInteger) {
  double x = kDefaultSeed;
  for (int i = 0; i < 1000; ++i) {
    randlc(x, kDefaultMultiplier);
    EXPECT_EQ(x, std::trunc(x));
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 70368744177664.0);  // 2^46
  }
}

TEST(RandlcOracle, MillionDrawsFromEverySeedMatchTheDoubleSplit) {
  for (const double seed : kSeeds) expect_matches_oracle(seed, kDefaultMultiplier, 1000000);
}

TEST(RandlcOracle, EveryComposedMultiplierMatchesTheDoubleSplit) {
  const std::vector<double> powers = multiplier_powers();
  for (std::size_t k = 0; k < powers.size(); ++k) {
    for (const double seed : kSeeds) expect_matches_oracle(seed, powers[k], 1000);
    double x = kDefaultSeed;
    randlc_split(x, powers[k]);
    EXPECT_EQ(randlc_skip(kDefaultSeed, kDefaultMultiplier, 1ULL << k), x) << "k " << k;
  }
}

TEST(RandlcOracle, BoundaryStatesMatchTheDoubleSplit) {
  // (2^46 - 1)^2 = 1 mod 2^46: the largest operands of the domain.
  for (const double seed : {1.0, kMax46}) {
    expect_matches_oracle(seed, kMax46, 4);
    expect_matches_oracle(seed, kDefaultMultiplier, 1000);
    EXPECT_EQ(randlc_skip(seed, kMax46, 12345), skip_split(seed, kMax46, 12345));
  }
  double x = 1.0;
  EXPECT_EQ(randlc(x, kMax46), kMax46 * 0x1p-46);
  EXPECT_EQ(x, kMax46);
  EXPECT_EQ(randlc(x, kMax46), 0x1p-46);
  EXPECT_EQ(x, 1.0);
}

TEST(Vranlc, MatchesRepeatedRandlc) {
  double xa = kDefaultSeed, xb = kDefaultSeed;
  std::vector<double> batch(257);
  vranlc(batch.size(), xa, kDefaultMultiplier, batch.data());
  for (double v : batch) EXPECT_EQ(v, randlc(xb, kDefaultMultiplier));
  EXPECT_EQ(xa, xb);
}

TEST(Vranlc, ZeroCountLeavesStateUnchanged) {
  double x = kDefaultSeed;
  double y = -1.0;
  vranlc(0, x, kDefaultMultiplier, &y);
  EXPECT_EQ(x, kDefaultSeed);
  EXPECT_EQ(y, -1.0);
}

class RandlcSkip : public ::testing::TestWithParam<unsigned long long> {};

TEST_P(RandlcSkip, EqualsSequentialAdvance) {
  const unsigned long long steps = GetParam();
  double x = kDefaultSeed;
  for (unsigned long long i = 0; i < steps; ++i) randlc(x, kDefaultMultiplier);
  const double skipped = randlc_skip(kDefaultSeed, kDefaultMultiplier, steps);
  EXPECT_EQ(skipped, x);
}

INSTANTIATE_TEST_SUITE_P(Steps, RandlcSkip,
                         ::testing::Values(0ULL, 1ULL, 2ULL, 3ULL, 7ULL, 64ULL,
                                           1000ULL, 65536ULL, 100001ULL));

TEST(RandlcSkip, MatchesOracleSquareAndMultiply) {
  // 2^33 + 5 lies past EP class C's last block offset, (2^16 - 1) * 2^17;
  // 2^64 - 1 sets every bit.
  for (const unsigned long long steps :
       {(1ULL << 33) + 5, ((1ULL << 16) - 1) << 17, 4ULL * 1048575,
        std::numeric_limits<unsigned long long>::max()})
    for (const double seed : kSeeds)
      EXPECT_EQ(randlc_skip(seed, kDefaultMultiplier, steps),
                skip_split(seed, kDefaultMultiplier, steps))
          << "seed " << seed << " steps " << steps;
}

TEST(RandlcSkip, DisjointStreamsDiffer) {
  const double a = randlc_skip(kDefaultSeed, kDefaultMultiplier, 1u << 16);
  const double b = randlc_skip(kDefaultSeed, kDefaultMultiplier, 1u << 17);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace npb
