// Mathematical unit tests for MG's grid operators: periodic ghost exchange,
// resid/psinv against a 27-point oracle and on known fields, their access
// counts, restriction/interpolation consistency, and norm behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "mg/mg_impl.hpp"

namespace npb::mg_detail {
namespace {

using G = Grid<Unchecked>;

G make_grid(long n) {
  const auto s = static_cast<std::size_t>(n + 2);
  return G(s, s, s);
}

void fill_interior(G& g, long n, double (*f)(long, long, long)) {
  for (long i = 1; i <= n; ++i)
    for (long j = 1; j <= n; ++j)
      for (long k = 1; k <= n; ++k)
        g(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
          static_cast<std::size_t>(k)) = f(i, j, k);
}

TEST(Comm3, GhostsArePeriodicImages) {
  const long n = 8;
  G g = make_grid(n);
  fill_interior(g, n, [](long i, long j, long k) {
    return static_cast<double>(100 * i + 10 * j + k);
  });
  comm3(g, n);
  // Face ghosts equal the opposite interior face, every axis.
  for (long a = 1; a <= n; ++a)
    for (long b = 1; b <= n; ++b) {
      EXPECT_EQ(g(0, static_cast<std::size_t>(a), static_cast<std::size_t>(b)),
                g(static_cast<std::size_t>(n), static_cast<std::size_t>(a),
                  static_cast<std::size_t>(b)));
      EXPECT_EQ(g(static_cast<std::size_t>(n + 1), static_cast<std::size_t>(a),
                  static_cast<std::size_t>(b)),
                g(1, static_cast<std::size_t>(a), static_cast<std::size_t>(b)));
      EXPECT_EQ(g(static_cast<std::size_t>(a), 0, static_cast<std::size_t>(b)),
                g(static_cast<std::size_t>(a), static_cast<std::size_t>(n),
                  static_cast<std::size_t>(b)));
      EXPECT_EQ(g(static_cast<std::size_t>(a), static_cast<std::size_t>(b), 0),
                g(static_cast<std::size_t>(a), static_cast<std::size_t>(b),
                  static_cast<std::size_t>(n)));
    }
  // Corner ghost wraps all three axes.
  EXPECT_EQ(g(0, 0, 0), g(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                          static_cast<std::size_t>(n)));
}

// MG's operators as a plain 27-point stencil: every neighbour read once,
// summed by class, then the four coefficient terms.  resid and psinv
// regroup those sums through their line buffers, so they are held to this
// oracle within a rounding bound, not bit for bit.
enum class OracleOp { Resid, Apply };

template <OracleOp Op>
void stencil27_oracle(const G& in, const G* v, G& out, const Stencil& w, long n) {
  for (long i3 = 1; i3 <= n; ++i3) {
    for (long i2 = 1; i2 <= n; ++i2) {
      for (long i1 = 1; i1 <= n; ++i1) {
        const auto z = static_cast<std::size_t>(i3);
        const auto y = static_cast<std::size_t>(i2);
        const auto x = static_cast<std::size_t>(i1);
        const double centre = in(z, y, x);
        const double faces = in(z - 1, y, x) + in(z + 1, y, x) + in(z, y - 1, x) +
                             in(z, y + 1, x) + in(z, y, x - 1) + in(z, y, x + 1);
        const double edges = in(z - 1, y - 1, x) + in(z - 1, y + 1, x) +
                             in(z + 1, y - 1, x) + in(z + 1, y + 1, x) +
                             in(z - 1, y, x - 1) + in(z - 1, y, x + 1) +
                             in(z + 1, y, x - 1) + in(z + 1, y, x + 1) +
                             in(z, y - 1, x - 1) + in(z, y - 1, x + 1) +
                             in(z, y + 1, x - 1) + in(z, y + 1, x + 1);
        const double corners = in(z - 1, y - 1, x - 1) + in(z - 1, y - 1, x + 1) +
                               in(z - 1, y + 1, x - 1) + in(z - 1, y + 1, x + 1) +
                               in(z + 1, y - 1, x - 1) + in(z + 1, y - 1, x + 1) +
                               in(z + 1, y + 1, x - 1) + in(z + 1, y + 1, x + 1);
        const double au = w[0] * centre + w[1] * faces + w[2] * edges + w[3] * corners;
        if constexpr (Op == OracleOp::Resid) {
          out(z, y, x) = (*v)(z, y, x) - au;
        } else {
          out(z, y, x) += au;
        }
      }
    }
  }
}

// The rounding scale of one operator application at each interior point:
// |base| + sum over the 27 neighbours of |w_class * x|, where base is v
// (resid) or the incoming u (psinv).
G oracle_scale(const G& in, const G& base, const Stencil& w, long n) {
  G mag = make_grid(n);
  for (long i3 = 1; i3 <= n; ++i3)
    for (long i2 = 1; i2 <= n; ++i2)
      for (long i1 = 1; i1 <= n; ++i1) {
        double m = std::fabs(base(static_cast<std::size_t>(i3), static_cast<std::size_t>(i2),
                                  static_cast<std::size_t>(i1)));
        for (long d3 = -1; d3 <= 1; ++d3)
          for (long d2 = -1; d2 <= 1; ++d2)
            for (long d1 = -1; d1 <= 1; ++d1) {
              const int k = (d3 != 0) + (d2 != 0) + (d1 != 0);
              m += std::fabs(w[static_cast<std::size_t>(k)] *
                             in(static_cast<std::size_t>(i3 + d3),
                                static_cast<std::size_t>(i2 + d2),
                                static_cast<std::size_t>(i1 + d1)));
            }
        mag(static_cast<std::size_t>(i3), static_cast<std::size_t>(i2),
            static_cast<std::size_t>(i1)) = m;
      }
  return mag;
}

template <class P>
Lines<P> make_lines(long n) {
  const auto s = static_cast<std::size_t>(n + 2);
  return Lines<P>{Array1<double, P>(s), Array1<double, P>(s)};
}

void fill_random(G& g, long n, double seed) {
  for (long i = 1; i <= n; ++i)
    for (long j = 1; j <= n; ++j)
      for (long k = 1; k <= n; ++k)
        g(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
          static_cast<std::size_t>(k)) = 2.0 * randlc(seed, kDefaultMultiplier) - 1.0;
  comm3(g, n);
}

// |got - want| <= 8 eps sum|w_k x_k| at every interior point; returns the
// worst ratio of the error to eps * that scale.
double expect_within_oracle(const G& got, const G& want, const G& mag, long n) {
  const double eps = std::numeric_limits<double>::epsilon();
  double worst = 0.0;
  for (long i = 1; i <= n; ++i)
    for (long j = 1; j <= n; ++j)
      for (long k = 1; k <= n; ++k) {
        const auto z = static_cast<std::size_t>(i);
        const auto y = static_cast<std::size_t>(j);
        const auto x = static_cast<std::size_t>(k);
        const double err = std::fabs(got(z, y, x) - want(z, y, x));
        EXPECT_LE(err, 8.0 * eps * mag(z, y, x))
            << "at (" << i << ", " << j << ", " << k << ")";
        worst = std::max(worst, err / (eps * mag(z, y, x)));
      }
  return worst;
}

class MgOperators : public ::testing::TestWithParam<long> {};

TEST_P(MgOperators, ResidMatchesTheTwentySevenPointOracle) {
  const long n = GetParam();
  G u = make_grid(n), v = make_grid(n), r = make_grid(n), want = make_grid(n);
  fill_random(u, n, 314159265.0);
  fill_random(v, n, 271828183.0);
  auto lines = make_lines<Unchecked>(n);
  resid<Unchecked, false>(u, v, r, lines, n, 1, n + 1);
  stencil27_oracle<OracleOp::Resid>(u, &v, want, kA, n);
  const double worst = expect_within_oracle(r, want, oracle_scale(u, v, kA, n), n);
  RecordProperty("worst_eps_ratio", std::to_string(worst));
}

TEST_P(MgOperators, AliasedResidMatchesTheOracle) {
  // resid_level's coarse levels call resid(u, r, r): r = r - A u in place.
  const long n = GetParam();
  G u = make_grid(n), r = make_grid(n), want = make_grid(n);
  fill_random(u, n, 314159265.0);
  fill_random(r, n, 161803399.0);
  const G r0 = r;
  auto lines = make_lines<Unchecked>(n);
  resid<Unchecked, false>(u, r, r, lines, n, 1, n + 1);
  stencil27_oracle<OracleOp::Resid>(u, &r0, want, kA, n);
  expect_within_oracle(r, want, oracle_scale(u, r0, kA, n), n);
}

TEST_P(MgOperators, PsinvMatchesTheTwentySevenPointOracle) {
  const long n = GetParam();
  G r = make_grid(n), u = make_grid(n);
  fill_random(r, n, 314159265.0);
  fill_random(u, n, 141421356.0);
  G want = u;
  const G mag = oracle_scale(r, u, kS, n);
  auto lines = make_lines<Unchecked>(n);
  psinv<Unchecked, false>(r, u, lines, n, 1, n + 1);
  stencil27_oracle<OracleOp::Apply>(r, nullptr, want, kS, n);
  expect_within_oracle(u, want, mag, n);
}

TEST_P(MgOperators, VecLanesMatchTheOracleToo) {
  const long n = GetParam();
  G u = make_grid(n), v = make_grid(n), r = make_grid(n), want = make_grid(n);
  fill_random(u, n, 314159265.0);
  fill_random(v, n, 271828183.0);
  auto lines = make_lines<Unchecked>(n);
  resid<Unchecked, true>(u, v, r, lines, n, 1, n + 1);
  stencil27_oracle<OracleOp::Resid>(u, &v, want, kA, n);
  expect_within_oracle(r, want, oracle_scale(u, v, kA, n), n);

  comm3(r, n);
  G s = make_grid(n);
  fill_random(s, n, 141421356.0);
  want = s;
  const G mag = oracle_scale(r, s, kS, n);
  psinv<Unchecked, true>(r, s, lines, n, 1, n + 1);
  stencil27_oracle<OracleOp::Apply>(r, nullptr, want, kS, n);
  expect_within_oracle(s, want, mag, n);
}

TEST_P(MgOperators, CountingPinsEachOperatorsAccessesPerCall) {
  // Line buffers of 2(n+2) sums per i1 line, then 8 (resid) or 9 (psinv)
  // accesses per point, against the 27-point operator's 29n^3 and 28n^3.
  const long n = GetParam();
  using C = Grid<Counting>;
  const auto s = static_cast<std::size_t>(n + 2);
  C u(s, s, s), v(s, s, s), r(s, s, s);
  auto lines = make_lines<Counting>(n);
  const auto n2 = static_cast<std::uint64_t>(n * n);
  const auto n1 = static_cast<std::uint64_t>(n);

  Counting::counts().reset();
  resid<Counting, false>(u, v, r, lines, n, 1, n + 1);
  EXPECT_EQ(Counting::counts().accesses, n2 * (18 * n1 + 20));
  EXPECT_EQ(Counting::counts().checks, n2 * (18 * n1 + 20));
  EXPECT_EQ(Counting::counts().flops, n2 * (15 * n1 + 12));

  Counting::counts().reset();
  psinv<Counting, false>(r, u, lines, n, 1, n + 1);
  EXPECT_EQ(Counting::counts().accesses, n2 * (19 * n1 + 20));
  EXPECT_EQ(Counting::counts().checks, n2 * (19 * n1 + 20));
  EXPECT_EQ(Counting::counts().flops, n2 * (16 * n1 + 12));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MgOperators, ::testing::Values(4L, 8L, 16L));

TEST(Resid, AnnihilatesConstantsWhenWeightsSumToZero) {
  // The Poisson operator kA has weight sum -8/3 + 6*0 + 12/6 + 8/12 = 0,
  // so A(constant field) == 0 and the residual of u=const, v=0 is 0.
  const long n = 8;
  G u = make_grid(n), v = make_grid(n), r = make_grid(n);
  fill_interior(u, n, [](long, long, long) { return 3.7; });
  comm3(u, n);
  auto lines = make_lines<Unchecked>(n);
  resid<Unchecked, false>(u, v, r, lines, n, 1, n + 1);
  for (long i = 1; i <= n; ++i)
    for (long j = 1; j <= n; ++j)
      for (long k = 1; k <= n; ++k)
        EXPECT_NEAR(r(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                      static_cast<std::size_t>(k)),
                    0.0, 1e-13);
}

TEST(Resid, ActsAsNegativeDefiniteOnOddModes) {
  // For the highest-frequency mode s(i,j,k) = (-1)^(i+j+k), faces/edges/
  // corners alternate sign: A s = (a0 - 6a1 + 12a2*... ) computable exactly.
  const long n = 8;
  G u = make_grid(n), v = make_grid(n), r = make_grid(n);
  fill_interior(u, n, [](long i, long j, long k) {
    return ((i + j + k) % 2 == 0) ? 1.0 : -1.0;
  });
  comm3(u, n);
  auto lines = make_lines<Unchecked>(n);
  resid<Unchecked, false>(u, v, r, lines, n, 1, n + 1);
  // Neighbour parities: 6 faces flip sign, 12 edges keep it, 8 corners flip.
  const double expected_factor = -(kA[0] - 6.0 * kA[1] + 12.0 * kA[2] - 8.0 * kA[3]);
  for (long i = 1; i <= n; ++i)
    for (long j = 1; j <= n; ++j)
      for (long k = 1; k <= n; ++k) {
        const double s = ((i + j + k) % 2 == 0) ? 1.0 : -1.0;
        EXPECT_NEAR(r(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                      static_cast<std::size_t>(k)),
                    expected_factor * s, 1e-12);
      }
}

TEST(Rprj3, PreservesConstantsUpToWeightSum) {
  // Full-weighting weights sum to 0.5 + 6*0.25 + 12*0.125 + 8*0.0625 = 4,
  // so restricting a constant field gives 4x the constant.
  const long nf = 8, nc = 4;
  G fine = make_grid(nf), coarse = make_grid(nc);
  fill_interior(fine, nf, [](long, long, long) { return 1.5; });
  comm3(fine, nf);
  rprj3<Unchecked>(fine, coarse, nc, 1, nc + 1);
  for (long i = 1; i <= nc; ++i)
    for (long j = 1; j <= nc; ++j)
      for (long k = 1; k <= nc; ++k)
        EXPECT_NEAR(coarse(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                           static_cast<std::size_t>(k)),
                    6.0, 1e-13);
}

TEST(Interp, ReproducesConstantsExactly) {
  const long nf = 8, nc = 4;
  G fine = make_grid(nf), coarse = make_grid(nc);
  fill_interior(coarse, nc, [](long, long, long) { return 2.25; });
  comm3(coarse, nc);
  interp<Unchecked>(coarse, fine, nf, 1, nf + 1);
  for (long i = 1; i <= nf; ++i)
    for (long j = 1; j <= nf; ++j)
      for (long k = 1; k <= nf; ++k)
        EXPECT_NEAR(fine(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                         static_cast<std::size_t>(k)),
                    2.25, 1e-13);
}

TEST(Interp, AlignedPointsCopyAndMidpointsAverage) {
  const long nf = 8, nc = 4;
  G fine = make_grid(nf), coarse = make_grid(nc);
  fill_interior(coarse, nc, [](long i, long, long) { return static_cast<double>(i); });
  comm3(coarse, nc);
  interp<Unchecked>(coarse, fine, nf, 1, nf + 1);
  // Even fine index 2c copies coarse(c); odd index 2c-1 averages c-1 and c
  // (with periodic wrap at the boundary).
  EXPECT_NEAR(fine(2, 2, 2), 1.0, 1e-13);
  EXPECT_NEAR(fine(4, 2, 2), 2.0, 1e-13);
  EXPECT_NEAR(fine(3, 2, 2), 1.5, 1e-13);
  EXPECT_NEAR(fine(1, 2, 2), 0.5 * (coarse(0, 1, 1) + coarse(1, 1, 1)), 1e-13);
}

TEST(L2Norm, MatchesHandComputedValue) {
  const long n = 4;
  G g = make_grid(n);
  fill_interior(g, n, [](long, long, long) { return 2.0; });
  // sqrt(sum(4) / 64) = sqrt(4) = 2.
  EXPECT_NEAR(l2norm(g, n), 2.0, 1e-14);
}

TEST(Zran3, PlacesExactlyTenPlusAndTenMinusOnes) {
  const long n = 16;
  G v = make_grid(n);
  zran3(v, n);
  int plus = 0, minus = 0, other = 0;
  for (long i = 1; i <= n; ++i)
    for (long j = 1; j <= n; ++j)
      for (long k = 1; k <= n; ++k) {
        const double x = v(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                           static_cast<std::size_t>(k));
        if (x == 1.0) {
          ++plus;
        } else if (x == -1.0) {
          ++minus;
        } else if (x != 0.0) {
          ++other;
        }
      }
  EXPECT_EQ(plus, 10);
  EXPECT_EQ(minus, 10);
  EXPECT_EQ(other, 0);
}

TEST(MgCycle, EachVCycleContractsTheResidual) {
  // Run MG manually for 1 vs 2 vs 3 iterations: the residual norm sequence
  // must be strictly decreasing (the multigrid property itself).
  double prev = 1e300;
  for (int iters = 1; iters <= 3; ++iters) {
    const MgParams p{5, iters};
    const MgOutput o = mg_run<Unchecked>(p, 0, TeamOptions{});
    EXPECT_LT(o.rnm2_final, prev) << iters << " iterations";
    EXPECT_LT(o.rnm2_final, o.rnm2_initial);
    prev = o.rnm2_final;
  }
}

}  // namespace
}  // namespace npb::mg_detail
