#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "common/verify.hpp"
#include "mg/mg.hpp"
#include "mg/mg_impl.hpp"
#include "obs/obs.hpp"

namespace npb {
namespace {

RunConfig cfg_s(Mode m, int threads) {
  RunConfig c;
  c.cls = ProblemClass::S;
  c.mode = m;
  c.threads = threads;
  return c;
}

const RunResult& serial_native_s() {
  static const RunResult r = run_mg(cfg_s(Mode::Native, 0));
  return r;
}

TEST(Mg, ParamsMatchNpbShapes) {
  EXPECT_EQ(mg_params(ProblemClass::S).log2_n, 5);
  EXPECT_EQ(mg_params(ProblemClass::A).log2_n, 8);
  EXPECT_EQ(mg_params(ProblemClass::A).iterations, 4);
  EXPECT_EQ(mg_params(ProblemClass::B).iterations, 20);
}

TEST(Mg, SerialNativeVerifies) {
  const RunResult& r = serial_native_s();
  EXPECT_TRUE(r.verified) << r.verify_detail;
  ASSERT_EQ(r.checksums.size(), 1u);
  EXPECT_GT(r.checksums[0], 0.0);
}

TEST(Mg, JavaModeMatchesNative) {
  const RunResult b = run_mg(cfg_s(Mode::Java, 0));
  EXPECT_TRUE(b.verified) << b.verify_detail;
  const RunResult& a = serial_native_s();
  EXPECT_TRUE(approx_equal(a.checksums[0], b.checksums[0]))
      << a.checksums[0] << " vs " << b.checksums[0];
}

class MgThreads : public ::testing::TestWithParam<int> {};

TEST_P(MgThreads, ThreadedMatchesSerialExactly) {
  // MG has no cross-thread reductions in the timed loop: every grid point is
  // computed identically regardless of partitioning, so results are bitwise.
  const RunResult par = run_mg(cfg_s(Mode::Native, GetParam()));
  EXPECT_TRUE(par.verified) << par.verify_detail;
  const RunResult& serial = serial_native_s();
  EXPECT_EQ(par.checksums[0], serial.checksums[0]);
}

INSTANTIATE_TEST_SUITE_P(Counts, MgThreads, ::testing::Values(1, 2, 3, 4, 8));

#ifndef NPB_OBS_DISABLED
TEST(Mg, VCyclesAllocateNothing) {
  // Grids and every rank's resid/psinv line buffers are built before the
  // timed loop, so three V-cycles take exactly the fresh bytes one does.
  for (const bool fused : {true, false}) {
    TeamOptions topts;
    topts.fused = fused;
    const auto fresh = [&](int iterations) {
      auto& reg = obs::ObsRegistry::instance();
      const obs::Snapshot before = reg.snapshot();
      mg_detail::mg_run<Unchecked>(MgParams{5, iterations}, 2, topts);
      const obs::Snapshot after = reg.snapshot();
      return std::pair<std::uint64_t, double>{
          after.mem_alloc_count - before.mem_alloc_count,
          after.mem_bytes_allocated - before.mem_bytes_allocated};
    };
    const auto one = fresh(1);
    const auto three = fresh(3);
    EXPECT_GT(one.first, 0u);
    EXPECT_EQ(one, three) << (fused ? "fused" : "forked");
  }
}
#endif

TEST(Mg, WClassResidualAlsoContracts) {
  RunConfig c = cfg_s(Mode::Native, 0);
  c.cls = ProblemClass::W;
  const RunResult r = run_mg(c);
  EXPECT_TRUE(r.verified) << r.verify_detail;
}

}  // namespace
}  // namespace npb
