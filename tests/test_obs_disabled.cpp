// Compiled with NPB_OBS_DISABLED: the observability API must collapse to
// inline no-ops while the data structs (Snapshot, RegionStats) and the report
// emitters keep working, and the par runtime — built WITHOUT the macro in
// npb_par — must still link and run against this TU (the inline-namespace
// split keeps the two variants ODR-distinct).

#ifndef NPB_OBS_DISABLED
#error "this test must be compiled with -DNPB_OBS_DISABLED"
#endif

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "par/parallel_for.hpp"
#include "par/team.hpp"

namespace {
std::atomic<long> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// noinline: once inlined, GCC pairs the free with the replaced operator new
// and warns -Wmismatched-new-delete (seen under the tsan preset).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace npb {
namespace {

static_assert(!obs::kActive, "NPB_OBS_DISABLED must clear obs::kActive");

TEST(ObsDisabled, ApiIsStubbedOut) {
  EXPECT_EQ(obs::region("x/y"), -1);
  EXPECT_EQ(obs::thread_rank(), -1);
  obs::set_thread_rank(3);
  EXPECT_EQ(obs::thread_rank(), -1);
  auto& reg = obs::ObsRegistry::instance();
  EXPECT_FALSE(reg.enabled());
  reg.set_enabled(true);
  EXPECT_FALSE(reg.enabled());
  reg.record(0, -1, 1.0);
  reg.reset();
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.regions.empty());
  EXPECT_EQ(snap.run_count, 0u);
}

TEST(ObsDisabled, ScopedTimerIsZeroCost) {
  const long before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    obs::ScopedTimer t(obs::counter_id("team/run_span"));
    obs::ScopedTimer tr(obs::counter_id("team/dispatch"), 2);
  }
  const long after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0);
}

TEST(ObsDisabled, TeamRuntimeStillWorksAgainstInstrumentedPar) {
  // npb_par is compiled without the macro; this TU with it.  Both must link
  // into one binary and behave: the team still dispatches and reduces.
  WorkerTeam team(4);
  std::atomic<int> hits{0};
  team.run([&](int) { hits.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(hits.load(), 4);
  const double sum = parallel_reduce_sum(
      team, 0, 1000, [](long i) { return static_cast<double>(i); });
  EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0 / 2.0);
}

TEST(ObsDisabled, ReportEmittersStillProduceValidOutput) {
  obs::ObsReport rep;
  rep.add_run("EP", "S", "java", 2, 0.25, obs::Snapshot{});
  const std::string j = rep.json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"benchmark\":\"EP\""), std::string::npos);
  const std::string csv = rep.csv();
  EXPECT_NE(csv.find("team/run_span"), std::string::npos);
}

}  // namespace
}  // namespace npb
