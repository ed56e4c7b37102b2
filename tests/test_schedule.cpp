// Property battery for the loop-schedule subsystem (src/par/schedule.*,
// src/par/parallel_for.hpp): parsing, serial chunk enumeration, the atomic
// chunk-claiming queue under a real team, coverage of every (kind, threads,
// range, chunk) combination, reduction determinism, and the per-rank
// iteration accounting the obs layer reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "obs/obs.hpp"
#include "par/parallel_for.hpp"
#include "par/schedule.hpp"
#include "par/team.hpp"

namespace npb {
namespace {

// ---- parse / to_string round-trip ------------------------------------------

TEST(ScheduleParse, AcceptsEveryKindAndOptionalChunk) {
  auto s = parse_schedule("static");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kind, Schedule::Kind::Static);

  s = parse_schedule("dynamic");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kind, Schedule::Kind::Dynamic);
  EXPECT_EQ(s->chunk, 0);

  s = parse_schedule("dynamic,64");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kind, Schedule::Kind::Dynamic);
  EXPECT_EQ(s->chunk, 64);

  s = parse_schedule("guided");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kind, Schedule::Kind::Guided);

  s = parse_schedule("guided,8");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kind, Schedule::Kind::Guided);
  EXPECT_EQ(s->chunk, 8);
}

TEST(ScheduleParse, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse_schedule("").has_value());
  EXPECT_FALSE(parse_schedule("dynamic,").has_value());
  EXPECT_FALSE(parse_schedule("dynamic,0").has_value());
  EXPECT_FALSE(parse_schedule("dynamic,-3").has_value());
  EXPECT_FALSE(parse_schedule("dynamic,8x").has_value());
  EXPECT_FALSE(parse_schedule("static,4").has_value())
      << "static takes no chunk";
  EXPECT_FALSE(parse_schedule("gided").has_value());
  EXPECT_FALSE(parse_schedule("DYNAMIC").has_value())
      << "case-sensitive, like the other CLI flags";
}

TEST(ScheduleParse, RoundTripsThroughToString) {
  for (const char* spec : {"static", "dynamic", "dynamic,7", "guided",
                           "guided,16"}) {
    const auto s = parse_schedule(spec);
    ASSERT_TRUE(s.has_value()) << spec;
    EXPECT_EQ(to_string(*s), spec);
    const auto again = parse_schedule(to_string(*s));
    ASSERT_TRUE(again.has_value()) << spec;
    EXPECT_EQ(again->kind, s->kind);
    EXPECT_EQ(again->chunk, s->chunk);
  }
}

// ---- serial chunk enumeration ----------------------------------------------

void expect_covers_in_order(const std::vector<Range>& chunks, long lo, long hi,
                            const std::string& what) {
  long at = lo;
  for (const Range& c : chunks) {
    EXPECT_EQ(c.lo, at) << what << ": chunks must tile the range in order";
    EXPECT_GT(c.hi, c.lo) << what << ": empty chunk";
    at = c.hi;
  }
  EXPECT_EQ(at, std::max(lo, hi)) << what << ": range not fully covered";
}

TEST(ScheduleChunks, TileTheRangeForEveryKind) {
  const Schedule kinds[] = {Schedule::static_(), Schedule::dynamic(),
                            Schedule::dynamic(3), Schedule::guided(),
                            Schedule::guided(5)};
  const std::pair<long, long> ranges[] = {
      {0, 0}, {0, 1}, {0, 3}, {-7, 10007}, {5, 50000}};
  for (const Schedule& s : kinds)
    for (const auto& [lo, hi] : ranges)
      for (int nranks : {1, 2, 4, 7})
        expect_covers_in_order(schedule_chunks(lo, hi, s, nranks), lo, hi,
                               to_string(s) + "/" + std::to_string(nranks));
}

TEST(ScheduleChunks, StaticYieldsThePartitionBlocks) {
  const auto chunks = schedule_chunks(0, 10, Schedule::static_(), 4);
  ASSERT_EQ(chunks.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    const Range want = partition(0, 10, r, 4);
    EXPECT_EQ(chunks[static_cast<std::size_t>(r)].lo, want.lo);
    EXPECT_EQ(chunks[static_cast<std::size_t>(r)].hi, want.hi);
  }
  // More ranks than work: only the non-empty blocks appear.
  EXPECT_EQ(schedule_chunks(0, 3, Schedule::static_(), 8).size(), 3u);
}

TEST(ScheduleChunks, DynamicUsesFixedChunksAndGuidedDecays) {
  const auto dyn = schedule_chunks(0, 100, Schedule::dynamic(32), 2);
  ASSERT_EQ(dyn.size(), 4u);
  EXPECT_EQ(dyn[0].size(), 32);
  EXPECT_EQ(dyn[3].size(), 4);  // remainder

  const auto gd = schedule_chunks(0, 1000, Schedule::guided(), 4);
  ASSERT_GE(gd.size(), 2u);
  // First chunk is remaining/(2*nranks); sizes never grow.
  EXPECT_EQ(gd[0].size(), 1000 / 8);
  for (std::size_t i = 1; i < gd.size(); ++i)
    EXPECT_LE(gd[i].size(), gd[i - 1].size());
  // Guided's floor is respected (all but the final remainder chunk).
  const auto gf = schedule_chunks(0, 1000, Schedule::guided(50), 4);
  for (std::size_t i = 0; i + 1 < gf.size(); ++i)
    EXPECT_GE(gf[i].size(), 50);
}

// ---- the coverage property battery ------------------------------------------
//
// Every schedule kind x thread count x range shape x chunk size: running
// parallel_for must touch each index exactly once and never step outside
// [lo, hi).  Ranges cover the adversarial shapes: empty, a single index, a
// prime extent (uneven everything), fewer indices than ranks, and a range
// much larger than the team with a negative lower bound.

struct BatteryCase {
  Schedule::Kind kind;
  int threads;
  long lo, hi;
  long chunk;
};

class ScheduleBattery : public ::testing::TestWithParam<
                            std::tuple<Schedule::Kind, int, std::pair<long, long>,
                                       long>> {};

TEST_P(ScheduleBattery, EveryIndexVisitedExactlyOnce) {
  const auto [kind, threads, range, chunk] = GetParam();
  const auto [lo, hi] = range;
  const Schedule sched{kind, kind == Schedule::Kind::Static ? 0 : chunk};

  const long n = std::max(hi - lo, 0L);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  std::atomic<bool> out_of_range{false};

  WorkerTeam team(threads);
  parallel_for(team, sched, lo, hi, [&](long i) {
    if (i < lo || i >= hi) {
      out_of_range = true;
      return;
    }
    hits[static_cast<std::size_t>(i - lo)].fetch_add(1,
                                                     std::memory_order_relaxed);
  });

  EXPECT_FALSE(out_of_range.load()) << "body saw an index outside [lo, hi)";
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << "index " << lo + i << " visited the wrong number of times";
}

INSTANTIATE_TEST_SUITE_P(
    KindsThreadsRangesChunks, ScheduleBattery,
    ::testing::Combine(
        ::testing::Values(Schedule::Kind::Static, Schedule::Kind::Dynamic,
                          Schedule::Kind::Guided),
        ::testing::Values(1, 2, 3, 4, 7),
        ::testing::Values(std::pair<long, long>{0, 0},     // empty
                          std::pair<long, long>{5, 6},     // single index
                          std::pair<long, long>{0, 10007}, // prime extent
                          std::pair<long, long>{0, 3},     // < nthreads
                          std::pair<long, long>{-100, 49900}),  // >> nthreads
        ::testing::Values(1L, 3L, 64L)));

// parallel_ranges must deliver the same coverage chunk-wise.
TEST(ScheduleRanges, ChunkBodiesCoverTheRange) {
  for (const Schedule& sched : {Schedule::dynamic(64), Schedule::guided(3)}) {
    WorkerTeam team(3);
    std::vector<std::atomic<int>> hits(10007);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    parallel_ranges(team, sched, 0, 10007, [&](int, long lo, long hi) {
      for (long i = lo; i < hi; ++i)
        hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                    std::memory_order_relaxed);
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1) << to_string(sched);
  }
}

// ---- queue vs serial enumeration --------------------------------------------
//
// Chunk boundaries must be a pure function of the claim sequence: the set of
// ranges claimed concurrently by a full team equals schedule_chunks().

TEST(ChunkQueueProperty, ConcurrentClaimsMatchSerialEnumeration) {
  for (const Schedule& sched :
       {Schedule::dynamic(), Schedule::dynamic(7), Schedule::guided(),
        Schedule::guided(11), Schedule::static_()}) {
    for (int threads : {1, 3, 7}) {
      const long lo = -13, hi = 9931;
      ChunkQueue queue;
      queue.reset(lo, hi, sched, threads);
      WorkerTeam team(threads);
      std::vector<std::vector<Range>> per_rank(
          static_cast<std::size_t>(threads));
      team.run([&](int rank) {
        Range c;
        while (queue.try_claim(c))
          per_rank[static_cast<std::size_t>(rank)].push_back(c);
      });
      std::vector<Range> got;
      for (const auto& v : per_rank) got.insert(got.end(), v.begin(), v.end());
      std::sort(got.begin(), got.end(),
                [](const Range& a, const Range& b) { return a.lo < b.lo; });
      const std::vector<Range> want = schedule_chunks(lo, hi, sched, threads);
      ASSERT_EQ(got.size(), want.size())
          << to_string(sched) << " threads=" << threads;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].lo, want[i].lo);
        EXPECT_EQ(got[i].hi, want[i].hi);
      }
    }
  }
}

TEST(ChunkQueueProperty, DrainedQueueKeepsReturningFalse) {
  ChunkQueue queue;
  queue.reset(0, 10, Schedule::dynamic(4), 2);
  Range c;
  while (queue.try_claim(c)) {
  }
  EXPECT_FALSE(queue.try_claim(c));
  EXPECT_FALSE(queue.try_claim(c)) << "drained queue must stay drained";
  // And reset re-arms it for another identical pass.
  queue.reset(0, 10, Schedule::dynamic(4), 2);
  ASSERT_TRUE(queue.try_claim(c));
  EXPECT_EQ(c.lo, 0);
  EXPECT_EQ(c.hi, 4);
}

// ---- reduction determinism ---------------------------------------------------
//
// Satellite 2: for a fixed thread count, parallel_reduce_sum must be
// bit-identical across 50 repeated runs under every schedule kind, and agree
// with the serial sum within the verify_checksums tolerance (1e-8 relative).

class ReduceDeterminism
    : public ::testing::TestWithParam<std::tuple<Schedule, int>> {};

TEST_P(ReduceDeterminism, BitIdenticalAcrossFiftyRunsAndNearSerial) {
  const auto [sched, threads] = GetParam();
  const long lo = 1, hi = 20011;  // prime extent: uneven chunks everywhere
  auto body = [](long i) {
    return std::sin(static_cast<double>(i)) / static_cast<double>(i);
  };

  double serial = 0.0;
  for (long i = lo; i < hi; ++i) serial += body(i);

  WorkerTeam team(threads);
  const double first = parallel_reduce_sum(team, sched, lo, hi, body);
  for (int run = 1; run < 50; ++run) {
    const double again = parallel_reduce_sum(team, sched, lo, hi, body);
    ASSERT_EQ(again, first) << "run " << run << " diverged under "
                            << to_string(sched) << " threads=" << threads;
  }
  const double tol = 1.0e-8 * std::max(1.0, std::fabs(serial));
  EXPECT_NEAR(first, serial, tol);
}

INSTANTIATE_TEST_SUITE_P(
    KindsByThreads, ReduceDeterminism,
    ::testing::Combine(::testing::Values(Schedule::static_(),
                                         Schedule::dynamic(),
                                         Schedule::dynamic(3),
                                         Schedule::guided(),
                                         Schedule::guided(16)),
                       ::testing::Values(1, 2, 3, 7)));

// ---- per-rank iteration accounting ------------------------------------------

#ifndef NPB_OBS_DISABLED
TEST(ScheduleObs, LoopItersSumToRangeSizeAndImbalanceIsSane) {
  auto& reg = obs::ObsRegistry::instance();
  for (const Schedule& sched :
       {Schedule::static_(), Schedule::dynamic(), Schedule::guided()}) {
    reg.reset();
    WorkerTeam team(4);
    std::atomic<long> sink{0};
    parallel_for(team, sched, 0, 10007, [&](long i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
    const obs::Snapshot snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.loop_iters_total, 10007.0) << to_string(sched);
    const obs::RankSlots& slots =
        snap.slots(obs::counter_id("team/loop_iters"));
    double ranks_sum = 0.0;
    for (std::size_t s = 1; s < slots.value.size(); ++s)
      ranks_sum += slots.value[s];
    EXPECT_DOUBLE_EQ(ranks_sum, 10007.0)
        << to_string(sched) << ": worker slots must account for every index";
    EXPECT_GE(snap.loop_imbalance(), 1.0) << to_string(sched);
  }
  reg.reset();
}
#endif

}  // namespace
}  // namespace npb
