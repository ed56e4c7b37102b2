// Property battery for the work-stealing task runtime (par/task.hpp) and
// the irregular workloads built on it (src/irr).  Three layers:
//
//   1. StealDeque driven single-threaded: the LIFO/FIFO end contract,
//      steal-half split arithmetic, and growth past the initial capacity.
//      (The concurrent owner-vs-thieves interleavings live in
//      test_par_stress where TSan watches them.)
//   2. fork2 / parallel_for under a real task_scope: recursive-sum
//      correctness at several widths, exception propagation through joins
//      (left wins ties, stolen and unstolen alike), the granularity anchor
//      (grain >= n is bit-identical to the serial loop, in index order),
//      grain-aligned parallel_ranges leaves, and the steal counters landing
//      in the obs snapshot.
//   3. The irregular suite as a matrix: SORT/KNN/GETRF at 1/2/3/7 threads
//      under both runtimes, verified by their intrinsic invariants, plus
//      GETRF's bit-identical factor across personalities and a steal:throw
//      chaos run that must be absorbed by checkpoint/retry.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/mode.hpp"
#include "fault/options.hpp"
#include "irr/irr.hpp"
#include "obs/obs.hpp"
#include "par/region.hpp"
#include "par/task.hpp"
#include "par/team.hpp"

namespace npb {
namespace {

// ---- StealDeque end contract (single-threaded) ----------------------------

struct CountingJob : task::Job {
  std::atomic<int> hits{0};
  CountingJob() {
    invoke = [](task::Job* j) { static_cast<CountingJob*>(j)->hits++; };
  }
};

TEST(StealDeque, OwnerEndIsLifo) {
  task::StealDeque dq;
  CountingJob a, b, c;
  dq.push(&a);
  dq.push(&b);
  dq.push(&c);
  EXPECT_EQ(dq.size(), 3);
  EXPECT_EQ(dq.pop(), &c);
  EXPECT_EQ(dq.pop(), &b);
  EXPECT_EQ(dq.pop(), &a);
  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_EQ(dq.size(), 0);
}

TEST(StealDeque, ThiefEndIsFifoOldestFirst) {
  task::StealDeque dq;
  CountingJob j[4];
  for (auto& x : j) dq.push(&x);
  task::Job* out[2] = {};
  ASSERT_EQ(dq.steal_some(out, 2), 2);
  EXPECT_EQ(out[0], &j[0]);
  EXPECT_EQ(out[1], &j[1]);
  // The owner still sees its end untouched: newest first.
  EXPECT_EQ(dq.pop(), &j[3]);
  EXPECT_EQ(dq.pop(), &j[2]);
  EXPECT_EQ(dq.pop(), nullptr);
}

TEST(StealDeque, StealTakesHalfRoundedUp) {
  for (const long n : {1L, 2L, 3L, 5L, 8L}) {
    task::StealDeque dq;
    std::vector<CountingJob> jobs(static_cast<std::size_t>(n));
    for (auto& x : jobs) dq.push(&x);
    task::Job* out[16] = {};
    const long half = n - n / 2;  // ceil(n/2)
    EXPECT_EQ(dq.steal_some(out, 16), half) << "n=" << n;
    EXPECT_EQ(dq.size(), n - half);
  }
}

TEST(StealDeque, StealHonorsMaxOutCap) {
  task::StealDeque dq;
  CountingJob j[8];
  for (auto& x : j) dq.push(&x);
  task::Job* out[2] = {};
  EXPECT_EQ(dq.steal_some(out, 2), 2);  // half would be 4; cap wins
  EXPECT_EQ(dq.size(), 6);
}

TEST(StealDeque, EmptyDequeYieldsNothingToAnyone) {
  task::StealDeque dq;
  task::Job* out[4] = {};
  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_EQ(dq.steal_some(out, 4), 0);
}

TEST(StealDeque, GrowsPastInitialCapacityPreservingOrder) {
  task::StealDeque dq(/*capacity=*/4);
  std::vector<CountingJob> jobs(100);
  for (auto& x : jobs) dq.push(&x);
  EXPECT_EQ(dq.size(), 100);
  EXPECT_GE(dq.max_depth(), 100);
  for (int i = 99; i >= 0; --i) EXPECT_EQ(dq.pop(), &jobs[i]);
  EXPECT_EQ(dq.pop(), nullptr);
}

// ---- fork2 / parallel_for under a task scope ------------------------------

/// Runs `root` as the rank-0 body of a task_scope on a fresh steal-runtime
/// team of `nthreads` ranks; other ranks are thieves.
template <class Root>
void with_scope(int nthreads, const Root& root) {
  WorkerTeam team(nthreads,
                  TeamOptions{BarrierKind::CondVar, 0, Schedule{}, true, 0,
                              Mode::Native, Runtime::Steal});
  spmd(team, [&](ParallelRegion& rg, int rank) {
    rg.task_scope(rank, [&] {
      if (rank == 0) root();
    });
  });
}

TEST(Fork2, SerialFallbackOutsideAnyScope) {
  ASSERT_FALSE(task::in_scope());
  std::vector<int> order;
  task::fork2([&] { order.push_back(1); }, [&] { order.push_back(2); });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

long rec_sum(const long* a, long lo, long hi) {
  if (hi - lo <= 64) return std::accumulate(a + lo, a + hi, 0L);
  const long mid = lo + (hi - lo) / 2;
  long left = 0, right = 0;
  task::fork2([&] { left = rec_sum(a, lo, mid); },
              [&] { right = rec_sum(a, mid, hi); });
  return left + right;
}

class TaskWidths : public ::testing::TestWithParam<int> {};

TEST_P(TaskWidths, RecursiveForkSumMatchesSerial) {
  const long n = 40000;
  std::vector<long> a(static_cast<std::size_t>(n));
  std::iota(a.begin(), a.end(), 1L);
  const long expect = n * (n + 1) / 2;
  long got = 0;
  with_scope(GetParam(), [&] { got = rec_sum(a.data(), 0, n); });
  EXPECT_EQ(got, expect);
}

TEST_P(TaskWidths, ParallelForHitsEveryIndexExactlyOnce) {
  const long n = 10000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  with_scope(GetParam(), [&] {
    task::parallel_for(0, n, 0, [&](long i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
  });
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Widths, TaskWidths, ::testing::Values(1, 2, 3, 7));

TEST(Fork2, LeftExceptionRethrownAndRightSkippedWhenUnstolen) {
  // One rank: nothing can steal, so the unstolen right branch must be
  // skipped when the left throws (first-error-wins, same as WorkerTeam).
  bool right_ran = false;
  bool threw = false;
  with_scope(1, [&] {
    try {
      task::fork2([&] { throw std::runtime_error("left"); },
                  [&] { right_ran = true; });
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "left");
    }
  });
  EXPECT_TRUE(threw);
  EXPECT_FALSE(right_ran);
}

TEST(Fork2, RightExceptionCrossesTheJoin) {
  bool threw = false;
  with_scope(3, [&] {
    try {
      task::fork2([] {}, [] { throw std::runtime_error("right"); });
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "right");
    }
  });
  EXPECT_TRUE(threw);
}

TEST(Fork2, LeftErrorWinsWhenBothBranchesThrow) {
  bool threw = false;
  with_scope(2, [&] {
    // Deep enough that some right branches are actually stolen; every
    // propagated error must still be the left-most one of its join.
    try {
      task::fork2([&] { throw std::runtime_error("left"); },
                  [&] { throw std::runtime_error("right"); });
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "left");
    }
  });
  EXPECT_TRUE(threw);
}

TEST(Fork2, ExceptionFromDeepRecursionUnwindsCleanlyUnderThieves) {
  // Thieves hold pointers into forking frames; the join protocol must keep
  // every frame alive until its job completes even on the error path.
  std::atomic<long> visited{0};
  const std::function<void(long, long)> walk = [&](long lo, long hi) {
    if (hi - lo <= 8) {
      visited.fetch_add(hi - lo, std::memory_order_relaxed);
      if (lo == 512) throw std::runtime_error("poison");
      return;
    }
    const long mid = lo + (hi - lo) / 2;
    task::fork2([&] { walk(lo, mid); }, [&] { walk(mid, hi); });
  };
  for (int rep = 0; rep < 10; ++rep) {
    bool threw = false;
    visited.store(0);
    with_scope(7, [&] {
      try {
        walk(0, 4096);
      } catch (const std::runtime_error&) {
        threw = true;
      }
    });
    EXPECT_TRUE(threw);
    EXPECT_GT(visited.load(), 0);
  }
}

TEST(Granularity, GrainAboveNIsTheSerialLoopInIndexOrder) {
  const long n = 1000;
  std::vector<long> order;
  with_scope(3, [&] {
    task::parallel_for(0, n, n, [&](long i) { order.push_back(i); });
  });
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i)
        << "cutoff must anchor to the plain for loop";
}

TEST(Granularity, RangesLeavesAreGrainAlignedChunks) {
  // The pranges contract the irregular kernels index per-chunk scratch by:
  // every leaf starts at lo + k*grain and spans at most grain — identical
  // to the Schedule::dynamic(grain) chunking of the SPMD personality.
  // Serial fallback walks the same split tree, so no scope is needed.
  for (const auto& [lo, hi, grain] :
       {std::tuple{0L, 2500L, 1024L}, std::tuple{0L, 32768L, 1024L},
        std::tuple{5L, 777L, 64L}, std::tuple{0L, 100L, 7L},
        std::tuple{0L, 1L, 16L}}) {
    std::vector<std::pair<long, long>> leaves;
    task::parallel_ranges(lo, hi, grain, [&](long a, long b) {
      leaves.emplace_back(a, b);
    });
    long covered = 0;
    for (const auto& [a, b] : leaves) {
      EXPECT_EQ((a - lo) % grain, 0)
          << "leaf [" << a << "," << b << ") not grain-aligned";
      EXPECT_LE(b - a, grain);
      EXPECT_LT(a, b);
      covered += b - a;
    }
    EXPECT_EQ(covered, hi - lo);
  }
}

TEST(TaskScope, StealCountersLandInTheObsSnapshot) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  reg.set_enabled(true);
  WorkerTeam team(3, TeamOptions{BarrierKind::CondVar, 0, Schedule{}, true, 0,
                                 Mode::Native, Runtime::Steal});
  // Imbalanced fork tree from rank 0 only: ranks 1..2 can make progress
  // solely by stealing, so attempts accumulate.  A fast root can finish
  // before the thief threads are ever scheduled (they then flush zeroes),
  // so re-run the scope until some thief got on CPU — the counters
  // accumulate across scopes.
  obs::Snapshot snap;
  for (int round = 0; round < 200 && snap.steal_attempts_count == 0;
       ++round) {
    spmd(team, [&](ParallelRegion& rg, int rank) {
      rg.task_scope(rank, [&] {
        if (rank == 0) {
          std::atomic<long> sink{0};
          task::parallel_for(0, 20000, 1, [&](long i) {
            sink.fetch_add(i, std::memory_order_relaxed);
          });
        }
      });
    });
    snap = reg.snapshot();
  }
  reg.set_enabled(false);
  EXPECT_GT(snap.steal_attempts_count, 0u)
      << "thief ranks must have flushed their attempt counters";
  EXPECT_GT(snap.steal_attempts_total, 0.0);
  EXPECT_GT(snap.steal_deque_max_count, 0u)
      << "rank 0 pushed jobs, so its depth watermark is nonzero";
  // Slot 0 is the serial path; thief ranks occupy slots rank+1.
  ASSERT_GE(snap.slots(obs::counter_id("steal/attempts")).value.size(), 2u);
}

// ---- irregular workloads: invariant matrix --------------------------------

RunConfig irr_config(int threads, Runtime rt) {
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.threads = threads;
  cfg.runtime = rt;
  return cfg;
}

class IrrMatrix
    : public ::testing::TestWithParam<std::tuple<int, Runtime>> {};

TEST_P(IrrMatrix, SortIsAPermutationInSortedOrder) {
  const auto [threads, rt] = GetParam();
  const RunResult r = run_sort(irr_config(threads, rt));
  EXPECT_TRUE(r.verified) << r.verify_detail;
}

TEST_P(IrrMatrix, KnnNeighborsSurviveBruteForceSpotChecks) {
  const auto [threads, rt] = GetParam();
  const RunResult r = run_knn(irr_config(threads, rt));
  EXPECT_TRUE(r.verified) << r.verify_detail;
}

TEST_P(IrrMatrix, GetrfResidualStaysBounded) {
  const auto [threads, rt] = GetParam();
  const RunResult r = run_getrf_irr(irr_config(threads, rt));
  EXPECT_TRUE(r.verified) << r.verify_detail;
}

INSTANTIATE_TEST_SUITE_P(
    Widths, IrrMatrix,
    ::testing::Combine(::testing::Values(1, 2, 3, 7),
                       ::testing::Values(Runtime::Spmd, Runtime::Steal)));

TEST(IrrSuite, GetrfFactorIsBitIdenticalAcrossPersonalities) {
  // Pivots are chosen only in the serial panel, so L, U and ipiv — and
  // therefore the checksums — must match exactly, not just within
  // tolerance, between the SPMD and steal personalities at any width.
  const RunResult serial = run_getrf_irr(irr_config(0, Runtime::Spmd));
  for (const int threads : {1, 3}) {
    for (const Runtime rt : {Runtime::Spmd, Runtime::Steal}) {
      const RunResult r = run_getrf_irr(irr_config(threads, rt));
      ASSERT_EQ(r.checksums.size(), serial.checksums.size());
      for (std::size_t i = 0; i < r.checksums.size(); ++i)
        EXPECT_EQ(r.checksums[i], serial.checksums[i])
            << "threads=" << threads << " runtime=" << to_string(rt);
    }
  }
}

TEST(IrrSuite, RegistryResolvesNamesCaseInsensitively) {
  EXPECT_EQ(find_irr_benchmark("SORT"), &run_sort);
  EXPECT_EQ(find_irr_benchmark("sort"), &run_sort);
  EXPECT_EQ(find_irr_benchmark("Knn"), &run_knn);
  EXPECT_EQ(find_irr_benchmark("getrf"), &run_getrf_irr);
  EXPECT_EQ(find_irr_benchmark("EP"), nullptr)
      << "regular NPBs stay out of the irregular registry";
  EXPECT_EQ(irr_suite().size(), 3u);
}

TEST(IrrSuite, StealThrowInjectionIsAbsorbedByRetry) {
  // A steal-site fault on rank 1 at step 1 kills the first pass; the step
  // runner must restore the checkpoint and converge to a verified result.
  RunConfig cfg = irr_config(3, Runtime::Steal);
  const auto spec = fault::parse_fault_spec("steal:throw:1:1:0");
  ASSERT_TRUE(spec.has_value());
  cfg.fault.specs.push_back(*spec);
  cfg.fault.max_retries = 3;
  const RunResult r = run_sort(cfg);
  EXPECT_TRUE(r.verified) << r.verify_detail;
}

}  // namespace
}  // namespace npb
