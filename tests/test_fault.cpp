// Tests for the fault subsystem (src/fault): spec parsing, the deterministic
// injector, checkpoint save/restore, the step retry/degradation runner, and
// the barrier watchdog.
//
// The Injector is a process-wide singleton; every test that arms it goes
// through ScopedFaultSession (which clears on scope exit) and leaves the
// step gate at -1 and the failed mask empty.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "fault/options.hpp"
#include "fault/retry.hpp"
#include "par/team.hpp"

namespace npb {
namespace {

using fault::FaultOptions;
using fault::FaultSpec;
using fault::Injector;
using fault::InjectedFault;
using fault::Kind;
using fault::parse_fault_spec;
using fault::ScopedFaultSession;
using fault::Site;

FaultOptions options_for(const std::vector<std::string>& specs,
                         int max_retries = 3, bool allow_degraded = true) {
  FaultOptions opts;
  for (const std::string& s : specs) {
    auto parsed = parse_fault_spec(s);
    EXPECT_TRUE(parsed.has_value()) << s;
    if (parsed) opts.specs.push_back(*parsed);
  }
  opts.max_retries = max_retries;
  opts.backoff_ms = 0;  // tests need no pacing
  opts.allow_degraded = allow_degraded;
  return opts;
}

// ---- spec parsing ----------------------------------------------------------

TEST(FaultSpecParse, ParsesFullSpec) {
  const auto s = parse_fault_spec("region:throw:3:2:0");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->site, Site::Region);
  EXPECT_FALSE(s->any_site);
  EXPECT_EQ(s->kind, Kind::Throw);
  EXPECT_EQ(s->step, 3);
  EXPECT_EQ(s->rank, 2);
  EXPECT_EQ(s->seed, 0u);
  EXPECT_FALSE(s->persist);
}

TEST(FaultSpecParse, ParsesWildcardsAndDelay) {
  const auto s = parse_fault_spec("barrier:delay(80):*:1:2");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->site, Site::Barrier);
  EXPECT_EQ(s->kind, Kind::Delay);
  EXPECT_EQ(s->delay_ms, 80);
  EXPECT_EQ(s->step, fault::kAnyStep);
  EXPECT_EQ(s->rank, 1);
  EXPECT_EQ(s->seed, 2u);

  const auto any = parse_fault_spec("*:throw:*:*:5");
  ASSERT_TRUE(any.has_value());
  EXPECT_TRUE(any->any_site);
  EXPECT_EQ(any->rank, fault::kAnyRank);
  EXPECT_EQ(any->seed, 5u);
}

TEST(FaultSpecParse, ParsesPersistSuffix) {
  const auto s = parse_fault_spec("region:throw:4:2:0:persist");
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->persist);
  EXPECT_FALSE(parse_fault_spec("region:throw:4:2:0:forever").has_value());
}

TEST(FaultSpecParse, RoundTripsThroughToString) {
  for (const char* text :
       {"region:throw:3:2:0", "barrier:delay(80):*:1:2",
        "reduce:nan-poison:5:0:0", "alloc:alloc-fail:2:*:0",
        "queue:throw:*:*:7", "collective:delay(1):9:0:1:persist"}) {
    const auto a = parse_fault_spec(text);
    ASSERT_TRUE(a.has_value()) << text;
    const auto b = parse_fault_spec(fault::to_string(*a));
    ASSERT_TRUE(b.has_value()) << fault::to_string(*a);
    EXPECT_EQ(fault::to_string(*a), fault::to_string(*b));
  }
}

TEST(FaultSpecParse, NanPoisonRequiresReduceSite) {
  EXPECT_TRUE(parse_fault_spec("reduce:nan-poison:1:0:0").has_value());
  EXPECT_FALSE(parse_fault_spec("region:nan-poison:1:0:0").has_value());
  EXPECT_FALSE(parse_fault_spec("*:nan-poison:1:0:0").has_value());
}

TEST(FaultSpecParse, AllocFailRequiresAllocSite) {
  EXPECT_TRUE(parse_fault_spec("alloc:alloc-fail:1:*:0").has_value());
  EXPECT_FALSE(parse_fault_spec("barrier:alloc-fail:1:*:0").has_value());
  EXPECT_FALSE(parse_fault_spec("*:alloc-fail:1:*:0").has_value());
}

TEST(FaultSpecParse, KillRequiresProcSite) {
  // SIGKILL only makes sense where a whole worker process is the blast
  // radius, so the parser ties kill to the proc site (any other site — or
  // the wildcard — would let it vaporize the parent).
  const auto spec = parse_fault_spec("proc:kill:*:2:0");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->site, Site::Proc);
  EXPECT_EQ(spec->kind, Kind::Kill);
  EXPECT_TRUE(parse_fault_spec("proc:kill:3:1:0:persist").has_value());
  EXPECT_FALSE(parse_fault_spec("barrier:kill:*:2:0").has_value());
  EXPECT_FALSE(parse_fault_spec("region:kill:1:0:0").has_value());
  EXPECT_FALSE(parse_fault_spec("*:kill:*:2:0").has_value());
}

TEST(FaultSpecParse, CorruptRequiresCkptOrProcSite) {
  // Bit rot is only modeled where a CRC stands guard: the checkpoint payload
  // (readback verification) and the shm message frames (receiver-side CRC).
  // A wildcard site would also hit guards that cannot detect it — rejected.
  const auto ck = parse_fault_spec("ckpt:corrupt:*:0:0");
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->site, Site::Ckpt);
  EXPECT_EQ(ck->kind, Kind::Corrupt);
  const auto pr = parse_fault_spec("proc:corrupt:*:1:0");
  ASSERT_TRUE(pr.has_value());
  EXPECT_EQ(pr->site, Site::Proc);
  EXPECT_EQ(pr->kind, Kind::Corrupt);
  EXPECT_TRUE(parse_fault_spec("proc:corrupt:2:1:0:persist").has_value());
  EXPECT_FALSE(parse_fault_spec("*:corrupt:*:0:0").has_value());
  EXPECT_FALSE(parse_fault_spec("barrier:corrupt:*:0:0").has_value());
  EXPECT_FALSE(parse_fault_spec("region:corrupt:1:0:0").has_value());
}

TEST(FaultSpecParse, CkptSiteOnlyAcceptsCorrupt) {
  // The checkpoint flush is not a place to throw or sleep — the only fault
  // that means anything there is payload corruption.
  EXPECT_FALSE(parse_fault_spec("ckpt:throw:*:0:0").has_value());
  EXPECT_FALSE(parse_fault_spec("ckpt:delay(5):*:0:0").has_value());
  EXPECT_FALSE(parse_fault_spec("ckpt:kill:*:0:0").has_value());
  EXPECT_FALSE(parse_fault_spec("ckpt:nan-poison:*:0:0").has_value());
}

TEST(FaultSpecParse, CorruptAndCkptRoundTripThroughToString) {
  for (const char* text : {"ckpt:corrupt:*:0:0", "proc:corrupt:3:1:2",
                           "proc:corrupt:*:1:0:persist"}) {
    const auto a = parse_fault_spec(text);
    ASSERT_TRUE(a.has_value()) << text;
    const auto b = parse_fault_spec(fault::to_string(*a));
    ASSERT_TRUE(b.has_value()) << fault::to_string(*a);
    EXPECT_EQ(fault::to_string(*a), fault::to_string(*b));
  }
}

TEST(FaultSpecParse, RejectsMalformedSpecs) {
  for (const char* text :
       {"", "region", "region:throw", "region:throw:1", "region:throw:1:0",
        "bogus:throw:1:0:0", "region:explode:1:0:0", "region:throw:x:0:0",
        "region:throw:-1:0:0", "region:throw:1:0:0:persist:extra",
        "region:delay:1:0:0", "region:delay():1:0:0", "region:delay(x):1:0:0",
        "region:throw:1:0:", "region:throw:1::0", ":throw:1:0:0"}) {
    EXPECT_FALSE(parse_fault_spec(text).has_value()) << text;
  }
}

// ---- injector semantics ----------------------------------------------------

TEST(Injector, DisarmedHooksAreNoOps) {
  Injector& inj = Injector::instance();
  ASSERT_FALSE(inj.armed());
  EXPECT_NO_THROW(fault::on_site(Site::Region, 0));
  EXPECT_EQ(fault::poison(0, 2.5), 2.5);
  EXPECT_FALSE(fault::should_fail_alloc());
}

TEST(Injector, StepGateDisarmsOutsideSteps) {
  const ScopedFaultSession session(options_for({"region:throw:3:0:0"}));
  Injector& inj = Injector::instance();
  ASSERT_TRUE(inj.armed());
  // No step declared: the hook must stay quiet.
  EXPECT_NO_THROW(fault::on_site(Site::Region, 0));
  inj.set_step(2);  // wrong step
  EXPECT_NO_THROW(fault::on_site(Site::Region, 0));
  inj.set_step(3);  // wrong site / wrong rank
  EXPECT_NO_THROW(fault::on_site(Site::Barrier, 0));
  EXPECT_NO_THROW(fault::on_site(Site::Region, 1));
  EXPECT_THROW(fault::on_site(Site::Region, 0), InjectedFault);
  EXPECT_EQ(inj.injected(), 1u);
  EXPECT_EQ(inj.failed_ranks(), 1);
  inj.set_step(-1);
  inj.clear_failed();
}

TEST(Injector, OneShotFiresExactlyOnce) {
  const ScopedFaultSession session(options_for({"region:throw:*:0:0"}));
  Injector& inj = Injector::instance();
  inj.set_step(1);
  EXPECT_THROW(fault::on_site(Site::Region, 0), InjectedFault);
  EXPECT_NO_THROW(fault::on_site(Site::Region, 0));
  inj.set_step(7);  // stays spent across steps
  EXPECT_NO_THROW(fault::on_site(Site::Region, 0));
  inj.set_step(-1);
  inj.clear_failed();
}

TEST(Injector, PersistKeepsFiring) {
  const ScopedFaultSession session(options_for({"region:throw:*:0:0:persist"}));
  Injector& inj = Injector::instance();
  inj.set_step(1);
  for (int i = 0; i < 3; ++i)
    EXPECT_THROW(fault::on_site(Site::Region, 0), InjectedFault);
  EXPECT_EQ(inj.injected(), 3u);
  inj.set_step(-1);
  inj.clear_failed();
}

TEST(Injector, SeedCountsMatchingCrossings) {
  const ScopedFaultSession session(options_for({"queue:throw:*:1:2"}));
  Injector& inj = Injector::instance();
  inj.set_step(1);
  EXPECT_NO_THROW(fault::on_site(Site::Queue, 1));  // occurrence 0
  EXPECT_NO_THROW(fault::on_site(Site::Queue, 0));  // other rank: no count
  EXPECT_NO_THROW(fault::on_site(Site::Queue, 1));  // occurrence 1
  EXPECT_THROW(fault::on_site(Site::Queue, 1), InjectedFault);  // occurrence 2
  inj.set_step(-1);
  inj.clear_failed();
}

TEST(Injector, ShouldCorruptFiresAtSeededCrossingWithoutFailingRanks) {
  const ScopedFaultSession session(options_for({"ckpt:corrupt:*:0:1"}));
  Injector& inj = Injector::instance();
  inj.set_step(1);
  EXPECT_FALSE(fault::should_corrupt(Site::Ckpt, 0));  // occurrence 0
  EXPECT_FALSE(fault::should_corrupt(Site::Proc, 0));  // other site: no count
  EXPECT_TRUE(fault::should_corrupt(Site::Ckpt, 0));   // occurrence 1
  EXPECT_FALSE(fault::should_corrupt(Site::Ckpt, 0));  // one-shot: spent
  EXPECT_EQ(inj.injected(), 1u);
  // Corruption is not a failure at injection time — detection downstream
  // (readback CRC, frame CRC) decides what fails and who gets blamed.
  EXPECT_EQ(inj.failed_ranks(), 0);
  inj.set_step(-1);
}

TEST(Injector, DelaySleepsInsteadOfThrowing) {
  const ScopedFaultSession session(options_for({"barrier:delay(30):*:0:0"}));
  Injector& inj = Injector::instance();
  inj.set_step(1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(fault::on_site(Site::Barrier, 0));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 25);
  EXPECT_EQ(inj.injected(), 1u);
  EXPECT_EQ(inj.failed_ranks(), 0) << "delays are not failures";
  inj.set_step(-1);
}

TEST(Injector, NanPoisonHitsOnlyReduceValues) {
  const ScopedFaultSession session(options_for({"reduce:nan-poison:*:1:0"}));
  Injector& inj = Injector::instance();
  inj.set_step(1);
  EXPECT_EQ(fault::poison(0, 4.0), 4.0);  // other rank untouched
  EXPECT_TRUE(std::isnan(fault::poison(1, 4.0)));
  EXPECT_EQ(fault::poison(1, 4.0), 4.0);  // one-shot
  EXPECT_EQ(inj.failed_ranks(), 1);
  inj.set_step(-1);
  inj.clear_failed();
}

TEST(Injector, FailedMaskCountsDistinctRanks) {
  Injector& inj = Injector::instance();
  inj.clear_failed();
  inj.note_failed(1);
  inj.note_failed(1);
  inj.note_failed(3);
  EXPECT_EQ(inj.failed_ranks(), 2);
  inj.clear_failed();
  EXPECT_EQ(inj.failed_ranks(), 0);
}

// ---- step runner -----------------------------------------------------------

TEST(StepRunner, SaveRestoreRoundTrips) {
  std::vector<double> a(257, 1.5);
  std::vector<int> b(63, 7);
  fault::StepRunner steps(nullptr, TeamOptions{});
  steps.add(a.data(), a.size() * sizeof(double));
  steps.add(b.data(), b.size() * sizeof(int));
  EXPECT_EQ(steps.spans(), 2u);
  EXPECT_EQ(steps.bytes(), a.size() * sizeof(double) + b.size() * sizeof(int));
  steps.save();
  for (double& v : a) v = -9.0;
  for (int& v : b) v = -9;
  steps.restore();
  for (double v : a) EXPECT_EQ(v, 1.5);
  for (int v : b) EXPECT_EQ(v, 7);
}

TEST(StepRunner, EmptyAndNullSpansAreIgnored) {
  fault::StepRunner steps(nullptr, TeamOptions{});
  steps.add(nullptr, 64);
  std::vector<double> a(4, 1.0);
  steps.add(a.data(), 0);
  EXPECT_EQ(steps.spans(), 0u);
  EXPECT_NO_THROW(steps.save());
  EXPECT_NO_THROW(steps.restore());
}

TEST(StepRunner, UnarmedFastPathRunsBodyOnce) {
  TeamOptions topts;
  WorkerTeam team(2, topts);
  fault::StepRunner steps(&team, topts);
  int calls = 0;
  steps.step(1, [&](WorkerTeam& tm, int nt) {
    ++calls;
    EXPECT_EQ(&tm, &team);
    EXPECT_EQ(nt, 2);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(steps.degraded());
}

TEST(StepRunner, TransientThrowIsRetriedAndStateRestored) {
  const ScopedFaultSession session(options_for({"region:throw:5:1:0"}));
  TeamOptions topts;
  WorkerTeam team(3, topts);
  std::vector<double> x(64, 0.0);
  fault::StepRunner steps(&team, topts);
  steps.add(x.data(), x.size() * sizeof(double));

  int total_attempts = 0;
  for (long it = 1; it <= 8; ++it) {
    int attempts = 0;
    // The Region hook in worker dispatch crosses once per rank per run(), so
    // step 5's first attempt throws on rank 1 and the retry goes clean.
    steps.step(it, [&](WorkerTeam& tm, int nt) {
      ++attempts;
      x[0] += 1.0;  // would double-count without restore
      tm.run([&](int rank) { x[16 + static_cast<std::size_t>(rank)] += 1.0; });
      (void)nt;
    });
    total_attempts += attempts;
    EXPECT_EQ(attempts, it == 5 ? 2 : 1) << "step " << it;
  }
  EXPECT_EQ(total_attempts, 9);
  EXPECT_EQ(Injector::instance().injected(), 1u);
  EXPECT_FALSE(steps.degraded());
  EXPECT_EQ(x[0], 8.0) << "failed attempt must not leak into the state";
  EXPECT_EQ(x[16], 8.0);
}

TEST(StepRunner, UnhealthyResultTriggersRetry) {
  const ScopedFaultSession session(options_for({"reduce:nan-poison:2:0:0"}));
  TeamOptions topts;
  WorkerTeam team(2, topts);
  std::vector<double> x(8, 0.0);
  fault::StepRunner steps(&team, topts);
  steps.add(x.data(), x.size() * sizeof(double));

  double residual = 0.0;
  int attempts = 0;
  steps.step(
      2,
      [&](WorkerTeam&, int) {
        ++attempts;
        // Model a reduction whose partial goes through the poison hook.
        residual = fault::poison(0, 1.0) + fault::poison(1, 1.0);
      },
      [&] { return std::isfinite(residual); });
  EXPECT_EQ(attempts, 2);
  EXPECT_TRUE(std::isfinite(residual));
  EXPECT_FALSE(steps.degraded());
}

TEST(StepRunner, PersistentFaultDegradesWidth) {
  const ScopedFaultSession session(
      options_for({"region:throw:1:2:0:persist"}, /*max_retries=*/1));
  TeamOptions topts;
  WorkerTeam team(3, topts);
  fault::StepRunner steps(&team, topts);

  std::atomic<int> widest{0};
  steps.step(1, [&](WorkerTeam& tm, int nt) {
    widest.store(nt, std::memory_order_relaxed);
    tm.run([](int) {});
  });
  EXPECT_TRUE(steps.degraded());
  EXPECT_EQ(steps.width(), 2) << "one blamed rank shrinks 3 -> 2";
  EXPECT_EQ(widest.load(), 2);
  EXPECT_EQ(steps.team().size(), 2);

  // Later steps stay at the degraded width without re-failing.
  int attempts = 0;
  steps.step(2, [&](WorkerTeam& tm, int nt) {
    ++attempts;
    EXPECT_EQ(nt, 2);
    tm.run([](int) {});
  });
  EXPECT_EQ(attempts, 1);
}

TEST(StepRunner, ExhaustionWithDegradationDisabledThrows) {
  const ScopedFaultSession session(options_for(
      {"region:throw:1:0:0:persist"}, /*max_retries=*/1, /*allow_degraded=*/false));
  TeamOptions topts;
  WorkerTeam team(2, topts);
  fault::StepRunner steps(&team, topts);
  EXPECT_THROW(
      steps.step(1, [&](WorkerTeam& tm, int) { tm.run([](int) {}); }),
      std::runtime_error);
}

// ---- watchdog --------------------------------------------------------------

TEST(Watchdog, StuckBarrierAbortsRegionAndBlamesAbsentRank) {
  Injector::instance().clear_failed();
  TeamOptions topts;
  topts.watchdog_ms = 50;
  WorkerTeam team(3, topts);
  bool aborted = false;
  try {
    team.run([&](int rank) {
      // Rank 0 stays away from the barrier far past the timeout; the others
      // park.  The watchdog must turn the hang into a clean region abort.
      if (rank == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
      team.barrier();
    });
  } catch (const RegionAborted&) {
    aborted = true;
  }
  EXPECT_TRUE(aborted);
  EXPECT_EQ(Injector::instance().failed_ranks(), 1);
  Injector::instance().clear_failed();

  // The team must be reusable after the abort (barrier reset in dispatch).
  std::atomic<int> ran{0};
  team.run([&](int) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(Watchdog, StepRunnerRetriesAfterWatchdogAbort) {
  // No injection specs: the watchdog alone must engage the retry machinery.
  TeamOptions topts;
  topts.watchdog_ms = 50;
  WorkerTeam team(3, topts);
  std::vector<double> x(8, 0.0);
  fault::StepRunner steps(&team, topts);
  steps.add(x.data(), x.size() * sizeof(double));

  std::atomic<bool> hang_once{true};
  int attempts = 0;
  steps.step(1, [&](WorkerTeam& tm, int) {
    ++attempts;
    x[0] += 1.0;
    tm.run([&](int rank) {
      if (rank == 1 && hang_once.exchange(false))
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
      tm.barrier();
    });
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_FALSE(steps.degraded());
  EXPECT_EQ(x[0], 1.0) << "aborted attempt rolled back";
}

}  // namespace
}  // namespace npb
