// Race-detector stress for the two reusable synchronization objects that get
// re-armed between parallel passes: the chunk-claiming ChunkQueue (reset by
// one rank behind a team barrier between sweeps) and PipelineSync::reset
// (same protocol, between wavefront sweeps).  The assertions double as
// functional checks, but the real target is the TSan preset: every write the
// sweeps make to plain (non-atomic) shared memory is ordered only by the
// barrier/claim protocol under test, so any missing happens-before edge
// shows up as a reported race.
//
// 7 ranks everywhere: odd and larger than the typical core count, so claims
// interleave and at least some ranks contend on every cursor transition.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mem/mem.hpp"
#include "msg/channel.hpp"
#include "par/pipeline.hpp"
#include "par/schedule.hpp"
#include "par/task.hpp"
#include "par/team.hpp"

namespace npb {
namespace {

constexpr int kRanks = 7;

class StressBarrierKinds : public ::testing::TestWithParam<BarrierKind> {};

// Sweeps alternate dynamic and guided so the queue is re-armed with a
// different claiming mode each time.  Each sweep writes the sweep number
// into a plain int per claimed index; exactly-once claiming plus the
// barrier+reset protocol make those writes race-free, and the final pass
// checks every cell saw the last sweep.
TEST_P(StressBarrierKinds, ChunkQueueResetBehindBarrierIsRaceFree) {
  const long n = 4096;
  const int sweeps = 200;
  WorkerTeam team(kRanks, TeamOptions{GetParam(), 0});
  ChunkQueue queue;
  queue.reset(0, n, Schedule::dynamic(13), kRanks);
  std::vector<int> cell(static_cast<std::size_t>(n), -1);
  std::atomic<long> claimed_total{0};

  team.run([&](int rank) {
    for (int s = 0; s < sweeps; ++s) {
      long mine = 0;
      Range c;
      while (queue.try_claim(c)) {
        for (long i = c.lo; i < c.hi; ++i)
          cell[static_cast<std::size_t>(i)] = s;  // plain write: exactly-once
        mine += c.size();
      }
      claimed_total.fetch_add(mine, std::memory_order_relaxed);
      team.barrier();
      if (rank == 0) {
        // Re-arm for the next sweep, alternating the claiming mode.  Claims
        // are separated from this write by the barriers on both sides.
        const Schedule next = (s % 2 == 0) ? Schedule::guided(3)
                                           : Schedule::dynamic(13);
        queue.reset(0, n, next, kRanks);
      }
      team.barrier();
    }
  });

  EXPECT_EQ(claimed_total.load(), static_cast<long>(sweeps) * n);
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(cell[static_cast<std::size_t>(i)], sweeps - 1)
        << "index " << i << " missed the final sweep";
}

// Wavefront pipeline with plain per-(rank, step) payload cells: rank r
// writes its slot at each step, rank r+1 reads the neighbour's slot after
// wait_for.  post/wait_for must provide the release/acquire edge, and the
// rank-0 reset between sweeps must be fully ordered by the surrounding
// barriers.
TEST_P(StressBarrierKinds, PipelineResetBetweenSweepsIsRaceFree) {
  const long steps = 64;
  const int sweeps = 100;
  WorkerTeam team(kRanks, TeamOptions{GetParam(), 0});
  PipelineSync sync(kRanks);
  sync.reset();
  std::vector<long> payload(static_cast<std::size_t>(kRanks * steps), 0);
  auto slot = [&](int rank, long step) -> long& {
    return payload[static_cast<std::size_t>(rank) *
                       static_cast<std::size_t>(steps) +
                   static_cast<std::size_t>(step)];
  };
  std::atomic<bool> bad{false};

  team.run([&](int rank) {
    for (int s = 0; s < sweeps; ++s) {
      for (long step = 0; step < steps; ++step) {
        if (rank > 0) {
          sync.wait_for(rank - 1, step);
          // Neighbour's payload write for this step must be visible now.
          if (slot(rank - 1, step) != s * 1000 + step) bad = true;
        }
        slot(rank, step) = s * 1000 + step;  // plain write
        sync.post(rank, step);
      }
      team.barrier();
      if (rank == 0) sync.reset();
      team.barrier();
    }
  });

  EXPECT_FALSE(bad.load()) << "a rank observed a stale neighbour payload";
  for (int r = 0; r < kRanks; ++r)
    for (long step = 0; step < steps; ++step)
      ASSERT_EQ(slot(r, step), (sweeps - 1) * 1000 + step);
}

INSTANTIATE_TEST_SUITE_P(Both, StressBarrierKinds,
                         ::testing::Values(BarrierKind::CondVar,
                                           BarrierKind::SpinSense));

// Two queues drained back-to-back inside one dispatch (the IS ranking
// pattern: keys then buckets), re-armed by the master between dispatches.
TEST(ChunkQueueStress, TwoQueuesPerDispatchMatchIsRankingProtocol) {
  const long nkeys = 8192, nbuckets = 1024;
  const int iterations = 50;
  WorkerTeam team(kRanks);
  ChunkQueue keys, buckets;
  std::atomic<long> key_total{0}, bucket_total{0};
  for (int it = 0; it < iterations; ++it) {
    keys.reset(0, nkeys, Schedule::guided(), kRanks);
    buckets.reset(0, nbuckets, Schedule::dynamic(32), kRanks);
    team.run([&](int rank) {
      long mine = claim_chunks(keys, rank, [](long, long) {});
      key_total.fetch_add(mine, std::memory_order_relaxed);
      team.barrier();
      mine = claim_chunks(buckets, rank, [](long, long) {});
      bucket_total.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(key_total.load(), static_cast<long>(iterations) * nkeys);
  EXPECT_EQ(bucket_total.load(), static_cast<long>(iterations) * nbuckets);
}

// Arena checkout under contention: team workers allocate per-rank scratch
// from their master's Arena at once, so acquire/release must be safe from
// many threads at once.  Every rank loops acquire -> write the whole block
// -> release over a handful of shapes deliberately chosen to collide, so
// pooled blocks are recycled between threads constantly.  TSan flags any
// unlocked pool-state access; the writes check that no block is ever handed
// to two owners at once (each byte pattern must read back intact).
TEST(ArenaStress, ConcurrentAcquireReleaseIsRaceFreeAndExclusive) {
  constexpr std::size_t kShapes[] = {4096, 4096, 65536, 65536, 1 << 20};
  const int rounds = 400;
  mem::Arena arena;
  WorkerTeam team(kRanks);
  std::atomic<bool> corrupted{false};

  team.run([&](int rank) {
    for (int r = 0; r < rounds; ++r) {
      const std::size_t bytes = kShapes[(rank + r) % 5];
      unsigned char* p = static_cast<unsigned char*>(
          arena.acquire(bytes, 64, /*huge=*/false));
      const unsigned char tag =
          static_cast<unsigned char>((rank * 31 + r) & 0xff);
      // Touch first/last/stride bytes: enough to catch a double-owned block
      // without turning the test into a memset benchmark.
      for (std::size_t i = 0; i < bytes; i += 257) p[i] = tag;
      p[bytes - 1] = tag;
      for (std::size_t i = 0; i < bytes; i += 257)
        if (p[i] != tag) corrupted = true;
      if (p[bytes - 1] != tag) corrupted = true;
      arena.release(p);
    }
  });

  EXPECT_FALSE(corrupted.load())
      << "a pooled block was handed to two owners concurrently";
}

// The msg layer's Channel keeps a per-tag mailbox index and wakes with
// notify_one when at most one receiver can be waiting.  The targeted wakeup
// is only sound if every (tag, payload) handoff carries a happens-before
// edge and no receiver can sleep through a send it should have consumed —
// exactly the properties TSan plus this interleaving hammer check.  Many
// producers post to many tags out of order while one consumer per tag
// drains in order; plain (non-atomic) payload contents are then read on the
// consumer side, so a missing edge is a reported race, and a lost wakeup is
// a hang (caught by the test timeout, not a flaky pass).
TEST(MsgChannelStress, ManyTagsManySendersTargetedWakeupsAreRaceFree) {
  constexpr int kTags = 5;
  constexpr int kMessagesPerTag = 400;
  msg::Channel ch;
  WorkerTeam team(kTags + 2, TeamOptions{BarrierKind::CondVar, 0});
  std::atomic<bool> bad{false};

  team.run([&](int rank) {
    if (rank < kTags) {
      // One consumer per tag: ordered delivery within a tag is part of the
      // contract, so the payload sequence must come back monotonically.
      for (int m = 0; m < kMessagesPerTag; ++m) {
        const std::vector<double> got = ch.recv(rank);
        if (got.size() != 2 || got[0] != static_cast<double>(m) ||
            got[1] != static_cast<double>(rank))
          bad = true;
      }
    } else {
      // Two producers own disjoint tag sets (per-tag order is part of the
      // contract, so a tag has exactly one sender) and interleave their
      // tags message by message, keeping several consumers parked and
      // waking concurrently at all times.
      const int parity = rank - kTags;  // 0 -> even tags, 1 -> odd tags
      for (int m = 0; m < kMessagesPerTag; ++m)
        for (int tag = parity; tag < kTags; tag += 2)
          ch.send(tag, {static_cast<double>(m), static_cast<double>(tag)});
    }
  });

  EXPECT_FALSE(bad.load()) << "a tagged message was lost, reordered or torn";
}

// ---- StealDeque: owner vs concurrent thieves ------------------------------

// The Chase-Lev deque under its real access pattern: one owner thread
// pushing waves of jobs and draining its own LIFO end while several thief
// threads hammer the FIFO end with steal_some.  Every job must execute
// exactly once — a lost top-CAS that double-hands a job, or a pop/steal
// race on the last element, shows up as a hit count != 1; a missing
// happens-before edge on the buffer shows up under the TSan preset.
TEST(StressStealDeque, OwnerAndThievesClaimEveryJobExactlyOnce) {
  constexpr int kThieves = 3;
  constexpr int kWaves = 200;
  constexpr int kJobsPerWave = 64;
  constexpr int kTotal = kWaves * kJobsPerWave;

  struct StressJob : task::Job {
    std::atomic<int>* hits = nullptr;
    std::atomic<long>* executed = nullptr;
  };
  std::vector<StressJob> jobs(kTotal);
  std::vector<std::atomic<int>> hits(kTotal);
  std::atomic<long> executed{0};
  for (int i = 0; i < kTotal; ++i) {
    jobs[static_cast<std::size_t>(i)].hits =
        &hits[static_cast<std::size_t>(i)];
    jobs[static_cast<std::size_t>(i)].executed = &executed;
    jobs[static_cast<std::size_t>(i)].invoke = [](task::Job* j) {
      auto* self = static_cast<StressJob*>(j);
      self->hits->fetch_add(1, std::memory_order_relaxed);
      self->executed->fetch_add(1, std::memory_order_relaxed);
    };
  }

  task::StealDeque dq(/*capacity=*/8);  // force growth under contention
  std::atomic<bool> stop{false};
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      task::Job* loot[4];
      while (!stop.load(std::memory_order_acquire)) {
        const int got = dq.steal_some(loot, 4);
        for (int i = 0; i < got; ++i) loot[i]->run();
        if (got == 0) std::this_thread::yield();
      }
    });
  }

  // Owner: push a wave, drain own end (thieves eat the old half), repeat.
  for (int w = 0; w < kWaves; ++w) {
    for (int i = 0; i < kJobsPerWave; ++i)
      dq.push(&jobs[static_cast<std::size_t>(w * kJobsPerWave + i)]);
    while (task::Job* j = dq.pop()) j->run();
  }
  while (executed.load(std::memory_order_acquire) < kTotal)
    std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  for (int i = 0; i < kTotal; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << "job " << i << " executed a wrong number of times";
  EXPECT_EQ(dq.size(), 0);
  EXPECT_GT(dq.max_depth(), 0);
}

}  // namespace
}  // namespace npb
