// Unit and property tests for the message-passing runtime: the in-process
// transport (World), the Communicator collectives at awkward rank counts,
// and the forked shared-memory transport (run_shm).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>

#include "fault/fault.hpp"
#include "fault/options.hpp"
#include "msg/communicator.hpp"
#include "msg/shm.hpp"

namespace npb::msg {
namespace {

TEST(Channel, DeliversTaggedMessagesInOrder) {
  Channel ch;
  ch.send(1, {1.0, 2.0});
  ch.send(2, {9.0});
  ch.send(1, {3.0});
  EXPECT_EQ(ch.recv(2), (std::vector<double>{9.0}));
  EXPECT_EQ(ch.recv(1), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(ch.recv(1), (std::vector<double>{3.0}));
}

TEST(World, RunsEveryRankOnce) {
  World w(4);
  std::atomic<int> hits{0};
  std::atomic<int> rank_sum{0};
  w.run([&](Communicator& c) {
    hits++;
    rank_sum += c.rank();
    EXPECT_EQ(c.size(), 4);
  });
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(rank_sum.load(), 0 + 1 + 2 + 3);
}

TEST(World, PropagatesRankException) {
  World w(2);
  EXPECT_THROW(w.run([](Communicator& c) {
    if (c.rank() == 1) throw std::runtime_error("rank boom");
  }),
               std::runtime_error);
}

TEST(Communicator, PingPong) {
  World w(2);
  w.run([](Communicator& c) {
    double v = 0.0;
    if (c.rank() == 0) {
      v = 42.0;
      c.send(1, 5, std::span<const double>(&v, 1));
      c.recv(1, 6, std::span<double>(&v, 1));
      EXPECT_EQ(v, 43.0);
    } else {
      c.recv(0, 5, std::span<double>(&v, 1));
      v += 1.0;
      c.send(0, 6, std::span<const double>(&v, 1));
    }
  });
}

TEST(Communicator, RecvSizeMismatchThrows) {
  World w(2);
  EXPECT_THROW(w.run([](Communicator& c) {
    double v[2] = {1, 2};
    if (c.rank() == 0) {
      c.send(1, 1, std::span<const double>(v, 1));
    } else {
      c.recv(0, 1, std::span<double>(v, 2));
    }
  }),
               std::length_error);
}

class Collectives : public ::testing::TestWithParam<int> {};

TEST_P(Collectives, AllreduceSumMatchesSerialAndIsUniform) {
  const int n = GetParam();
  World w(n);
  std::vector<double> results(static_cast<std::size_t>(n));
  w.run([&](Communicator& c) {
    results[static_cast<std::size_t>(c.rank())] =
        c.allreduce_sum(static_cast<double>(c.rank() + 1));
  });
  const double expect = n * (n + 1) / 2.0;
  for (double r : results) EXPECT_EQ(r, expect);
}

TEST_P(Collectives, VectorAllreduce) {
  const int n = GetParam();
  World w(n);
  std::vector<std::vector<double>> results(static_cast<std::size_t>(n));
  w.run([&](Communicator& c) {
    std::vector<double> v{static_cast<double>(c.rank()), 1.0};
    c.allreduce_sum(v);
    results[static_cast<std::size_t>(c.rank())] = v;
  });
  for (const auto& v : results) {
    EXPECT_EQ(v[0], n * (n - 1) / 2.0);
    EXPECT_EQ(v[1], static_cast<double>(n));
  }
}

TEST_P(Collectives, BroadcastReachesAll) {
  const int n = GetParam();
  World w(n);
  std::vector<double> got(static_cast<std::size_t>(n));
  w.run([&](Communicator& c) {
    double v = c.rank() == 1 % n ? 7.5 : 0.0;
    c.broadcast(1 % n, std::span<double>(&v, 1));
    got[static_cast<std::size_t>(c.rank())] = v;
  });
  for (double v : got) EXPECT_EQ(v, 7.5);
}

TEST_P(Collectives, AlltoallTransposesBlocks) {
  const int n = GetParam();
  World w(n);
  std::atomic<bool> bad{false};
  w.run([&](Communicator& c) {
    const std::size_t block = 3;
    std::vector<double> sendbuf(block * static_cast<std::size_t>(n));
    std::vector<double> recvbuf(block * static_cast<std::size_t>(n));
    for (int peer = 0; peer < n; ++peer)
      for (std::size_t b = 0; b < block; ++b)
        sendbuf[static_cast<std::size_t>(peer) * block + b] =
            100.0 * c.rank() + 10.0 * peer + static_cast<double>(b);
    c.alltoall(sendbuf, recvbuf, block);
    for (int peer = 0; peer < n; ++peer)
      for (std::size_t b = 0; b < block; ++b) {
        const double expect = 100.0 * peer + 10.0 * c.rank() + static_cast<double>(b);
        if (recvbuf[static_cast<std::size_t>(peer) * block + b] != expect) bad = true;
      }
  });
  EXPECT_FALSE(bad.load());
}

TEST_P(Collectives, AlltoallvMovesVariableLoads) {
  const int n = GetParam();
  World w(n);
  std::atomic<bool> bad{false};
  w.run([&](Communicator& c) {
    // Rank r sends r+peer copies of value (100r + peer) to each peer.
    std::vector<std::vector<double>> out(static_cast<std::size_t>(n));
    for (int peer = 0; peer < n; ++peer)
      out[static_cast<std::size_t>(peer)]
          .assign(static_cast<std::size_t>(c.rank() + peer), 100.0 * c.rank() + peer);
    const std::vector<double> in = c.alltoallv(out);
    // Expect, in rank order: src+myrank copies of 100*src + myrank.
    std::size_t at = 0;
    for (int src = 0; src < n; ++src) {
      const auto count = static_cast<std::size_t>(src + c.rank());
      for (std::size_t q = 0; q < count; ++q) {
        if (at >= in.size() || in[at] != 100.0 * src + c.rank()) bad = true;
        ++at;
      }
    }
    if (at != in.size()) bad = true;
  });
  EXPECT_FALSE(bad.load());
}

TEST_P(Collectives, BarrierOrdersSideEffects) {
  const int n = GetParam();
  World w(n);
  std::vector<std::atomic<int>> stage(static_cast<std::size_t>(n));
  std::atomic<bool> bad{false};
  w.run([&](Communicator& c) {
    for (int s = 0; s < 20; ++s) {
      stage[static_cast<std::size_t>(c.rank())] = s;
      c.barrier();
      for (const auto& other : stage)
        if (other.load() < s) bad = true;
      c.barrier();
    }
  });
  EXPECT_FALSE(bad.load());
}

TEST_P(Collectives, AllgathervAssemblesRankBlocks) {
  const int n = GetParam();
  World w(n);
  std::atomic<bool> bad{false};
  w.run([&](Communicator& c) {
    // Rank r contributes r+1 copies of the value r.
    std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
    for (int t = 0; t < n; ++t)
      offsets[static_cast<std::size_t>(t) + 1] =
          offsets[static_cast<std::size_t>(t)] + static_cast<std::size_t>(t + 1);
    std::vector<double> all(offsets.back(), -1.0);
    const auto lo = offsets[static_cast<std::size_t>(c.rank())];
    const auto cnt = static_cast<std::size_t>(c.rank() + 1);
    for (std::size_t q = 0; q < cnt; ++q)
      all[lo + q] = static_cast<double>(c.rank());
    c.allgatherv(std::span<const double>(all.data() + lo, cnt),
                 std::span<double>(all.data(), all.size()), offsets);
    for (int src = 0; src < n; ++src)
      for (std::size_t q = 0; q < static_cast<std::size_t>(src + 1); ++q)
        if (all[offsets[static_cast<std::size_t>(src)] + q] !=
            static_cast<double>(src))
          bad = true;
  });
  EXPECT_FALSE(bad.load());
}

// Non-power-of-two sizes (3, 5, 7) exercise the shifted schedules' uneven
// wrap-around; 1 the self-loop fast paths.
INSTANTIATE_TEST_SUITE_P(RankCounts, Collectives,
                         ::testing::Values(1, 2, 3, 5, 7, 8));

// ---- alltoallv count validation --------------------------------------------

TEST(CheckedCount, AcceptsExactNonNegativeIntegers) {
  EXPECT_EQ(Communicator::checked_count(0.0), 0u);
  EXPECT_EQ(Communicator::checked_count(5.0), 5u);
  EXPECT_EQ(Communicator::checked_count(1048576.0), 1048576u);
}

TEST(CheckedCount, RejectsCorruptCountPayloads) {
  EXPECT_THROW(Communicator::checked_count(-1.0), std::length_error);
  EXPECT_THROW(Communicator::checked_count(0.5), std::length_error);
  EXPECT_THROW(Communicator::checked_count(3.0000001), std::length_error);
  EXPECT_THROW(Communicator::checked_count(1.0e16), std::length_error);
  EXPECT_THROW(Communicator::checked_count(std::nan("")), std::length_error);
}

// ---- the forked shared-memory transport ------------------------------------

TEST(ShmTransport, CollectivesMatchSerialAcrossProcesses) {
  const fault::FaultOptions fo;
  const ShmRunOutcome out = run_shm(3, fo, [](Communicator& c) {
    std::vector<double> r;
    r.push_back(c.allreduce_sum(static_cast<double>(c.rank() + 1)));
    double b = c.rank() == 1 ? 7.5 : 0.0;
    c.broadcast(1, std::span<double>(&b, 1));
    r.push_back(b);
    return r;
  });
  ASSERT_TRUE(out.ok()) << out.error;
  ASSERT_EQ(out.payloads.size(), 3u);
  for (const auto& p : out.payloads) {
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0], 6.0);
    EXPECT_EQ(p[1], 7.5);
  }
}

TEST(ShmTransport, AlltoallvCrossesProcessBoundary) {
  const fault::FaultOptions fo;
  const ShmRunOutcome out = run_shm(4, fo, [](Communicator& c) {
    const int n = c.size();
    std::vector<std::vector<double>> outgoing(static_cast<std::size_t>(n));
    for (int peer = 0; peer < n; ++peer)
      outgoing[static_cast<std::size_t>(peer)].assign(
          static_cast<std::size_t>(c.rank() + peer), 100.0 * c.rank() + peer);
    const std::vector<double> in = c.alltoallv(outgoing);
    double sum = 0.0;
    for (double v : in) sum += v;
    return std::vector<double>{static_cast<double>(in.size()), sum};
  });
  ASSERT_TRUE(out.ok()) << out.error;
  for (int rank = 0; rank < 4; ++rank) {
    const auto& p = out.payloads[static_cast<std::size_t>(rank)];
    std::size_t want = 0;
    double want_sum = 0.0;
    for (int src = 0; src < 4; ++src) {
      want += static_cast<std::size_t>(src + rank);
      want_sum += static_cast<double>(src + rank) * (100.0 * src + rank);
    }
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0], static_cast<double>(want));
    EXPECT_EQ(p[1], want_sum);
  }
}

TEST(ShmTransport, StreamsMessagesLargerThanTheRing) {
  // kShmRingBytes/8 doubles fit in one ring; send four rings' worth so the
  // chunked producer/consumer handoff is exercised in both directions.
  const std::size_t big = (kShmRingBytes / sizeof(double)) * 4 + 17;
  const fault::FaultOptions fo;
  const ShmRunOutcome out = run_shm(2, fo, [big](Communicator& c) {
    std::vector<double> buf(big);
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < big; ++i)
        buf[i] = static_cast<double>(i % 8191);
      c.send(1, 42, buf);
      c.recv(1, 43, std::span<double>(buf.data(), 1));
      return std::vector<double>{buf[0]};
    }
    c.recv(0, 42, buf);
    double bad = 0.0;
    for (std::size_t i = 0; i < big; ++i)
      if (buf[i] != static_cast<double>(i % 8191)) bad += 1.0;
    c.send(0, 43, std::span<const double>(&bad, 1));
    return std::vector<double>{bad};
  });
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.payloads[0].at(0), 0.0);  // echoed mismatch count
  EXPECT_EQ(out.payloads[1].at(0), 0.0);
}

TEST(ShmTransport, WorkerExceptionBecomesErrorNotHang) {
  const fault::FaultOptions fo;
  const ShmRunOutcome out = run_shm(2, fo, [](Communicator& c) {
    if (c.rank() == 1) throw std::runtime_error("shard boom");
    c.barrier();  // would deadlock if the peer's death went unnoticed
    return std::vector<double>{1.0};
  });
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("shard boom"), std::string::npos);
}

TEST(ShmTransport, CorruptFrameIsDetectedAndBlamesTheSender) {
  // proc:corrupt models bit rot between CRC stamping and the ring write in
  // rank 1's first in-step send.  The receiver's frame verification must
  // catch it and the outcome must blame the *sender* — never deliver the
  // rotten payload as data.
  fault::FaultOptions fo;
  const auto spec = fault::parse_fault_spec("proc:corrupt:*:1:0");
  ASSERT_TRUE(spec.has_value());
  fo.specs.push_back(*spec);
  const ShmRunOutcome out = run_shm(2, fo, [](Communicator& c) {
    fault::Injector::instance().set_step(1);
    const double sum = c.allreduce_sum(static_cast<double>(c.rank() + 1));
    fault::Injector::instance().set_step(-1);
    return std::vector<double>{sum};
  });
  EXPECT_FALSE(out.ok());
  ASSERT_EQ(out.crc_blamed.size(), 1u);
  EXPECT_EQ(out.crc_blamed[0], 1);
}

TEST(ShmTransport, CorruptEmptyFrameIsCaughtByTheHeaderCrc) {
  // Zero-payload messages (e.g. an alltoallv leg with nothing for a peer)
  // have no payload bytes to rot, so the injection flips the frame's
  // payload-CRC field instead — which the header CRC covers.  Detection
  // must not depend on a payload existing.
  fault::FaultOptions fo;
  const auto spec = fault::parse_fault_spec("proc:corrupt:*:0:0");
  ASSERT_TRUE(spec.has_value());
  fo.specs.push_back(*spec);
  const ShmRunOutcome out = run_shm(2, fo, [](Communicator& c) {
    fault::Injector::instance().set_step(1);
    if (c.rank() == 0) {
      c.send(1, 7, {});  // empty frame: header + stamped CRC of zero bytes
    } else {
      c.recv(0, 7, {});
    }
    fault::Injector::instance().set_step(-1);
    return std::vector<double>{1.0};
  });
  EXPECT_FALSE(out.ok());
  ASSERT_EQ(out.crc_blamed.size(), 1u);
  EXPECT_EQ(out.crc_blamed[0], 0);
}

TEST(ShmTransport, RejectsOutOfRangeProcCounts) {
  const fault::FaultOptions fo;
  const ShardBody noop = [](Communicator&) { return std::vector<double>{}; };
  EXPECT_THROW(run_shm(0, fo, noop), std::invalid_argument);
  EXPECT_THROW(run_shm(kMaxShmProcs + 1, fo, noop), std::invalid_argument);
}

}  // namespace
}  // namespace npb::msg
