// Integration tests for the message-passing benchmarks: they must verify
// against the same frozen references as the shared-memory versions, be
// invariant to the rank count, and — in hybrid P-process x T-thread form —
// invariant to the team width and the transport.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/verify.hpp"
#include "cg/cg.hpp"
#include "fault/options.hpp"
#include "ft/ft.hpp"
#include "is/is.hpp"
#include "msg/ep_cg_mpi.hpp"
#include "msg/ft_mpi.hpp"
#include "msg/is_mpi.hpp"
#include "msg/msg_suite.hpp"
#include "npb/registry.hpp"
#include "tolerance.hpp"

namespace npb {
namespace {

class FtMpiRanks : public ::testing::TestWithParam<int> {};

TEST_P(FtMpiRanks, MatchesFrozenReference) {
  const RunResult r = msg::run_ft_mpi(ProblemClass::S, GetParam());
  EXPECT_TRUE(r.verified) << r.verify_detail;
  EXPECT_TRUE(r.reference_checked);
  EXPECT_EQ(r.checksums.size(), 12u);
}

TEST_P(FtMpiRanks, AgreesWithSharedMemoryFt) {
  const RunResult mpi = msg::run_ft_mpi(ProblemClass::S, GetParam());
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  const RunResult shm = run_ft(cfg);
  ASSERT_EQ(mpi.checksums.size(), shm.checksums.size());
  for (std::size_t i = 0; i < shm.checksums.size(); ++i)
    EXPECT_TRUE(approx_equal(mpi.checksums[i], shm.checksums[i]))
        << "checksum " << i << ": " << mpi.checksums[i] << " vs "
        << shm.checksums[i];
}

INSTANTIATE_TEST_SUITE_P(Ranks, FtMpiRanks, ::testing::Values(1, 2, 4, 8));

TEST(FtMpi, RejectsNonDividingRankCounts) {
  EXPECT_THROW(msg::run_ft_mpi(ProblemClass::S, 3), std::invalid_argument);
  EXPECT_THROW(msg::run_ft_mpi(ProblemClass::S, 0), std::invalid_argument);
}

TEST(FtMpi, NonCubicClassW) {
  // W is 128x128x32: exercises distinct per-axis lengths through the
  // transpose. 4 divides both n1 and n2.
  const RunResult r = msg::run_ft_mpi(ProblemClass::W, 4);
  EXPECT_TRUE(r.verified) << r.verify_detail;
}

class IsMpiRanks : public ::testing::TestWithParam<int> {};

TEST_P(IsMpiRanks, MatchesFrozenReferenceExactly) {
  const RunResult r = msg::run_is_mpi(ProblemClass::S, GetParam());
  EXPECT_TRUE(r.verified) << r.verify_detail;
  EXPECT_TRUE(r.reference_checked);
}

TEST_P(IsMpiRanks, BitwiseEqualToSharedMemoryIs) {
  const RunResult mpi = msg::run_is_mpi(ProblemClass::S, GetParam());
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  const RunResult shm = run_is(cfg);
  ASSERT_EQ(mpi.checksums.size(), shm.checksums.size());
  for (std::size_t i = 0; i < shm.checksums.size(); ++i)
    EXPECT_EQ(mpi.checksums[i], shm.checksums[i]) << "checksum " << i;
}

// Rank counts that do NOT divide the key count exercise uneven partitions.
INSTANTIATE_TEST_SUITE_P(Ranks, IsMpiRanks, ::testing::Values(1, 2, 3, 5, 7, 8));

class EpMpiRanks : public ::testing::TestWithParam<int> {};

TEST_P(EpMpiRanks, MatchesFrozenReference) {
  const RunResult r = msg::run_ep_mpi(ProblemClass::S, GetParam());
  EXPECT_TRUE(r.verified) << r.verify_detail;
  EXPECT_TRUE(r.reference_checked);
}

INSTANTIATE_TEST_SUITE_P(Ranks, EpMpiRanks, ::testing::Values(1, 2, 3, 4));

class CgMpiRanks : public ::testing::TestWithParam<int> {};

TEST_P(CgMpiRanks, MatchesFrozenReference) {
  const RunResult r = msg::run_cg_mpi(ProblemClass::S, GetParam());
  EXPECT_TRUE(r.verified) << r.verify_detail;
  EXPECT_TRUE(r.reference_checked);
}

TEST_P(CgMpiRanks, AgreesWithSharedMemoryCgBitwiseAtEqualWorkerCounts) {
  // Same row partition and same rank-ordered reduction association as the
  // threaded conj_grad => identical floating-point trajectories.
  const int workers = GetParam();
  const RunResult mpi = msg::run_cg_mpi(ProblemClass::S, workers);
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.threads = workers;
  const RunResult shm = run_cg(cfg);
  ASSERT_EQ(mpi.checksums.size(), shm.checksums.size());
  for (std::size_t i = 0; i < shm.checksums.size(); ++i)
    EXPECT_EQ(mpi.checksums[i], shm.checksums[i]) << "checksum " << i;
}

INSTANTIATE_TEST_SUITE_P(Ranks, CgMpiRanks, ::testing::Values(1, 2, 3, 4, 6));

// ---- hybrid P-process x T-thread runs --------------------------------------

RunResult run_msg(const char* bench, int procs, int threads,
                  msg::TransportKind transport) {
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = Mode::Msg;
  cfg.threads = threads;
  cfg.msg.procs = procs;
  cfg.msg.transport = transport;
  RunFn fn = msg::find_msg_benchmark(bench);
  EXPECT_NE(fn, nullptr) << bench;
  return fn(cfg);
}

class HybridMsg : public ::testing::TestWithParam<const char*> {};

TEST_P(HybridMsg, TeamWidthNeverChangesResults) {
  // EP folds fixed per-block accumulators, FT's threads write disjoint
  // lines, IS merges integer histograms — all bit-identical at any T.  CG
  // deliberately folds dot partials in thread order (the association the
  // shared-memory conj_grad uses, which CgMpiRanks pins bitwise at equal
  // worker counts), so its team-width promise is the NPB epsilon tier, not
  // bit identity.  T=1 builds no shard team: the shard computes on its own
  // thread through the T=0 path, so it is exact for every benchmark.
  const RunResult serial =
      run_msg(GetParam(), 2, 0, msg::TransportKind::InProc);
  EXPECT_TRUE(serial.verified) << serial.verify_detail;
  for (const int threads : {1, 2}) {
    const RunResult threaded =
        run_msg(GetParam(), 2, threads, msg::TransportKind::InProc);
    EXPECT_TRUE(threaded.verified) << threaded.verify_detail;
    const bool reassociates =
        std::string_view(GetParam()) == "CG" && threads >= 2;
    const auto tol = reassociates ? testing::Tolerance::npb_eps()
                                  : testing::Tolerance::exact();
    const auto cmp =
        testing::compare_checksums(threaded.checksums, serial.checksums, tol);
    EXPECT_TRUE(cmp.passed) << GetParam() << " at T=" << threads << ": "
                            << cmp.detail;
  }
}

TEST_P(HybridMsg, ShmTransportMatchesInProcBitwise) {
  // Same ranks, same schedules, same bytes — the transport must be
  // invisible in the numerics.  (The full P x T matrix lives in the
  // differential suite; this is the tight per-benchmark cell.)
  const RunResult inproc =
      run_msg(GetParam(), 2, 1, msg::TransportKind::InProc);
  const RunResult shm = run_msg(GetParam(), 2, 1, msg::TransportKind::Shm);
  EXPECT_TRUE(shm.verified) << shm.verify_detail;
  EXPECT_EQ(shm.procs, 2);
  ASSERT_EQ(inproc.checksums.size(), shm.checksums.size());
  for (std::size_t i = 0; i < inproc.checksums.size(); ++i)
    EXPECT_EQ(inproc.checksums[i], shm.checksums[i]) << "checksum " << i;
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, HybridMsg,
                         ::testing::Values("EP", "CG", "FT", "IS"));

TEST(HybridMsg, ShmRunMergesOneSnapshotPerShard) {
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = Mode::Msg;
  cfg.msg.procs = 3;
  cfg.msg.transport = msg::TransportKind::Shm;
  const RunResult r =
      run_instrumented(msg::find_msg_benchmark("IS"), cfg);
  EXPECT_TRUE(r.verified) << r.verify_detail;
  EXPECT_EQ(r.procs, 3);
  ASSERT_EQ(r.shards.size(), 3u);
  for (int rank = 0; rank < 3; ++rank)
    EXPECT_EQ(r.shards[static_cast<std::size_t>(rank)].rank, rank);
}

#ifndef NPB_OBS_DISABLED
TEST(HybridMsg, OneThreadShardsDispatchNoTeamRegion) {
  // A 1-thread shard runs on its own process thread, like an MPI rank with
  // one OpenMP thread: no shard team, so no team dispatch in any shard's
  // snapshot.  From T=2 on, each shard drives its own team.
  for (const int threads : {1, 2}) {
    RunConfig cfg;
    cfg.cls = ProblemClass::S;
    cfg.mode = Mode::Msg;
    cfg.threads = threads;
    cfg.msg.procs = 2;
    cfg.msg.transport = msg::TransportKind::Shm;
    const RunResult r = run_instrumented(msg::find_msg_benchmark("CG"), cfg);
    EXPECT_TRUE(r.verified) << r.verify_detail;
    ASSERT_EQ(r.shards.size(), 2u) << "T=" << threads;
    for (const obs::ShardSnapshot& shard : r.shards) {
      if (threads == 1)
        EXPECT_EQ(shard.snap.dispatches_count, 0u) << "rank " << shard.rank;
      else
        EXPECT_GE(shard.snap.dispatches_count, 1u) << "rank " << shard.rank;
    }
  }
}
#endif

// ---- losing a shard mid-run ------------------------------------------------

TEST(MsgChaos, LostShardIsBlamedDegradedAndStillVerifies) {
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = Mode::Msg;
  cfg.msg.procs = 2;
  cfg.msg.transport = msg::TransportKind::Shm;
  const auto spec = fault::parse_fault_spec("proc:kill:*:1:0");
  ASSERT_TRUE(spec.has_value());
  cfg.fault.specs.push_back(*spec);
  const RunResult r =
      run_instrumented(msg::find_msg_benchmark("IS"), cfg);
  // Rank 1 was SIGKILLed at its first transport crossing; the run must blame
  // it in obs, re-fork at width 1, and still verify — never hang or crash.
  EXPECT_TRUE(r.verified) << r.verify_detail;
  EXPECT_EQ(r.procs, 1);
  EXPECT_EQ(r.obs.lost_shard_count, 1u);
  // Slot r+1 is rank r: the blame lands in rank 1's slot and nowhere else.
  EXPECT_EQ(r.obs.slots(obs::counter_id("fault/lost_shard")).count,
            (std::vector<std::uint64_t>{0, 0, 1}));
  EXPECT_EQ(r.obs.degraded_width_count, 1u);
}

TEST(MsgChaos, CorruptFrameIsBlamedShrunkPastAndStillVerifies) {
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = Mode::Msg;
  cfg.msg.procs = 2;
  cfg.msg.transport = msg::TransportKind::Shm;
  const auto spec = fault::parse_fault_spec("proc:corrupt:*:1:0");
  ASSERT_TRUE(spec.has_value());
  cfg.fault.specs.push_back(*spec);
  const RunResult r =
      run_instrumented(msg::find_msg_benchmark("IS"), cfg);
  // Rank 1's first in-step send rotted on the wire; the receiver's frame CRC
  // must detect it (msg/crc_fail, in the sender rank's slot), the run
  // must shrink past the untrustworthy sender exactly like a crashed shard,
  // and the retried width-1 run must still verify — the corruption may cost
  // a retry, never a silently wrong result.
  EXPECT_TRUE(r.verified) << r.verify_detail;
  EXPECT_EQ(r.procs, 1);
  EXPECT_GE(r.obs.msg_crc_fail_count, 1u);
  const obs::RankSlots& blamed = r.obs.slots(obs::counter_id("msg/crc_fail"));
  ASSERT_EQ(blamed.count.size(), 3u) << "only rank 1 (slot 2) is blamed";
  EXPECT_EQ(blamed.count[0] + blamed.count[1], 0u);
  EXPECT_GE(blamed.count[2], 1u);
  EXPECT_EQ(r.obs.degraded_width_count, 1u);
}

TEST(MsgChaos, NoDegradeTurnsALostShardIntoAnError) {
  RunConfig cfg;
  cfg.cls = ProblemClass::S;
  cfg.mode = Mode::Msg;
  cfg.msg.procs = 2;
  cfg.msg.transport = msg::TransportKind::Shm;
  cfg.fault.allow_degraded = false;
  const auto spec = fault::parse_fault_spec("proc:kill:*:1:0");
  ASSERT_TRUE(spec.has_value());
  cfg.fault.specs.push_back(*spec);
  EXPECT_THROW(msg::run_is_msg(cfg), std::runtime_error);
}

}  // namespace
}  // namespace npb
