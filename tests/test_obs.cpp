// Tests for the observability layer (src/obs): interning, per-rank
// accumulation, ScopedTimer semantics, team counters, the counter table's
// reach into the report emitters and the shard wire format (with its
// hostile-input battery), the pinned report schema, and the no-allocation
// guarantee on the hot path.
//
// The registry is a process-wide singleton, so every test starts with
// reset() and tests only inspect regions they themselves interned (names are
// unique per test where aggregation matters).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/wtime.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/snapshot_io.hpp"
#include "par/team.hpp"

// ---- global allocation counter (this TU only) ------------------------------

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

// ---- registry basics -------------------------------------------------------

TEST(ObsRegistry, InternIsIdempotentAndStableAcrossReset) {
  auto& reg = obs::ObsRegistry::instance();
  const obs::RegionId a = obs::region("t_intern/a");
  const obs::RegionId b = obs::region("t_intern/b");
  EXPECT_GE(a, obs::kReservedRegions);
  EXPECT_NE(a, b);
  EXPECT_EQ(obs::region("t_intern/a"), a);
  reg.reset();
  EXPECT_EQ(obs::region("t_intern/a"), a) << "ids must survive reset";
}

TEST(ObsRegistry, RecordAccumulatesAndSnapshotTrimsRankSlots) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_record/phase");
  reg.record(id, -1, 1.0);  // master -> slot 0
  reg.record(id, -1, 0.5);
  reg.record(id, 2, 0.25);  // worker rank 2 -> slot 3
  const obs::Snapshot snap = reg.snapshot();
  const obs::RegionStats* st = nullptr;
  for (const auto& r : snap.regions)
    if (r.name == "t_record/phase") st = &r;
  ASSERT_NE(st, nullptr);
  EXPECT_DOUBLE_EQ(st->seconds, 1.75);
  EXPECT_EQ(st->count, 3u);
  ASSERT_EQ(st->rank_seconds.size(), 4u) << "trimmed to highest active slot";
  EXPECT_DOUBLE_EQ(st->rank_seconds[0], 1.5);
  EXPECT_EQ(st->rank_count[0], 2u);
  EXPECT_DOUBLE_EQ(st->rank_seconds[3], 0.25);
  EXPECT_EQ(st->rank_count[3], 1u);
}

TEST(ObsRegistry, OutOfRangeIdsAndRanksAreDropped) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  reg.record(-1, 0, 1.0);
  reg.record(obs::kMaxRegions + 7, 0, 1.0);
  const obs::RegionId id = obs::region("t_bounds/r");
  reg.record(id, obs::kMaxRanks, 1.0);  // slot kMaxRanks+1: out of range
  reg.record(id, -2, 1.0);
  const obs::Snapshot snap = reg.snapshot();
  for (const auto& r : snap.regions) EXPECT_NE(r.name, "t_bounds/r");
}

TEST(ObsRegistry, ResetZeroesCountersOnly) {
  auto& reg = obs::ObsRegistry::instance();
  const obs::RegionId id = obs::region("t_reset/r");
  reg.record(id, -1, 3.0);
  reg.reset();
  const obs::Snapshot snap = reg.snapshot();
  for (const auto& r : snap.regions) EXPECT_NE(r.name, "t_reset/r");
  EXPECT_EQ(snap.run_count, 0u);
  EXPECT_DOUBLE_EQ(snap.barrier_wait_seconds, 0.0);
}

// ---- ScopedTimer -----------------------------------------------------------

TEST(ScopedTimer, ElapsedIsNonNegativeAndMonotonic) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_timer/r");
  { obs::ScopedTimer t(id); }
  obs::Snapshot s1 = reg.snapshot();
  double first = -1.0;
  for (const auto& r : s1.regions)
    if (r.name == "t_timer/r") first = r.seconds;
  ASSERT_GE(first, 0.0);
  {
    obs::ScopedTimer t(id);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  obs::Snapshot s2 = reg.snapshot();
  double second = -1.0;
  std::uint64_t count = 0;
  for (const auto& r : s2.regions)
    if (r.name == "t_timer/r") {
      second = r.seconds;
      count = r.count;
    }
  EXPECT_GE(second, first) << "accumulated elapsed must not decrease";
  EXPECT_EQ(count, 2u);
}

TEST(ScopedTimer, NestedRegionsBothRecordAndInnerDoesNotExceedOuter) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId outer = obs::region("t_nest/outer");
  const obs::RegionId inner = obs::region("t_nest/outer/inner");
  {
    obs::ScopedTimer to(outer);
    obs::ScopedTimer ti(inner);
    volatile double sink = 0.0;
    for (int i = 0; i < 200000; ++i) sink = sink + 1.0;
  }
  const obs::Snapshot snap = reg.snapshot();
  double t_outer = -1.0, t_inner = -1.0;
  for (const auto& r : snap.regions) {
    if (r.name == "t_nest/outer") t_outer = r.seconds;
    if (r.name == "t_nest/outer/inner") t_inner = r.seconds;
  }
  ASSERT_GE(t_outer, 0.0);
  ASSERT_GE(t_inner, 0.0);
  // The inner scope closes before the outer, so with a monotonic clock the
  // inner elapsed cannot exceed the outer elapsed.
  EXPECT_LE(t_inner, t_outer);
}

// ---- per-rank isolation under a real team ----------------------------------

TEST(ObsTeam, PerRankSlotsAreIsolatedUnderFourThreadTeam) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_team/work");
  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  WorkerTeam team(kThreads);
  for (int it = 0; it < kIters; ++it)
    team.run([&](int) {
      obs::ScopedTimer t(id);  // rank defaults to the caller's team rank
      volatile double sink = 0.0;
      for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
    });
  const obs::Snapshot snap = reg.snapshot();
  const obs::RegionStats* st = nullptr;
  for (const auto& r : snap.regions)
    if (r.name == "t_team/work") st = &r;
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->count, static_cast<std::uint64_t>(kThreads * kIters));
  ASSERT_EQ(st->rank_seconds.size(), static_cast<std::size_t>(kThreads) + 1);
  EXPECT_EQ(st->rank_count[0], 0u) << "master recorded nothing";
  for (int rank = 0; rank < kThreads; ++rank) {
    EXPECT_EQ(st->rank_count[static_cast<std::size_t>(rank) + 1],
              static_cast<std::uint64_t>(kIters))
        << "rank " << rank << " must own exactly its records";
    EXPECT_GE(st->rank_seconds[static_cast<std::size_t>(rank) + 1], 0.0);
  }
}

TEST(ObsTeam, TeamCountersPopulateFromRunAndBarrier) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  constexpr int kThreads = 4;
  constexpr int kRuns = 10;
  WorkerTeam team(kThreads);
  for (int it = 0; it < kRuns; ++it)
    team.run([&](int) { team.barrier(); });
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.run_count, static_cast<std::uint64_t>(kRuns));
  EXPECT_GE(snap.run_span_seconds, 0.0);
  EXPECT_EQ(snap.dispatch_count, static_cast<std::uint64_t>(kRuns * kThreads));
  EXPECT_GE(snap.dispatch_seconds, 0.0);
  EXPECT_EQ(snap.barrier_wait_count, static_cast<std::uint64_t>(kRuns * kThreads));
  EXPECT_GE(snap.barrier_wait_seconds, 0.0);
}

// ---- hot path allocation guarantees ----------------------------------------

TEST(ObsHotPath, RecordAndScopedTimerDoNotAllocate) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_alloc/hot");  // intern is cold
  { obs::ScopedTimer warm(id); }                        // touch everything once
  const long before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::ScopedTimer t(id);
    reg.record(id, -1, 0.0);
  }
  const long after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "hot path must be allocation-free";
}

TEST(ObsHotPath, RuntimeDisabledPathIsAllocationFreeAndRecordsNothing) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_alloc/disabled");
  reg.set_enabled(false);
  const long before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::ScopedTimer t(id);
    reg.record(id, -1, 1.0);
  }
  const long after = g_allocs.load(std::memory_order_relaxed);
  reg.set_enabled(true);
  EXPECT_EQ(after - before, 0);
  const obs::Snapshot snap = reg.snapshot();
  for (const auto& r : snap.regions) EXPECT_NE(r.name, "t_alloc/disabled");
}

// ---- report emitters -------------------------------------------------------

obs::Snapshot sample_snapshot() {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  const obs::RegionId id = obs::region("t_report/phase \"x\"\\1");
  reg.record(id, -1, 0.125);
  reg.record(id, 1, 0.5);
  reg.record(obs::counter_id("team/run_span"), -1, 1.0);
  reg.record(obs::counter_id("team/barrier_wait"), 0, 0.25);
  return reg.snapshot();
}

/// Parses a report; a parse failure is a test failure and yields null, so
/// callers assert is_object() before reading.
json::Value parse_or_fail(const std::string& text) {
  std::string err;
  std::optional<json::Value> doc = json::parse(text, &err);
  EXPECT_TRUE(doc.has_value()) << err << "\n" << text;
  return std::move(doc).value_or(json::Value());
}

/// The first run's object of a parsed report.
const json::Value& first_run(const json::Value& doc) {
  return doc.find("runs")->items().at(0);
}

TEST(ObsReport, JsonIsWellFormedIncludingEscapes) {
  obs::ObsReport rep;
  rep.add_run("BT", "S", "java", 2, 1.5, sample_snapshot());
  rep.add_run("weird\"name\\", "W", "native", 0, 0.0, obs::Snapshot{});
  const json::Value doc = parse_or_fail(rep.json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema_version")->as_int(), obs::kSchemaVersion);
  ASSERT_EQ(doc.find("runs")->items().size(), 2u);
  const json::Value& run = first_run(doc);
  const json::Value* barrier =
      run.find("counters")->find("team/barrier_wait");
  ASSERT_NE(barrier, nullptr);
  EXPECT_EQ(barrier->find("unit")->as_string(), "seconds");
  EXPECT_DOUBLE_EQ(barrier->find("value")->as_double(), 0.25);
  const json::Value* phase =
      run.find("regions")->find("t_report/phase \"x\"\\1");
  ASSERT_NE(phase, nullptr) << "region names round-trip through escaping";
  EXPECT_EQ(phase->find("rank_value")->items().size(), 3u);
  EXPECT_EQ(doc.find("runs")->items()[1].find("benchmark")->as_string(),
            "weird\"name\\");
}

TEST(ObsReport, EmptyReportIsValidJson) {
  obs::ObsReport rep;
  EXPECT_TRUE(rep.empty());
  const json::Value doc = parse_or_fail(rep.json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema_version")->as_int(), obs::kSchemaVersion);
  EXPECT_TRUE(doc.find("runs")->items().empty());
}

TEST(ObsReport, CsvHasHeaderAndOneRowPerRegionPlusTeamCounters) {
  obs::ObsReport rep;
  rep.add_run("LU", "S", "native", 2, 0.5, sample_snapshot());
  const std::string csv = rep.csv();
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  // header + one row per counter + the derived loop_imbalance row + the one
  // user region
  EXPECT_EQ(lines, 1u + obs::kReservedRegions + 1u + 1u);
  EXPECT_EQ(csv.rfind("benchmark,class,mode,threads,run_seconds,region,unit,"
                      "value,count\n",
                      0),
            0u);
  EXPECT_NE(csv.find(",team/loop_imbalance,ratio,"), std::string::npos);
  EXPECT_NE(csv.find(",t_report/phase \"x\"\\1,seconds,0.625,2\n"),
            std::string::npos);
}

// ---- the counter table ----------------------------------------------------

/// A fixed snapshot in which every table row, each of its per-rank slots
/// and one user region hold distinct values.  Values pass 10^9 so a report
/// that rounds to nine significant digits would lose them.
obs::Snapshot synthetic_snapshot() {
  obs::Snapshot s;
  s.rank_slots.resize(obs::kReservedRegions);
  for (int id = 0; id < obs::kReservedRegions; ++id) {
    const obs::Counter& c = obs::kCounters[id];
    obs::RankSlots& slots = s.rank_slots[static_cast<std::size_t>(id)];
    for (int k = 0; k <= id % 3; ++k) {
      slots.value.push_back((id + 1) * 1e9 + k + 0.25);
      slots.count.push_back(static_cast<std::uint64_t>((id + 1) * 100 + k));
      s.*c.value += slots.value.back();
      s.*c.count += slots.count.back();
    }
  }
  s.regions.push_back(obs::RegionStats{"BT/x_solve \"q\"", 0.75, 3,
                                       {0.5, 0.0, 0.25}, {1, 0, 2}});
  return s;
}

TEST(ObsCounters, EveryTableRowReachesJsonCsvAndTheWire) {
  const obs::Snapshot snap = synthetic_snapshot();
  obs::ObsReport rep;
  rep.add_run("MG", "S", "native", 2, 0.5, snap);
  const json::Value doc = parse_or_fail(rep.json());
  ASSERT_TRUE(doc.is_object());
  const json::Value& counters = *first_run(doc).find("counters");
  EXPECT_EQ(counters.entries().size(),
            static_cast<std::size_t>(obs::kReservedRegions));
  const std::string csv = rep.csv();
  std::vector<unsigned char> bytes;
  obs::serialize_snapshot(snap, bytes);
  std::size_t at = 0;
  const obs::Snapshot back = obs::deserialize_snapshot(bytes, at);
  EXPECT_EQ(at, bytes.size());

  for (int id = 0; id < obs::kReservedRegions; ++id) {
    const obs::Counter& c = obs::kCounters[id];
    const std::string path(c.path);
    SCOPED_TRACE(path);
    EXPECT_EQ(obs::region(c.path), id) << "rows intern in table order";
    EXPECT_FALSE(obs::unit_name(c.unit).empty());

    const json::Value* j = counters.find(path);
    ASSERT_NE(j, nullptr);
    EXPECT_EQ(j->find("unit")->as_string(), obs::unit_name(c.unit));
    EXPECT_EQ(j->find("value")->as_double(), snap.*c.value);
    EXPECT_EQ(static_cast<std::uint64_t>(j->find("count")->as_int()),
              snap.*c.count);
    const auto& rank_value = j->find("rank_value")->items();
    ASSERT_EQ(rank_value.size(), snap.slots(id).value.size());
    for (std::size_t k = 0; k < rank_value.size(); ++k)
      EXPECT_EQ(rank_value[k].as_double(), snap.slots(id).value[k]);

    const std::string row = "MG,S,native,2,0.5," + path + ',' +
                            std::string(obs::unit_name(c.unit)) + ',' +
                            json::number_to_string(snap.*c.value) + ',' +
                            std::to_string(snap.*c.count) + '\n';
    EXPECT_NE(csv.find(row), std::string::npos) << row;

    EXPECT_EQ(back.*c.value, snap.*c.value);
    EXPECT_EQ(back.*c.count, snap.*c.count);
    EXPECT_EQ(back.slots(id).value, snap.slots(id).value);
    EXPECT_EQ(back.slots(id).count, snap.slots(id).count);
  }
}

TEST(ObsCounters, BlamedRanksAreNamedBySlot) {
  // Blames on ranks {1, 1} and on ranks {0, 2} add up to the same value and
  // count; only the per-rank slots tell them apart, so they must reach the
  // snapshot and the report.
  auto& reg = obs::ObsRegistry::instance();
  for (const obs::RegionId id :
       {obs::counter_id("fault/stuck_rank"),
        obs::counter_id("fault/lost_shard"), obs::counter_id("msg/crc_fail")}) {
    const obs::Counter& c = obs::kCounters[id];
    SCOPED_TRACE(std::string(c.path));
    reg.reset();
    reg.record(id, 1, 1.0);
    reg.record(id, 1, 1.0);
    const obs::Snapshot twice = reg.snapshot();
    reg.reset();
    reg.record(id, 0, 1.0);
    reg.record(id, 2, 1.0);
    const obs::Snapshot spread = reg.snapshot();
    reg.reset();

    EXPECT_EQ(twice.*c.count, spread.*c.count);
    EXPECT_EQ(twice.*c.value, spread.*c.value);
    EXPECT_EQ(twice.slots(id).count, (std::vector<std::uint64_t>{0, 0, 2}));
    EXPECT_EQ(spread.slots(id).count,
              (std::vector<std::uint64_t>{0, 1, 0, 1}));
    obs::ObsReport a, b;
    a.add_run("IS", "S", "msg", 0, 0.0, twice);
    b.add_run("IS", "S", "msg", 0, 0.0, spread);
    EXPECT_NE(a.json(), b.json());
  }
}

TEST(ObsReport, JsonMatchesTheGoldenSchemaFile) {
  obs::ObsReport rep;
  rep.add_run("BT", "S", "java", 2, 1.5, synthetic_snapshot(), 2,
              {obs::ShardSnapshot{1, 0.75, obs::Snapshot{}}});
  const std::string got = rep.json();
  const std::string path =
      std::string(NPB_TEST_GOLDEN_DIR) + "/obs_report.json";
  std::ifstream in(path, std::ios::binary);  // missing reads as empty
  const std::string want{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  if (got != want) {
    const std::string fresh = ::testing::TempDir() + "obs_report.json";
    std::ofstream(fresh, std::ios::binary) << got;
    ADD_FAILURE() << "the report schema changed; if that is intended, bump "
                     "obs::kSchemaVersion and replace "
                  << path << " with " << fresh;
  }
}

// ---- shard wire format ----------------------------------------------------

obs::Snapshot decode(const std::vector<unsigned char>& bytes) {
  std::size_t at = 0;
  return obs::deserialize_snapshot(bytes, at);
}

TEST(SnapshotWire, RoundTripKeepsEveryRegionAndConsumesExactlyItsBytes) {
  const obs::Snapshot snap = synthetic_snapshot();
  std::vector<unsigned char> bytes;
  obs::serialize_snapshot(snap, bytes);
  const std::size_t one = bytes.size();
  obs::serialize_snapshot(obs::Snapshot{}, bytes);  // a second one behind it
  std::size_t at = 0;
  const obs::Snapshot back = obs::deserialize_snapshot(bytes, at);
  EXPECT_EQ(at, one);
  ASSERT_EQ(back.regions.size(), 1u);
  const obs::RegionStats& st = back.regions[0];
  EXPECT_EQ(st.name, snap.regions[0].name);
  EXPECT_EQ(st.seconds, snap.regions[0].seconds);
  EXPECT_EQ(st.count, snap.regions[0].count);
  EXPECT_EQ(st.rank_seconds, snap.regions[0].rank_seconds);
  EXPECT_EQ(st.rank_count, snap.regions[0].rank_count);
  const obs::Snapshot empty = obs::deserialize_snapshot(bytes, at);
  EXPECT_EQ(at, bytes.size());
  EXPECT_TRUE(empty.regions.empty());
  EXPECT_EQ(empty.run_count, 0u);
}

TEST(SnapshotWire, EveryTruncationThrows) {
  std::vector<unsigned char> bytes;
  obs::serialize_snapshot(synthetic_snapshot(), bytes);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<unsigned char> cut(
        bytes.begin(), bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(decode(cut), std::runtime_error) << "truncated to " << len;
  }
}

TEST(SnapshotWire, EveryLengthFieldAboveMaxLenIsRefused) {
  // With empty slot vectors each table row is value, count and two zero
  // lengths (32 bytes); then the region count, and per region its name
  // length, name, value, count and two slot-vector lengths.
  obs::Snapshot snap;
  const std::string name = "r/x";
  snap.regions.push_back(obs::RegionStats{name, 1.0, 1, {}, {}});
  std::vector<unsigned char> bytes;
  obs::serialize_snapshot(snap, bytes);
  const std::size_t rows = 32u * obs::kReservedRegions;
  ASSERT_EQ(bytes.size(), rows + 8 + 8 + name.size() + 32);
  std::vector<std::size_t> lengths;
  for (std::size_t row = 0; row < rows; row += 32) {
    lengths.push_back(row + 16);
    lengths.push_back(row + 24);
  }
  lengths.push_back(rows);
  lengths.push_back(rows + 8);
  lengths.push_back(rows + 16 + name.size() + 16);
  lengths.push_back(rows + 16 + name.size() + 24);
  EXPECT_NO_THROW(decode(bytes));
  for (const std::size_t at : lengths) {
    auto bad = bytes;
    const std::uint64_t huge = obs::kMaxLen + 1;
    std::memcpy(bad.data() + at, &huge, sizeof huge);
    try {
      decode(bad);
      ADD_FAILURE() << "length field at byte " << at << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("implausible length"),
                std::string::npos)
          << "byte " << at << ": " << e.what();
    }
  }
}

// ---- scheduled-loop iteration counters -------------------------------------

TEST(ObsLoopIters, SnapshotSplitsPerRankAndComputesImbalance) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  // Three workers recorded 100/200/300 iterations; rank 1 did two passes.
  constexpr obs::RegionId id = obs::counter_id("team/loop_iters");
  reg.record(id, 0, 100.0);
  reg.record(id, 1, 150.0);
  reg.record(id, 1, 50.0);
  reg.record(id, 2, 300.0);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.loop_iters_total, 600.0);
  EXPECT_EQ(snap.loop_record_count, 4u);
  const obs::RankSlots& slots = snap.slots(id);
  ASSERT_EQ(slots.value.size(), 4u);  // slots 0..3, rank r -> slot r+1
  EXPECT_DOUBLE_EQ(slots.value[1], 100.0);
  EXPECT_DOUBLE_EQ(slots.value[2], 200.0);
  EXPECT_DOUBLE_EQ(slots.value[3], 300.0);
  EXPECT_EQ(slots.count[2], 2u);
  // max/mean = 300 / 200
  EXPECT_DOUBLE_EQ(snap.loop_imbalance(), 1.5);
}

TEST(ObsLoopIters, ImbalanceEdgeCases) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.snapshot().loop_imbalance(), 0.0) << "nothing recorded";
  EXPECT_DOUBLE_EQ(obs::Snapshot{}.loop_imbalance(), 0.0) << "no slots at all";
  // serial path -> slot 0
  reg.record(obs::counter_id("team/loop_iters"), -1, 42.0);
  EXPECT_DOUBLE_EQ(reg.snapshot().loop_imbalance(), 1.0)
      << "serial-only records are trivially balanced";
  reg.reset();
}

TEST(ObsLoopIters, JsonCarriesLoopFields) {
  auto& reg = obs::ObsRegistry::instance();
  reg.reset();
  reg.record(obs::counter_id("team/loop_iters"), 0, 10.0);
  reg.record(obs::counter_id("team/loop_iters"), 1, 30.0);
  obs::ObsReport rep;
  rep.add_run("CG", "S", "native", 2, 1.0, reg.snapshot());
  const json::Value doc = parse_or_fail(rep.json());
  ASSERT_TRUE(doc.is_object());
  const json::Value& run = first_run(doc);
  const json::Value& loop = *run.find("counters")->find("team/loop_iters");
  EXPECT_EQ(loop.find("unit")->as_string(), "iterations");
  EXPECT_EQ(loop.find("count")->as_int(), 2);
  EXPECT_DOUBLE_EQ(loop.find("value")->as_double(), 40.0);
  EXPECT_EQ(loop.find("rank_value")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(run.find("loop_imbalance")->as_double(), 1.5);
}

}  // namespace
}  // namespace npb
