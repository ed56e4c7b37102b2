// Memory subsystem battery: alignment guarantees, arena reuse semantics,
// first-touch determinism, and Checked-policy bounds on the
// AlignedBuffer-backed arrays.
//
// The load-bearing property is the last section: a placement policy moves
// pages between NUMA nodes, never values between elements, so every
// benchmark checksum must be BIT-identical — not epsilon-close — across
// {serial, first-touch} x {default, 128 B, 2 MiB-hint} at every thread
// count of the differential matrix.  Any divergence means the fill/compute
// partition leaked into the arithmetic.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "array/array.hpp"
#include "array/mdarray.hpp"
#include "mem/buffer.hpp"
#include "mem/mem.hpp"
#include "npb/registry.hpp"
#include "obs/obs.hpp"
#include "par/team.hpp"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define NPB_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define NPB_UNDER_SANITIZER 1
#endif
#endif
#ifndef NPB_UNDER_SANITIZER
#define NPB_UNDER_SANITIZER 0
#endif

namespace npb::mem {
namespace {

bool aligned_to(const void* p, std::size_t alignment) {
  return reinterpret_cast<std::uintptr_t>(p) % alignment == 0;
}

// ---------------------------------------------------------------- options --

TEST(MemOptions, ParseAlignmentAcceptsPowersOfTwoWithSuffixes) {
  EXPECT_EQ(parse_alignment("64").value(), 64u);
  EXPECT_EQ(parse_alignment("4096").value(), 4096u);
  EXPECT_EQ(parse_alignment("4K").value(), 4096u);
  EXPECT_EQ(parse_alignment("2M").value(), 2u << 20);
  EXPECT_FALSE(parse_alignment("0").has_value());
  EXPECT_FALSE(parse_alignment("96").has_value());   // not a power of two
  EXPECT_FALSE(parse_alignment("abc").has_value());
  EXPECT_FALSE(parse_alignment("").has_value());
}

// -------------------------------------------------------------- alignment --

template <class T>
void expect_aligned_buffers(const MemOptions& opt) {
  const ScopedMemConfig scope(opt);
  // Small (sub-page), page-crossing, and huge-page-sized buffers.
  for (std::size_t n : {std::size_t{16}, std::size_t{8192},
                        (2u << 20) / sizeof(T) + 1}) {
    AlignedBuffer<T> buf(n, T{1});
    ASSERT_TRUE(aligned_to(buf.data(), opt.alignment))
        << "n=" << n << " alignment=" << opt.alignment;
    // The huge hint promotes alignment to 2 MiB once the block can actually
    // span a huge page; smaller blocks keep the configured alignment.
    if (opt.huge_pages && n * sizeof(T) >= kHugePageBytes) {
      EXPECT_TRUE(aligned_to(buf.data(), kHugePageBytes));
    }
    EXPECT_EQ(buf[0], T{1});
    EXPECT_EQ(buf[n - 1], T{1});
  }
}

TEST(Alignment, HoldsForAllPoliciesAndTypes) {
  for (const Placement placement : {Placement::Serial, Placement::FirstTouch}) {
    for (const std::size_t alignment :
         {std::size_t{64}, std::size_t{128}, std::size_t{4096}}) {
      for (const bool huge : {false, true}) {
        MemOptions opt;
        opt.alignment = alignment;
        opt.placement = placement;
        opt.huge_pages = huge;
        expect_aligned_buffers<double>(opt);
        expect_aligned_buffers<int>(opt);
        expect_aligned_buffers<unsigned char>(opt);
      }
    }
  }
}

TEST(Alignment, TeamFirstTouchFillWritesEveryElement) {
  MemOptions opt;
  opt.placement = Placement::FirstTouch;
  const ScopedMemConfig scope(opt);
  WorkerTeam team(3);
  for (const Schedule sched :
       {Schedule::static_(), Schedule::dynamic(), Schedule::guided()}) {
    const ScopedTeamPlacement placement(&team, sched);
    AlignedBuffer<double> buf(10000, 2.5);  // > kFirstTouchMinBytes
    for (std::size_t i = 0; i < buf.size(); ++i)
      ASSERT_EQ(buf[i], 2.5) << "i=" << i << " " << to_string(sched.kind);
  }
}

TEST(Alignment, WorkerThreadAllocationFillsInlineWithoutDeadlock) {
  MemOptions opt;
  opt.placement = Placement::FirstTouch;
  const ScopedMemConfig scope(opt);
  WorkerTeam team(2);
  const ScopedTeamPlacement placement(&team, Schedule{});
  // Per-rank scratch above the first-touch threshold, allocated from inside
  // a team region: place_fill must fill inline on the worker (its write IS
  // the right first touch) instead of re-dispatching — which would deadlock.
  std::vector<double> sums(2, 0.0);
  team.run([&](int rank) {
    AlignedBuffer<double> scratch(10000, 1.0);
    double s = 0.0;
    for (std::size_t i = 0; i < scratch.size(); ++i) s += scratch[i];
    sums[static_cast<std::size_t>(rank)] = s;
  });
  EXPECT_EQ(sums[0], 10000.0);
  EXPECT_EQ(sums[1], 10000.0);
}

// ------------------------------------------------------------------ arena --

TEST(Arena, SameShapeReacquireReturnsSamePointer) {
  Arena arena;
  void* a = arena.acquire(1 << 16, 64, false);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.misses(), 1u);
  arena.release(a);
  void* b = arena.acquire(1 << 16, 64, false);
  EXPECT_EQ(b, a);  // warm pages come back
  EXPECT_EQ(arena.hits(), 1u);
  arena.release(b);
}

TEST(Arena, MostRecentlyReleasedBlockIsReusedFirst) {
  Arena arena;
  void* a = arena.acquire(4096, 64, false);
  void* b = arena.acquire(4096, 64, false);
  arena.release(a);
  arena.release(b);  // LIFO: b is the most recently released
  EXPECT_EQ(arena.acquire(4096, 64, false), b);
  EXPECT_EQ(arena.acquire(4096, 64, false), a);
  arena.release(a);
  arena.release(b);
}

TEST(Arena, LiveBuffersNeverAlias) {
  Arena arena;
  void* a = arena.acquire(8192, 64, false);
  void* b = arena.acquire(8192, 64, false);  // same shape, a still live
  ASSERT_NE(a, b);
  // Fully disjoint, not merely distinct pointers.
  const auto lo_a = reinterpret_cast<std::uintptr_t>(a);
  const auto lo_b = reinterpret_cast<std::uintptr_t>(b);
  EXPECT_TRUE(lo_a + 8192 <= lo_b || lo_b + 8192 <= lo_a);
  EXPECT_EQ(arena.live_blocks(), 2u);
  arena.release(a);
  arena.release(b);
  EXPECT_EQ(arena.live_blocks(), 0u);
  EXPECT_EQ(arena.pooled_blocks(), 2u);
}

TEST(Arena, ShapeMismatchesMissThePool) {
  Arena arena;
  void* a = arena.acquire(4096, 64, false);
  arena.release(a);
  // Different bytes / alignment are different shapes: pool stays untouched.
  void* b = arena.acquire(8192, 64, false);
  void* c = arena.acquire(4096, 128, false);
  EXPECT_EQ(arena.hits(), 0u);
  EXPECT_EQ(arena.misses(), 3u);
  arena.release(b);
  arena.release(c);
}

TEST(Arena, PurgeDropsPooledBlocksOnly) {
  Arena arena;
  void* live = arena.acquire(4096, 64, false);
  void* pooled = arena.acquire(4096, 64, false);
  arena.release(pooled);
  arena.purge();
  EXPECT_EQ(arena.pooled_blocks(), 0u);
  EXPECT_EQ(arena.live_blocks(), 1u);
  // The live block is still usable and releasable after the purge.
  std::memset(live, 0, 4096);
  arena.release(live);
}

TEST(Arena, ScopedArenaRoutesBufferStorageThroughThePool) {
  Arena arena;
  const ScopedArena scope(&arena);
  const double* first;
  {
    AlignedBuffer<double> buf(4096, 1.0);
    first = buf.data();
  }
  // Same shape after release: the buffer gets the identical block back.
  AlignedBuffer<double> again(4096, 2.0);
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(arena.hits(), 1u);
}

#ifndef NPB_OBS_DISABLED
TEST(Arena, StatsCountFreshAndRecycledBytes) {
  auto& reg = obs::ObsRegistry::instance();
  const obs::Snapshot before = reg.snapshot();
  Arena arena;
  const ScopedArena scope(&arena);
  { AlignedBuffer<double> buf(8192, 0.0); }
  { AlignedBuffer<double> buf(8192, 0.0); }  // recycled
  const obs::Snapshot after = reg.snapshot();
  constexpr double kBytes = 8192 * sizeof(double);
  EXPECT_EQ(after.mem_alloc_count, before.mem_alloc_count + 1);
  EXPECT_EQ(after.mem_bytes_allocated, before.mem_bytes_allocated + kBytes);
  EXPECT_EQ(after.mem_arena_hit_count, before.mem_arena_hit_count + 1);
  EXPECT_EQ(after.mem_arena_hit_bytes, before.mem_arena_hit_bytes + kBytes);
}
#endif

// -------------------------------------------------- first-touch identity --

std::string bits_of(const std::vector<double>& v) {
  std::string s;
  for (double d : v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx ",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(d)));
    s += buf;
  }
  return s;
}

void expect_bit_identical(const RunResult& got, const RunResult& ref,
                          const std::string& what) {
  ASSERT_TRUE(got.verified) << what << "\n" << got.verify_detail;
  ASSERT_EQ(got.checksums.size(), ref.checksums.size()) << what;
  for (std::size_t i = 0; i < got.checksums.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.checksums[i]),
              std::bit_cast<std::uint64_t>(ref.checksums[i]))
        << what << " checksum[" << i << "]\n got: " << bits_of(got.checksums)
        << "\n ref: " << bits_of(ref.checksums);
}

TEST(FirstTouch, ChecksumsBitIdenticalAcrossPlacementAndAlignment) {
  // The paper's bandwidth-bound kernels, where placement matters most.  The
  // sanitizer presets shrink the matrix (TSan is 10-20x) but keep both a
  // non-dividing thread count and the huge-page config.
#if NPB_UNDER_SANITIZER
  const char* names[] = {"ft", "cg"};
  const int thread_counts[] = {2, 3};
#else
  const char* names[] = {"ft", "mg", "cg"};
  const int thread_counts[] = {1, 2, 3, 7};
#endif

  struct MemConfig {
    const char* label;
    Placement placement;
    std::size_t alignment;
    bool huge;
  };
  const MemConfig configs[] = {
      {"serial/default", Placement::Serial, 64, false},
      {"serial/128B", Placement::Serial, 128, false},
      {"serial/huge", Placement::Serial, 64, true},
      {"first_touch/default", Placement::FirstTouch, 64, false},
      {"first_touch/128B", Placement::FirstTouch, 128, false},
      {"first_touch/huge", Placement::FirstTouch, 64, true},
  };

  for (const char* name : names) {
    const RunFn fn = find_benchmark(name);
    ASSERT_NE(fn, nullptr) << name;
    for (const int threads : thread_counts) {
      RunConfig cfg;
      cfg.cls = ProblemClass::S;
      cfg.threads = threads;
      const RunResult baseline = fn(cfg);  // default MemOptions
      ASSERT_TRUE(baseline.verified) << baseline.verify_detail;
      ASSERT_FALSE(baseline.checksums.empty());
      for (const MemConfig& mc : configs) {
        cfg.mem.placement = mc.placement;
        cfg.mem.alignment = mc.alignment;
        cfg.mem.huge_pages = mc.huge;
        const std::string what = std::string(name) + ".S t" +
                                 std::to_string(threads) + " " + mc.label;
        expect_bit_identical(fn(cfg), baseline, what);
      }
    }
  }
}

#ifndef NPB_OBS_DISABLED
TEST(FirstTouch, TeamFillsAreRecordedInStats) {
  MemOptions opt;
  opt.placement = Placement::FirstTouch;
  const ScopedMemConfig scope(opt);
  WorkerTeam team(2);
  const ScopedTeamPlacement placement(&team, Schedule{});
  auto& reg = obs::ObsRegistry::instance();
  const obs::Snapshot before = reg.snapshot();
  { AlignedBuffer<double> buf(10000, 0.0); }
  const obs::Snapshot after = reg.snapshot();
  EXPECT_EQ(after.first_touch_count, before.first_touch_count + 1);
  EXPECT_GE(after.first_touch_seconds, before.first_touch_seconds);
}

TEST(FirstTouch, SerialPlacementNeverTeamFills) {
  const ScopedMemConfig scope(MemOptions{});  // Placement::Serial
  WorkerTeam team(2);
  const ScopedTeamPlacement placement(&team, Schedule{});
  auto& reg = obs::ObsRegistry::instance();
  const obs::Snapshot before = reg.snapshot();
  { AlignedBuffer<double> buf(10000, 0.0); }
  const obs::Snapshot after = reg.snapshot();
  EXPECT_EQ(after.first_touch_count, before.first_touch_count);
}
#endif

// --------------------------------------------------------- checked arrays --

TEST(CheckedArrays, BoundsHoldOnAlignedBufferBackedArrays) {
  for (const Placement placement : {Placement::Serial, Placement::FirstTouch}) {
    MemOptions opt;
    opt.placement = placement;
    const ScopedMemConfig scope(opt);
    Array1<double, Checked> a(4);
    a[3] = 1.0;
    EXPECT_THROW(a[4], ArrayIndexOutOfBounds);
    EXPECT_THROW(a[static_cast<std::size_t>(-1)], ArrayIndexOutOfBounds);
    Array3<double, Checked> c(2, 3, 4);
    c(1, 2, 3) = 1.0;
    EXPECT_THROW(c(2, 0, 0), ArrayIndexOutOfBounds);
    MdArray3<double, Checked> m(2, 3, 4);
    m(1, 2, 3) = 1.0;
    EXPECT_THROW(m(0, 0, 4), ArrayIndexOutOfBounds);
  }
}

}  // namespace
}  // namespace npb::mem
