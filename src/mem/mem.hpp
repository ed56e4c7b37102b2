#pragma once

// Memory subsystem: aligned allocation, a pooling arena, and team-aware
// first-touch placement for the benchmark arrays.
//
// The paper's worst scalability results are memory-placement stories — FT's
// speedup collapsing under memory pressure, the dual-CPU Linux PC showing no
// speedup at all, CG needing a thread warm-up trick just to co-locate data
// and threads (section 5, tables 2-6).  The seed code allocated every array
// as a value-initialized std::vector: unaligned, and with the master thread
// performing the committing write of every page.  This layer replaces that
// with three orthogonal pieces:
//
//   AlignedBuffer<T>  (mem/buffer.hpp) raw storage at a configurable
//                     alignment (64 B default, optional 2 MiB huge-page
//                     hint) whose pages are committed only by the explicit
//                     initializing touch — never by hidden value-init.
//   Placement         who performs that touch: the master (Serial) or the
//                     worker team partitioned exactly like the compute loops
//                     (FirstTouch), so each rank faults its slab onto its
//                     own node.
//   Arena             a pool that hands shape-identical buffers back across
//                     benchmark reps and bench-table sweeps instead of
//                     re-allocating (and re-placing) from scratch.
//
// A benchmark run installs its MemOptions/team via the scoped context below;
// AlignedBuffer consults the context at construction, so the whole array
// stack inherits the policy without plumbing options through every kernel
// signature.  Counters (fresh bytes, arena hits, first-touch seconds) feed
// the obs layer's reserved mem/* counters.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/wtime.hpp"
#include "mem/options.hpp"
#include "obs/obs.hpp"
#include "par/schedule.hpp"
#include "par/team.hpp"

namespace npb::mem {

/// Buffers smaller than one page cannot be placed (placement is page
/// granular) and are usually per-rank scratch that should stay where its
/// owner allocates it, so first-touch engages only above this size.
inline constexpr std::size_t kFirstTouchMinBytes = 4096;

/// Buffer pool keyed by exact shape (bytes, alignment, huge flag).  acquire
/// prefers a pooled block of identical shape — the most recently released
/// first, so a benchmark rep that frees and re-allocates the same arrays
/// gets the very same pointers (and the already-placed, already-faulted
/// pages) back.  Live blocks are never handed out twice.  Thread-safe: team
/// workers allocate per-rank scratch concurrently.
class Arena {
 public:
  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns a block of exactly `bytes` at `alignment`; recycled when a
  /// shape-identical pooled block exists, freshly allocated otherwise.
  void* acquire(std::size_t bytes, std::size_t alignment, bool huge);

  /// Returns `p` (a pointer obtained from acquire) to the pool.  The block
  /// stays allocated — and its contents and page placement stay warm — for
  /// the next shape-identical acquire.
  void release(void* p) noexcept;

  /// Frees every pooled (non-live) block.
  void purge() noexcept;

  std::uint64_t hits() const noexcept;
  std::uint64_t misses() const noexcept;
  std::size_t live_blocks() const noexcept;
  std::size_t pooled_blocks() const noexcept;

 private:
  struct Block {
    void* p = nullptr;
    std::size_t bytes = 0;
    std::size_t alignment = 0;
    bool huge = false;
    bool live = false;
    std::uint64_t released_at = 0;  ///< LIFO stamp for most-recent reuse
  };
  mutable std::mutex m_;
  std::vector<Block> blocks_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t release_clock_ = 0;
};

namespace detail {

/// Raw aligned allocation.  Never touches the pages: the kernel commits them
/// lazily on the first write, which is exactly what placement control needs.
/// With `huge` and bytes >= kHugePageBytes the block is 2 MiB aligned and
/// madvise(MADV_HUGEPAGE)d; smaller blocks ignore the hint (a huge page
/// cannot back less than itself).
void* raw_alloc(std::size_t bytes, std::size_t alignment, bool huge);
void raw_free(void* p) noexcept;

/// The installed allocation policy.  Per-thread storage published through a
/// threadctx slot: worker threads allocating per-rank scratch inside a team
/// region inherit the dispatching master's slot (WorkerTeam::dispatch
/// snapshots it), so they see the arena/options that job installed — and two
/// jobs running concurrently under the service scheduler each see their own.
/// Mutation is master-only, between team regions, exactly as before.
struct Context {
  MemOptions options{};
  Arena* arena = nullptr;
  /// Team + schedule used for first-touch fills; installed by the benchmark
  /// after it creates its team, cleared before the team dies.
  WorkerTeam* team = nullptr;
  Schedule schedule{};
};

const Context& context() noexcept;
Context exchange_context(const Context& next) noexcept;

void note_fresh(std::size_t bytes) noexcept;
void note_hit(std::size_t bytes) noexcept;
void note_first_touch(double seconds) noexcept;

}  // namespace detail

/// One buffer's backing allocation: where it lives and who reclaims it.
struct Allocation {
  void* p = nullptr;
  std::size_t bytes = 0;
  Arena* arena = nullptr;  ///< pool to release into; nullptr = raw_free
};

/// Allocates `bytes` under the current context: the context's (or a larger
/// type-required) alignment, the huge-page hint, and the installed arena if
/// any.  Records fresh/hit accounting.  Never touches the pages.
Allocation acquire(std::size_t bytes, std::size_t min_alignment);

/// Releases a buffer to its arena (keeping it warm for reuse) or frees it.
void release(const Allocation& a) noexcept;

/// Installs allocation options (and optionally an arena) for the current
/// scope; restores the previous context on destruction.  The team/schedule
/// of the previous context are preserved.
class ScopedMemConfig {
 public:
  explicit ScopedMemConfig(const MemOptions& options);
  ScopedMemConfig(const MemOptions& options, Arena* arena);
  ~ScopedMemConfig();
  ScopedMemConfig(const ScopedMemConfig&) = delete;
  ScopedMemConfig& operator=(const ScopedMemConfig&) = delete;

 private:
  detail::Context saved_;
};

/// Installs an arena only (options inherited) — used by the drivers that own
/// a per-invocation pool (npbrun, the bench tables).
class ScopedArena {
 public:
  explicit ScopedArena(Arena* arena);
  ~ScopedArena();
  ScopedArena(const ScopedArena&) = delete;
  ScopedArena& operator=(const ScopedArena&) = delete;

 private:
  detail::Context saved_;
};

/// Installs the worker team (and the loop schedule the compute loops will
/// use) as the first-touch executor.  Benchmarks construct this right after
/// their team, before allocating arrays; it must not outlive the team.
class ScopedTeamPlacement {
 public:
  ScopedTeamPlacement(WorkerTeam* team, Schedule schedule);
  ~ScopedTeamPlacement();
  ScopedTeamPlacement(const ScopedTeamPlacement&) = delete;
  ScopedTeamPlacement& operator=(const ScopedTeamPlacement&) = delete;

 private:
  detail::Context saved_;
};

/// Writes `value` into p[0..n) performing the placement-committing touch.
/// Under Placement::FirstTouch with a team installed (and a buffer big
/// enough to span pages), the fill fork-joins over the team with the same
/// Schedule/partition the compute loops use, so rank r's page slab faults in
/// on rank r's node; page granularity makes the resulting values identical
/// either way, so checksums cannot depend on the policy.  Worker threads
/// (allocating their own scratch inside a team region) always fill serially
/// — their write IS the right first touch, and dispatching from inside a
/// region would deadlock.
template <class T>
void place_fill(T* p, std::size_t n, T value) {
  const detail::Context& c = detail::context();
  const bool team_fill = c.options.placement == Placement::FirstTouch &&
                         c.team != nullptr && !on_team_thread() &&
                         n * sizeof(T) >= kFirstTouchMinBytes;
  if (!team_fill) {
    for (std::size_t i = 0; i < n; ++i) p[i] = value;
    return;
  }
  const double t0 = wtime();
  WorkerTeam& team = *c.team;
  const long hi = static_cast<long>(n);
  if (c.schedule.kind == Schedule::Kind::Static) {
    team.run([&](int rank) {
      const Range r = partition(0, hi, rank, team.size());
      for (long i = r.lo; i < r.hi; ++i) p[i] = value;
    });
  } else {
    // Mirror the dynamic/guided claim pattern so pages land where chunks of
    // the compute loops will (to the extent the claim order repeats).
    ChunkQueue queue;
    queue.reset(0, hi, c.schedule, team.size());
    team.run([&](int) {
      Range ch;
      while (queue.try_claim(ch))
        for (long i = ch.lo; i < ch.hi; ++i) p[i] = value;
    });
  }
  detail::note_first_touch(wtime() - t0);
}

}  // namespace npb::mem
