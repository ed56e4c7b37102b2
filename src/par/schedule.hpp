#pragma once

// Loop-schedule policy layer for the thread runtime.  The paper attributes
// much of its residual multithreading overhead to load imbalance under the
// static block partition its master-workers translation uses everywhere
// (section 5.2: thread efficiency 0.4-0.75, worst exactly where per-index
// work varies — CG's sparse rows, IS's key buckets).  A Schedule picks how a
// [lo, hi) iteration space is dealt out to the team:
//
//   Static        one contiguous block per rank (partition()) — the paper's
//                 model, deterministic assignment, zero claiming traffic.
//   Dynamic{c}    ranks claim fixed chunks of c indices from a shared atomic
//                 cursor; first-come-first-served, like OpenMP
//                 schedule(dynamic,c).
//   Guided{m}     chunk size decays with the remaining work
//                 (remaining / (2*nranks), floored at m), like OpenMP
//                 schedule(guided,m): big chunks early for low claiming
//                 overhead, small chunks late to even out the tail.
//
// The chunk *boundaries* of Dynamic and Guided are a deterministic function
// of the claim sequence position, never of which rank claims (each claim
// sizes itself from the cursor value alone), so schedule_chunks() can
// enumerate them serially and reductions can combine per-chunk partials in
// chunk order — bit-identical across runs at any interleaving.

#include <atomic>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "par/partition.hpp"

namespace npb {

struct Schedule {
  enum class Kind { Static, Dynamic, Guided };

  Kind kind = Kind::Static;
  /// Dynamic: the fixed chunk size; Guided: the minimum chunk size.
  /// <= 0 selects the default (see resolved_chunk).
  long chunk = 0;

  static constexpr Schedule static_() noexcept { return {Kind::Static, 0}; }
  static constexpr Schedule dynamic(long chunk = 0) noexcept {
    return {Kind::Dynamic, chunk};
  }
  static constexpr Schedule guided(long min_chunk = 0) noexcept {
    return {Kind::Guided, min_chunk};
  }

  /// Field-wise identity, so RunConfig's defaulted == can compare configs.
  friend constexpr bool operator==(const Schedule& a,
                                   const Schedule& b) noexcept {
    return a.kind == b.kind && a.chunk == b.chunk;
  }
};

const char* to_string(Schedule::Kind k) noexcept;
/// "static", "dynamic,64", "guided,8"; the chunk is omitted when defaulted.
std::string to_string(const Schedule& s);
/// Parses "static" | "dynamic[,CHUNK]" | "guided[,MIN]" (case-sensitive,
/// matching the other CLI flags); nullopt on anything else.
std::optional<Schedule> parse_schedule(std::string_view spec);

/// The chunk size actually used for a schedule over n iterations with
/// `nranks` claimants.  Dynamic defaults to ~16 chunks per rank so claiming
/// traffic stays negligible; Guided's floor defaults to 1.
inline long resolved_chunk(const Schedule& s, long n, int nranks) noexcept {
  if (s.chunk > 0) return s.chunk;
  if (s.kind == Schedule::Kind::Dynamic) {
    const long c = n / (16 * (nranks > 0 ? nranks : 1));
    return c > 1 ? c : 1;
  }
  return 1;
}

/// Size of the next Guided chunk given the remaining iteration count — the
/// single formula ChunkQueue and schedule_chunks share, so concurrent claims
/// and the serial enumeration can never disagree on boundaries.
inline long guided_next(long remaining, long min_chunk, int nranks) noexcept {
  long size = remaining / (2 * (nranks > 0 ? nranks : 1));
  if (size < min_chunk) size = min_chunk;
  if (size > remaining) size = remaining;
  return size;
}

/// Enumerates, in claim order, the chunk boundaries one queue pass over
/// [lo, hi) will produce.  Static yields the per-rank partition blocks (rank
/// order, non-empty only).  Deterministic by construction; used by the
/// chunk-ordered reduction and the property tests.
std::vector<Range> schedule_chunks(long lo, long hi, Schedule s, int nranks);

/// schedule_chunks into a caller-owned vector (cleared first), so hot paths
/// can reuse one buffer's capacity across passes instead of allocating.
void schedule_chunks_into(std::vector<Range>& out, long lo, long hi,
                          Schedule s, int nranks);

/// Atomic chunk-claiming work queue: one cache-line-padded cursor that ranks
/// advance with relaxed increments (Dynamic) or a relaxed CAS loop (Guided).
/// Relaxed is sufficient for the partitioning itself — claims only carve up
/// the index space; the data the loop body touches is ordered by the team's
/// dispatch/join and barriers, exactly like PipelineSync's progress cells.
/// reset() must run on a single thread or behind a barrier.
class ChunkQueue {
 public:
  ChunkQueue() = default;
  ChunkQueue(const ChunkQueue&) = delete;
  ChunkQueue& operator=(const ChunkQueue&) = delete;

  /// Prepares one pass over [lo, hi) for `nranks` claimants.  Callers must
  /// ensure no thread is claiming concurrently (single-threaded setup, or a
  /// rank resetting behind a team barrier between passes).
  void reset(long lo, long hi, Schedule s, int nranks) noexcept {
    lo_ = lo;
    hi_ = hi > lo ? hi : lo;
    kind_ = s.kind;
    nranks_ = nranks > 0 ? nranks : 1;
    chunk_ = resolved_chunk(s, hi_ - lo_, nranks_);
    if (kind_ == Schedule::Kind::Static) chunk_ = 0;  // claim() partitions
    cursor_.next.store(lo_, std::memory_order_relaxed);
  }

  /// Claims the next chunk into `out`; false when the pass is drained.  The
  /// k-th successful claim across all ranks always produces the same range,
  /// whichever rank performs it.  Static kind degrades to one balanced
  /// block per claim (partition order), so a claim loop works under every
  /// kind.
  bool try_claim(Range& out) noexcept {
    if (kind_ == Schedule::Kind::Dynamic) {
      const long start = cursor_.next.fetch_add(chunk_, std::memory_order_relaxed);
      if (start >= hi_) return false;
      out = {start, start + chunk_ < hi_ ? start + chunk_ : hi_};
      return true;
    }
    // Guided (and Static's partition blocks): chunk size depends on the
    // cursor value, so claim with a CAS loop.
    long cur = cursor_.next.load(std::memory_order_relaxed);
    for (;;) {
      if (cur >= hi_) return false;
      const long remaining = hi_ - cur;
      long size;
      if (kind_ == Schedule::Kind::Guided) {
        size = guided_next(remaining, chunk_, nranks_);
      } else {
        // Static via the queue: hand out the partition blocks in order.  The
        // cursor only ever rests on block boundaries, so invert partition():
        // the first `rem` blocks have base+1 indices, the rest have base.
        const long n = hi_ - lo_;
        const long base = n / nranks_;
        const long rem = n % nranks_;
        const long off = cur - lo_;
        const long k = off < rem * (base + 1)
                           ? off / (base + 1)
                           : rem + (off - rem * (base + 1)) / base;
        size = partition(lo_, hi_, static_cast<int>(k), nranks_).hi - cur;
        if (size <= 0) size = remaining;
      }
      if (cursor_.next.compare_exchange_weak(cur, cur + size,
                                             std::memory_order_relaxed)) {
        out = {cur, cur + size};
        return true;
      }
    }
  }

 private:
  struct alignas(64) Cursor {
    std::atomic<long> next{0};
  };
  Cursor cursor_;
  // Pass parameters live on their own line so claims never write into it.
  alignas(64) long lo_ = 0;
  long hi_ = 0;
  long chunk_ = 1;
  Schedule::Kind kind_ = Schedule::Kind::Static;
  int nranks_ = 1;
};

namespace detail {
/// Per-rank iteration accounting for scheduled loops: `iters` indices
/// executed by `rank` in one pass, accumulated under the reserved
/// team/loop_iters region so reports can show the per-rank distribution and
/// its imbalance.
inline void record_loop_iters(int rank, long iters) {
  obs::ObsRegistry::instance().record(obs::counter_id("team/loop_iters"), rank,
                                      static_cast<double>(iters));
}
}  // namespace detail

/// SPMD claim loop: drains `queue` from inside a team.run body, invoking
/// body(lo, hi) per claimed chunk; records this rank's iteration count and
/// returns it.  Used by the kernels that schedule their own phases (CG's
/// mat-vec, IS's histogram passes).
template <class Body>
long claim_chunks(ChunkQueue& queue, int rank, const Body& body) {
  long iters = 0;
  Range c;
  while (queue.try_claim(c)) {
    // The Queue injection site: one crossing per successful claim, so the
    // seed field selects which claim of the pass a spec fires on.
    fault::on_site(fault::Site::Queue, rank);
    body(c.lo, c.hi);
    iters += c.size();
  }
  detail::record_loop_iters(rank, iters);
  return iters;
}

}  // namespace npb
