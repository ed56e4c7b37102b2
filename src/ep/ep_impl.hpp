#pragma once

// Kernel template for EP.  Explicitly instantiated in ep_native.cpp and
// ep_java.cpp under the two compile-flag environments (see the top-level
// CMakeLists for the flag sets); the extern template declarations at the
// bottom keep other translation units from instantiating it implicitly.

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "array/array.hpp"
#include "common/randlc.hpp"
#include "common/wtime.hpp"
#include "fault/retry.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "par/parallel_for.hpp"
#include "par/region.hpp"
#include "par/team.hpp"

namespace npb::ep_detail {

inline constexpr double kEpSeed = 271828183.0;
inline constexpr long kBlockPairs = 1L << 16;
inline constexpr int kAnnuli = 10;

struct EpOutput {
  double sx = 0.0;
  double sy = 0.0;
  double accepted = 0.0;
  std::array<double, kAnnuli> q{};
  double seconds = 0.0;
};

struct BlockAccum {
  double sx = 0.0;
  double sy = 0.0;
  double accepted = 0.0;
  std::array<double, kAnnuli> q{};
};

/// Processes one block of kBlockPairs pairs starting at pair offset
/// block * kBlockPairs, accumulating into `acc`.  `buf` is the caller's
/// scratch of 2*kBlockPairs doubles.
template <class P>
void ep_block(long block, Array1<double, P>& buf, BlockAccum& acc) {
  const auto nvals = static_cast<std::size_t>(2 * kBlockPairs);
  double x = randlc_skip(kEpSeed, kDefaultMultiplier,
                         static_cast<unsigned long long>(block) * nvals);
  vranlc(nvals, x, kDefaultMultiplier, buf.data());

  for (long i = 0; i < kBlockPairs; ++i) {
    const double x1 = 2.0 * buf[static_cast<std::size_t>(2 * i)] - 1.0;
    const double x2 = 2.0 * buf[static_cast<std::size_t>(2 * i) + 1] - 1.0;
    const double t = x1 * x1 + x2 * x2;
    P::flops(7);
    P::muladds(2);
    if (t <= 1.0) {
      const double tf = std::sqrt(-2.0 * std::log(t) / t);
      const double gx = x1 * tf;
      const double gy = x2 * tf;
      acc.sx += gx;
      acc.sy += gy;
      const auto l = static_cast<std::size_t>(std::fmax(std::fabs(gx), std::fabs(gy)));
      acc.q[l] += 1.0;
      acc.accepted += 1.0;
      P::flops(8);
    }
  }
}

template <class P>
EpOutput ep_run(int log2_pairs, int threads, const TeamOptions& topts) {
  const long npairs = 1L << log2_pairs;
  const long nblocks = (npairs + kBlockPairs - 1) / kBlockPairs;

  const obs::RegionId r_blocks = obs::region("EP/blocks");

  EpOutput out;
  const double t0 = wtime();

  if (threads == 0) {
    Array1<double, P> buf(static_cast<std::size_t>(2 * kBlockPairs));
    BlockAccum acc;
    {
      obs::ScopedTimer ot(r_blocks);
      for (long b = 0; b < nblocks; ++b) ep_block<P>(b, buf, acc);
    }
    out.sx = acc.sx;
    out.sy = acc.sy;
    out.accepted = acc.accepted;
    out.q = acc.q;
  } else {
    WorkerTeam base_team(threads, topts);
    // EP's only buffers are per-rank block scratch allocated on the workers
    // themselves (already the right first touch); the scope keeps the mem
    // context uniform across benchmarks.
    const mem::ScopedTeamPlacement placement(&base_team, topts.schedule);
    // Blocks are independent (each seeds itself by skip-ahead), so any
    // schedule partitions them safely.  Static keeps one accumulator per
    // rank, combined in rank order; Dynamic/Guided accumulate per *chunk*
    // and combine in chunk order — chunk boundaries are a pure function of
    // the schedule, so the sums no longer depend on which rank wins each
    // claim race, and the fused and forked drivers (which share rank_body)
    // are bit-identical.
    const Schedule sched = topts.schedule;
    std::vector<BlockAccum> partial;
    std::vector<Range> chunks;
    alignas(64) std::atomic<std::size_t> cursor{0};
    // EP is one shot, so the whole computation is one retry step.  The
    // combined output fields are the only carried state: the per-rank
    // accumulators below are (re)built per attempt from the width actually
    // running, and the deterministic combine happens at the end of the step
    // body — registered as checkpoint spans so a retry rolls the combine
    // back and a durable resume restores the finished totals.
    fault::StepRunner steps(&base_team, topts);
    steps.add(&out.sx, sizeof out.sx);
    steps.add(&out.sy, sizeof out.sy);
    steps.add(&out.accepted, sizeof out.accepted);
    steps.add(out.q.data(), out.q.size() * sizeof(double));
    steps.step(1, [&](WorkerTeam& team, int nt) {
      cursor.store(0, std::memory_order_relaxed);
      if (sched.kind == Schedule::Kind::Static) {
        partial.assign(static_cast<std::size_t>(nt), BlockAccum{});
      } else {
        schedule_chunks_into(chunks, 0, nblocks, sched, nt);
        partial.assign(chunks.size(), BlockAccum{});
      }
      auto rank_body = [&](int rank) {
        Array1<double, P> buf(static_cast<std::size_t>(2 * kBlockPairs));
        obs::ScopedTimer ot(r_blocks);
        if (sched.kind == Schedule::Kind::Static) {
          BlockAccum acc;
          const Range r = partition(0, nblocks, rank, nt);
          for (long b = r.lo; b < r.hi; ++b) ep_block<P>(b, buf, acc);
          detail::record_loop_iters(rank, r.size());
          partial[static_cast<std::size_t>(rank)] = acc;
        } else {
          long iters = 0;
          for (;;) {
            const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunks.size()) break;
            BlockAccum acc;
            for (long b = chunks[c].lo; b < chunks[c].hi; ++b)
              ep_block<P>(b, buf, acc);
            partial[c] = acc;
            iters += chunks[c].size();
          }
          detail::record_loop_iters(rank, iters);
        }
      };
      // EP is embarrassingly parallel — a single dispatch either way; fusion
      // just routes it through the SPMD region entry so team/region_span and
      // the dispatch count line up with the other benchmarks' tables.
      if (topts.fused) {
        spmd(team, [&](ParallelRegion&, int rank) { rank_body(rank); });
      } else {
        team.run(rank_body);
      }
      // Deterministic combine: rank order (Static) or chunk order.
      for (const BlockAccum& acc : partial) {
        out.sx += acc.sx;
        out.sy += acc.sy;
        out.accepted += acc.accepted;
        for (int l = 0; l < kAnnuli; ++l) out.q[static_cast<std::size_t>(l)] +=
            acc.q[static_cast<std::size_t>(l)];
      }
    });
  }

  out.seconds = wtime() - t0;
  return out;
}

extern template EpOutput ep_run<Unchecked>(int, int, const TeamOptions&);
extern template EpOutput ep_run<Checked>(int, int, const TeamOptions&);

}  // namespace npb::ep_detail
