#pragma once

// Kernel template for IS; explicitly instantiated in is_native.cpp and
// is_java.cpp (see ep_impl.hpp for the pattern).

#include <array>
#include <optional>
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

namespace npb::is_detail {

inline constexpr int kProbes = 5;

struct IsOutput {
  /// Per-iteration sum of the ranks of the probe keys.
  std::vector<double> probe_sums;
  double key_sum = 0.0;       ///< sum of all keys after final modifications
  bool sorted_ok = false;     ///< full counting-sort output is non-decreasing
  bool permutation_ok = false;///< sorted output is a permutation of the input
  double seconds = 0.0;       ///< ranking iterations only (NPB timed region)
};

/// Generates the key sequence: key[i] = floor(max_key/4 * (r1+r2+r3+r4)).
/// Parallel-safe because each key consumes exactly 4 randlc steps, so a
/// chunk starting at key `s` starts from seed advanced by 4s.
template <class P>
void is_generate(Array1<int, P>& keys, long max_key, long lo, long hi) {
  double x = randlc_skip(kDefaultSeed, kDefaultMultiplier,
                         4ULL * static_cast<unsigned long long>(lo));
  const double k4 = static_cast<double>(max_key) / 4.0;
  for (long i = lo; i < hi; ++i) {
    double s = randlc(x, kDefaultMultiplier);
    s += randlc(x, kDefaultMultiplier);
    s += randlc(x, kDefaultMultiplier);
    s += randlc(x, kDefaultMultiplier);
    keys[static_cast<std::size_t>(i)] = static_cast<int>(k4 * s);
    P::flops(4);
  }
}

/// One ranking pass: histogram the keys then inclusive-scan the histogram,
/// so hist[k] == number of keys <= k afterwards (NPB's key_buff_ptr).
template <class P>
void is_rank_serial(const Array1<int, P>& keys, long nkeys, Array1<int, P>& hist,
                    long max_key) {
  for (long k = 0; k < max_key; ++k) hist[static_cast<std::size_t>(k)] = 0;
  for (long i = 0; i < nkeys; ++i)
    hist[static_cast<std::size_t>(keys[static_cast<std::size_t>(i)])]++;
  for (long k = 1; k < max_key; ++k)
    hist[static_cast<std::size_t>(k)] += hist[static_cast<std::size_t>(k - 1)];
}

template <class P>
IsOutput is_run(const long nkeys, const long max_key, const int iterations,
                int threads, const TeamOptions& topts) {
  // Team before the key/histogram arrays so FirstTouch commits each rank's
  // key slice locally.
  std::optional<WorkerTeam> team_storage;
  if (threads > 0) team_storage.emplace(threads, topts);
  const mem::ScopedTeamPlacement placement(
      team_storage ? &*team_storage : nullptr, topts.schedule);

  Array1<int, P> keys(static_cast<std::size_t>(nkeys));
  Array1<int, P> hist(static_cast<std::size_t>(max_key));

  std::array<long, kProbes> probe{};
  for (int j = 0; j < kProbes; ++j) probe[static_cast<std::size_t>(j)] =
      (static_cast<long>(j) * nkeys / kProbes + j) % nkeys;

  const obs::RegionId r_generate = obs::region("IS/generate");
  const obs::RegionId r_rank = obs::region("IS/rank");

  IsOutput out;

  if (threads == 0) {
    {
      obs::ScopedTimer ot(r_generate);
      is_generate(keys, max_key, 0, nkeys);
    }
    const double t0 = wtime();
    for (int it = 1; it <= iterations; ++it) {
      keys[static_cast<std::size_t>(it)] = it;
      keys[static_cast<std::size_t>(nkeys - it)] = static_cast<int>(max_key - it);
      {
        obs::ScopedTimer ot(r_rank);
        is_rank_serial(keys, nkeys, hist, max_key);
      }
      double ps = 0.0;
      for (long pi : probe)
        ps += hist[static_cast<std::size_t>(keys[static_cast<std::size_t>(pi)])];
      out.probe_sums.push_back(ps);
    }
    out.seconds = wtime() - t0;
  } else {
    WorkerTeam& team = *team_storage;
    // Per-thread private histograms (NPB OpenMP's work buffers).
    Array2<int, P> thread_hist(static_cast<std::size_t>(threads),
                               static_cast<std::size_t>(max_key));
    {
      obs::ScopedTimer ot(r_generate);
      parallel_ranges(team, 0, nkeys, [&](int, long lo, long hi) {
        is_generate(keys, max_key, lo, hi);
      });
    }

    // Both ranking phases accumulate integers, so any claim order produces
    // the same histogram; Dynamic/Guided let ranks whose key slices hash
    // into cold cache lines hand work over instead of stretching the
    // barrier — the paper's "small per-thread work in IS" pain point.
    const Schedule sched = topts.schedule;

    // Phase bodies, shared by the fused and forked drivers so both produce
    // the same (integer) histogram however the phases are dispatched.
    // Phase 1: private histogram over a share of the keys.
    auto zero_row = [&](int rank) {
      for (long k = 0; k < max_key; ++k)
        thread_hist(static_cast<std::size_t>(rank), static_cast<std::size_t>(k)) = 0;
    };
    auto count_keys = [&](int rank, long lo, long hi) {
      const auto r = static_cast<std::size_t>(rank);
      for (long i = lo; i < hi; ++i)
        thread_hist(r, static_cast<std::size_t>(keys[static_cast<std::size_t>(i)]))++;
    };
    // Phase 2: merge private histograms over a share of the buckets (each
    // bucket written exactly once).  `nt` is the width actually running —
    // after a degraded retry it is smaller than the allocation width, and
    // the stale rows above it must not be read.
    auto merge_buckets = [&](long lo, long hi, int nt) {
      for (long k = lo; k < hi; ++k) {
        int sum = 0;
        for (int t = 0; t < nt; ++t)
          sum += thread_hist(static_cast<std::size_t>(t), static_cast<std::size_t>(k));
        hist[static_cast<std::size_t>(k)] = sum;
      }
    };
    // Phase 3: the scan is inherently sequential over buckets (the paper's
    // point about small per-thread work in IS).
    auto scan = [&] {
      for (long k = 1; k < max_key; ++k)
        hist[static_cast<std::size_t>(k)] += hist[static_cast<std::size_t>(k - 1)];
    };

    // One ranking iteration is the retry unit.  The keys array carries the
    // accumulated per-iteration key modifications; hist and the per-probe
    // sums are registered too because the post-loop full_verify reads the
    // final histogram and the verification sums every iteration's probe —
    // after a durable resume skips replayed iterations they only exist in
    // the checkpoint.  The private histograms are rebuilt from scratch
    // every iteration and stay unregistered.
    out.probe_sums.assign(static_cast<std::size_t>(iterations), 0.0);
    fault::StepRunner steps(&team, topts);
    steps.add(keys.data(), keys.size() * sizeof(int));
    steps.add(hist.data(), hist.size() * sizeof(int));
    steps.add(out.probe_sums.data(), out.probe_sums.size() * sizeof(double));
    const double t0 = wtime();
    for (int it = 1; it <= iterations; ++it) {
      steps.step(it, [&](WorkerTeam& tm, int nt) {
        if (topts.fused) {
          // Fused: key modification, both histogram phases and the scan run
          // resident in one dispatch per iteration.
          obs::ScopedTimer ot(r_rank);
          spmd(tm, [&](ParallelRegion& rg, int rank) {
            if (rank == 0) {
              keys[static_cast<std::size_t>(it)] = it;
              keys[static_cast<std::size_t>(nkeys - it)] =
                  static_cast<int>(max_key - it);
            }
            zero_row(rank);
            rg.barrier();  // publish the modified keys
            rg.ranges(rank, sched, 0, nkeys, count_keys);
            rg.ranges(rank, sched, 0, max_key,
                      [&](int, long lo, long hi) { merge_buckets(lo, hi, nt); });
            if (rank == 0) scan();
          });
        } else {
          // Forked: one dispatch per phase (zero, count, merge), master scan.
          keys[static_cast<std::size_t>(it)] = it;
          keys[static_cast<std::size_t>(nkeys - it)] = static_cast<int>(max_key - it);
          obs::ScopedTimer ot(r_rank);
          tm.run(zero_row);
          parallel_ranges(tm, sched, 0, nkeys, count_keys);
          parallel_ranges(tm, sched, 0, max_key,
                          [&](int, long lo, long hi) { merge_buckets(lo, hi, nt); });
          scan();
        }
        double ps = 0.0;
        for (long pi : probe)
          ps += hist[static_cast<std::size_t>(keys[static_cast<std::size_t>(pi)])];
        out.probe_sums[static_cast<std::size_t>(it - 1)] = ps;
      });
    }
    out.seconds = wtime() - t0;
  }

  // ---- untimed verification machinery (NPB full_verify) ----
  for (long i = 0; i < nkeys; ++i)
    out.key_sum += keys[static_cast<std::size_t>(i)];

  // Counting-sort placement from the final histogram (exclusive positions),
  // then check sortedness and that the output is a permutation of the input.
  std::vector<int> sorted(static_cast<std::size_t>(nkeys));
  std::vector<long> pos(static_cast<std::size_t>(max_key));
  for (long k = 0; k < max_key; ++k)
    pos[static_cast<std::size_t>(k)] =
        k == 0 ? 0 : hist[static_cast<std::size_t>(k - 1)];
  for (long i = 0; i < nkeys; ++i) {
    const int key = keys[static_cast<std::size_t>(i)];
    sorted[static_cast<std::size_t>(pos[static_cast<std::size_t>(key)]++)] = key;
  }
  out.sorted_ok = true;
  for (long i = 1; i < nkeys; ++i)
    if (sorted[static_cast<std::size_t>(i - 1)] > sorted[static_cast<std::size_t>(i)])
      out.sorted_ok = false;
  // Permutation: placement consumed exactly the histogram counts.
  out.permutation_ok = true;
  for (long k = 0; k < max_key; ++k)
    if (pos[static_cast<std::size_t>(k)] != hist[static_cast<std::size_t>(k)])
      out.permutation_ok = false;
  double sorted_sum = 0.0;
  for (long i = 0; i < nkeys; ++i) sorted_sum += sorted[static_cast<std::size_t>(i)];
  if (sorted_sum != out.key_sum) out.permutation_ok = false;

  return out;
}

extern template IsOutput is_run<Unchecked>(long, long, int, int, const TeamOptions&);
extern template IsOutput is_run<Checked>(long, long, int, int, const TeamOptions&);

}  // namespace npb::is_detail
