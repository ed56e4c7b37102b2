#include "irr/irr.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/randlc.hpp"
#include "common/wtime.hpp"
#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "irr/irr_impl.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"

namespace npb {
namespace {

using irr_detail::Exec;

// Below the cutoff a bucket is std::sort territory; the block size is the
// histogram/distribution unit.  Bucket count tracks n/cutoff so average
// bucket size stays near the cutoff, capped so per-block cursor arrays fit
// on the stack.
constexpr long kCutoff = 2048;
constexpr long kBlock = 1024;
constexpr int kMaxBuckets = 128;
constexpr int kOversample = 8;
constexpr int kMaxDepth = 24;  // equal-key safety net: recursion bails to
                               // std::sort long before this on real data

struct SortParams {
  long n;
  int iterations;
};

SortParams sort_params(ProblemClass cls) noexcept {
  switch (cls) {
    case ProblemClass::S: return {1L << 15, 4};
    case ProblemClass::W: return {1L << 17, 4};
    case ProblemClass::A: return {1L << 19, 4};
    case ProblemClass::B: return {1L << 21, 4};
    case ProblemClass::C: return {1L << 23, 4};
  }
  return {1L << 15, 4};
}

/// Shared scratch of one sample-sort pass.  Driver-allocated so the SPMD
/// personality's ranks all see one copy (rank 0 fills it in serial
/// sections); the task recursion allocates its own per level.
struct SortScratch {
  std::vector<double> splitters;     // nb - 1 ascending keys
  std::vector<long> counts;          // [block][bucket] histogram
  std::vector<long> pos;             // [block][bucket] write cursors
  std::vector<long> bucket_start;    // nb + 1 prefix
};

void sort_task(double* a, double* tmp, long n, int depth);

/// One sample-sort pass over a[0, n), result back in a[0, n) with tmp as
/// the distribution target.  Runs under any Exec personality; the bucket
/// recursion only happens when nested forking is available (task runtime).
void sample_sort_pass(Exec& ex, double* a, double* tmp, long n,
                      SortScratch& s, int depth) {
  if (n <= kCutoff || depth >= kMaxDepth) {
    ex.serial([&] { std::sort(a, a + n); });
    return;
  }
  const long nb = std::clamp(n / kCutoff, 2L, static_cast<long>(kMaxBuckets));
  const long nblocks = (n + kBlock - 1) / kBlock;

  // Splitters from a sorted strided oversample; every rank derives nb and
  // nblocks locally but only rank 0 (under SPMD) writes the shared scratch.
  ex.serial([&] {
    const long m = kOversample * nb;
    std::vector<double> sample(static_cast<std::size_t>(m));
    for (long i = 0; i < m; ++i)
      sample[static_cast<std::size_t>(i)] = a[(i * n) / m];
    std::sort(sample.begin(), sample.end());
    s.splitters.assign(static_cast<std::size_t>(nb - 1), 0.0);
    for (long j = 1; j < nb; ++j)
      s.splitters[static_cast<std::size_t>(j - 1)] =
          sample[static_cast<std::size_t>(j * kOversample)];
    s.counts.assign(static_cast<std::size_t>(nblocks * nb), 0);
    s.pos.assign(static_cast<std::size_t>(nblocks * nb), 0);
    s.bucket_start.assign(static_cast<std::size_t>(nb + 1), 0);
  });

  const double* sp = s.splitters.data();
  const auto bucket_of = [sp, nb](double v) {
    return static_cast<long>(std::upper_bound(sp, sp + (nb - 1), v) - sp);
  };

  // Per-block bucket histograms: block rows are disjoint, so the loop is
  // embarrassingly parallel at block granularity.
  ex.pranges(0, n, kBlock, [&](long lo, long hi) {
    long* row = s.counts.data() + (lo / kBlock) * nb;
    for (long i = lo; i < hi; ++i) ++row[bucket_of(a[i])];
  });

  // Serial exclusive scan in bucket-major order: bucket b of block k lands
  // at pos[k][b], and buckets end up contiguous in tmp.
  ex.serial([&] {
    long cur = 0;
    for (long b = 0; b < nb; ++b) {
      s.bucket_start[static_cast<std::size_t>(b)] = cur;
      for (long k = 0; k < nblocks; ++k) {
        s.pos[static_cast<std::size_t>(k * nb + b)] = cur;
        cur += s.counts[static_cast<std::size_t>(k * nb + b)];
      }
    }
    s.bucket_start[static_cast<std::size_t>(nb)] = cur;
  });

  // Distribute: each block replays its keys against a private cursor copy,
  // so every write target is claimed by exactly one block.
  ex.pranges(0, n, kBlock, [&](long lo, long hi) {
    long cur[kMaxBuckets];
    const long* row = s.pos.data() + (lo / kBlock) * nb;
    for (long b = 0; b < nb; ++b) cur[b] = row[b];
    for (long i = lo; i < hi; ++i) tmp[cur[bucket_of(a[i])]++] = a[i];
  });

  // Sort each bucket of tmp in place (a's slice is the nested scratch).
  // Bucket sizes are data-driven — the irregular part stealing exists for.
  ex.pfor(0, nb, [&](long b) {
    const long lo = s.bucket_start[static_cast<std::size_t>(b)];
    const long hi = s.bucket_start[static_cast<std::size_t>(b + 1)];
    if (ex.nested()) {
      sort_task(tmp + lo, a + lo, hi - lo, depth + 1);
    } else {
      std::sort(tmp + lo, tmp + hi);
    }
  });

  ex.pranges(0, n, kBlock, [&](long lo, long hi) {
    std::memcpy(a + lo, tmp + lo, static_cast<std::size_t>(hi - lo) *
                                      sizeof(double));
  });
}

/// Task-personality recursion: a default Exec routes pfor/pranges through
/// the task API (forking inside a scope, serial otherwise), so the same
/// pass recurses into sub-sorts that are themselves stealable.
void sort_task(double* a, double* tmp, long n, int depth) {
  if (n <= kCutoff || depth >= kMaxDepth) {
    std::sort(a, a + n);
    return;
  }
  SortScratch s;
  Exec ex;
  sample_sort_pass(ex, a, tmp, n, s, depth);
}

}  // namespace

RunResult run_sort(const RunConfig& cfg) {
  const SortParams p = sort_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  std::optional<WorkerTeam> team_storage;
  if (cfg.threads > 0) team_storage.emplace(cfg.threads, topts);
  WorkerTeam* team = team_storage ? &*team_storage : nullptr;

  const long n = p.n;
  std::vector<double> pristine(static_cast<std::size_t>(n));
  double x = kDefaultSeed;
  for (double& v : pristine) v = randlc(x, kDefaultMultiplier);

  // The expected output doubles as both invariants at once: matching it
  // elementwise proves sortedness and proves the output is a permutation of
  // the input (a serial std::sort of the same keys is the unique answer).
  std::vector<double> expected = pristine;
  std::sort(expected.begin(), expected.end());

  std::vector<double> a(static_cast<std::size_t>(n));
  std::vector<double> tmp(static_cast<std::size_t>(n));
  SortScratch scratch;

  const obs::RegionId r_sort = obs::region("SORT/sort");

  // One rep re-sorts the pristine keys from scratch; the leading copy makes
  // the step body idempotent, which is exactly what checkpoint/retry needs.
  const auto kernel = [&](Exec& ex) {
    ex.pranges(0, n, kBlock, [&](long lo, long hi) {
      std::memcpy(a.data() + lo, pristine.data() + lo,
                  static_cast<std::size_t>(hi - lo) * sizeof(double));
    });
    sample_sort_pass(ex, a.data(), tmp.data(), n, scratch, 0);
  };

  double t0 = 0.0, seconds = 0.0;
  if (team == nullptr) {
    t0 = wtime();
    for (int it = 1; it <= p.iterations; ++it) {
      obs::ScopedTimer ot(r_sort);
      Exec ex;
      kernel(ex);
    }
    seconds = wtime() - t0;
  } else {
    fault::StepRunner steps(team, topts);
    steps.add(a.data(), a.size() * sizeof(double));
    t0 = wtime();
    for (int it = 1; it <= p.iterations; ++it) {
      steps.step(it, [&](WorkerTeam& tm, int) {
        obs::ScopedTimer ot(r_sort);
        irr_detail::run_parallel(&tm, cfg.runtime, kernel);
      });
    }
    seconds = wtime() - t0;
  }

  long mismatches = 0;
  for (long i = 0; i < n; ++i)
    if (a[static_cast<std::size_t>(i)] != expected[static_cast<std::size_t>(i)])
      ++mismatches;

  double weighted = 0.0;
  for (long i = 0; i < n; ++i)
    weighted += a[static_cast<std::size_t>(i)] * static_cast<double>((i & 63) + 1);

  RunResult r;
  r.name = "SORT";
  r.cls = cfg.cls;
  r.mode = cfg.mode;
  r.threads = cfg.threads;
  r.seconds = seconds;
  // Keys sorted per second, the comparison-sort convention (n log2 n "ops").
  const double logn = std::log2(static_cast<double>(n));
  r.mops = static_cast<double>(p.iterations) * static_cast<double>(n) * logn /
           (seconds * 1.0e6);
  r.checksums = {weighted};
  r.verified = mismatches == 0;
  r.verify_detail =
      std::string("intrinsic: output vs serial std::sort ") +
      (mismatches == 0 ? "identical (sorted + permutation)"
                       : std::to_string(mismatches) + " MISMATCHES") +
      "\n";
  return r;
}

}  // namespace npb
