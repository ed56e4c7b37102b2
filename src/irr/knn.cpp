#include "irr/irr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
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

constexpr int kK = 8;           // neighbors per point
constexpr int kClusters = 8;    // dense spots driving the imbalance
constexpr double kClusterSpread = 0.01;
constexpr int kSpotChecks = 64; // brute-force verification samples

struct KnnParams {
  long n;
  int iterations;
};

KnnParams knn_params(ProblemClass cls) noexcept {
  switch (cls) {
    case ProblemClass::S: return {1L << 13, 4};
    case ProblemClass::W: return {1L << 14, 4};
    case ProblemClass::A: return {1L << 15, 4};
    case ProblemClass::B: return {1L << 16, 4};
    case ProblemClass::C: return {1L << 17, 4};
  }
  return {1L << 13, 4};
}

/// Uniform-grid spatial index: points binned by cell (counting sort), cells
/// in row-major order.  g is the per-side cell count.
struct Grid {
  long g = 1;
  double w = 1.0;                 // cell width
  std::vector<long> cell_start;   // g*g + 1 prefix
  std::vector<long> order;        // point ids grouped by cell
};

long cell_of(const Grid& gr, double x, double y) noexcept {
  long cx = static_cast<long>(x / gr.w);
  long cy = static_cast<long>(y / gr.w);
  if (cx >= gr.g) cx = gr.g - 1;
  if (cy >= gr.g) cy = gr.g - 1;
  return cy * gr.g + cx;
}

void build_grid(Grid& gr, const std::vector<double>& xs,
                const std::vector<double>& ys) {
  const long n = static_cast<long>(xs.size());
  gr.g = std::max(1L, static_cast<long>(
                          std::sqrt(static_cast<double>(n) / 4.0)));
  gr.w = 1.0 / static_cast<double>(gr.g);
  const long ncells = gr.g * gr.g;
  gr.cell_start.assign(static_cast<std::size_t>(ncells + 1), 0);
  gr.order.assign(static_cast<std::size_t>(n), 0);
  std::vector<long> cnt(static_cast<std::size_t>(ncells), 0);
  for (long i = 0; i < n; ++i)
    ++cnt[static_cast<std::size_t>(cell_of(
        gr, xs[static_cast<std::size_t>(i)], ys[static_cast<std::size_t>(i)]))];
  long cur = 0;
  for (long c = 0; c < ncells; ++c) {
    gr.cell_start[static_cast<std::size_t>(c)] = cur;
    cur += cnt[static_cast<std::size_t>(c)];
    cnt[static_cast<std::size_t>(c)] = gr.cell_start[static_cast<std::size_t>(c)];
  }
  gr.cell_start[static_cast<std::size_t>(ncells)] = cur;
  for (long i = 0; i < n; ++i) {
    const long c = cell_of(gr, xs[static_cast<std::size_t>(i)],
                           ys[static_cast<std::size_t>(i)]);
    gr.order[static_cast<std::size_t>(cnt[static_cast<std::size_t>(c)]++)] = i;
  }
}

/// Sorted size-k best list (ascending squared distance, point id breaks
/// ties) — per-query serial, so the result is deterministic per point no
/// matter which thread runs the query.
struct KBest {
  double d[kK];
  long id[kK];
  int count = 0;

  double worst() const noexcept {
    return count < kK ? std::numeric_limits<double>::infinity() : d[kK - 1];
  }
  void offer(double dist, long j) noexcept {
    if (count == kK && dist >= d[kK - 1] &&
        !(dist == d[kK - 1] && j < id[kK - 1]))
      return;
    int at = count < kK ? count : kK - 1;
    while (at > 0 && (d[at - 1] > dist || (d[at - 1] == dist && id[at - 1] > j))) {
      d[at] = d[at - 1];
      id[at] = id[at - 1];
      --at;
    }
    d[at] = dist;
    id[at] = j;
    if (count < kK) ++count;
  }
};

/// Expanding-ring kNN query for point i.  Per-point cost depends on local
/// density: cluster interiors finish at ring 0-1, sparse regions walk many
/// rings — the load imbalance this suite exists to schedule.
void knn_query(const Grid& gr, const std::vector<double>& xs,
               const std::vector<double>& ys, long i, KBest& best) {
  const double px = xs[static_cast<std::size_t>(i)];
  const double py = ys[static_cast<std::size_t>(i)];
  const long c = cell_of(gr, px, py);
  const long cx = c % gr.g, cy = c / gr.g;
  for (long ring = 0; ring < 2 * gr.g; ++ring) {
    // Any cell at Chebyshev ring r+1 is at least r*w away from a point
    // inside the center cell, so once the k-th best beats that bound the
    // remaining rings cannot improve the answer.
    if (ring > 0) {
      const double bound = static_cast<double>(ring - 1) * gr.w;
      if (best.count == kK && best.worst() <= bound * bound) break;
    }
    bool any_cell = false;
    for (long dy = -ring; dy <= ring; ++dy) {
      const long y = cy + dy;
      if (y < 0 || y >= gr.g) continue;
      for (long dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::labs(dx), std::labs(dy)) != ring) continue;
        const long x = cx + dx;
        if (x < 0 || x >= gr.g) continue;
        any_cell = true;
        const long cc = y * gr.g + x;
        const long lo = gr.cell_start[static_cast<std::size_t>(cc)];
        const long hi = gr.cell_start[static_cast<std::size_t>(cc + 1)];
        for (long s = lo; s < hi; ++s) {
          const long j = gr.order[static_cast<std::size_t>(s)];
          if (j == i) continue;
          const double ddx = xs[static_cast<std::size_t>(j)] - px;
          const double ddy = ys[static_cast<std::size_t>(j)] - py;
          best.offer(ddx * ddx + ddy * ddy, j);
        }
      }
    }
    if (!any_cell && ring > 0) break;  // walked off the grid entirely
  }
}

}  // namespace

RunResult run_knn(const RunConfig& cfg) {
  const KnnParams p = knn_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  std::optional<WorkerTeam> team_storage;
  if (cfg.threads > 0) team_storage.emplace(cfg.threads, topts);
  WorkerTeam* team = team_storage ? &*team_storage : nullptr;

  const long n = p.n;
  std::vector<double> xs(static_cast<std::size_t>(n));
  std::vector<double> ys(static_cast<std::size_t>(n));
  // 70% uniform background, 30% tight clusters: randlc keeps the point set
  // reproducible across languages and runs, the clusters make per-point
  // query cost wildly non-uniform.
  {
    double x = kDefaultSeed;
    double ccx[kClusters], ccy[kClusters];
    for (int c = 0; c < kClusters; ++c) {
      ccx[c] = randlc(x, kDefaultMultiplier);
      ccy[c] = randlc(x, kDefaultMultiplier);
    }
    for (long i = 0; i < n; ++i) {
      const double pick = randlc(x, kDefaultMultiplier);
      double px = randlc(x, kDefaultMultiplier);
      double py = randlc(x, kDefaultMultiplier);
      if (pick < 0.3) {
        const int c = static_cast<int>(pick * 1e4) % kClusters;
        px = ccx[c] + (px - 0.5) * kClusterSpread;
        py = ccy[c] + (py - 0.5) * kClusterSpread;
        px = std::clamp(px, 0.0, 0.9999999);
        py = std::clamp(py, 0.0, 0.9999999);
      }
      xs[static_cast<std::size_t>(i)] = px;
      ys[static_cast<std::size_t>(i)] = py;
    }
  }

  Grid grid;
  build_grid(grid, xs, ys);  // setup, untimed (the NPB convention)

  std::vector<long> nbr(static_cast<std::size_t>(n * kK), -1);
  std::vector<double> nbr_d(static_cast<std::size_t>(n * kK), 0.0);

  const obs::RegionId r_query = obs::region("KNN/query");

  const auto kernel = [&](Exec& ex) {
    ex.pfor(0, n, [&](long i) {
      KBest best;
      knn_query(grid, xs, ys, i, best);
      for (int q = 0; q < kK; ++q) {
        nbr[static_cast<std::size_t>(i * kK + q)] = q < best.count ? best.id[q] : -1;
        nbr_d[static_cast<std::size_t>(i * kK + q)] = q < best.count ? best.d[q] : 0.0;
      }
    });
  };

  double t0 = 0.0, seconds = 0.0;
  if (team == nullptr) {
    t0 = wtime();
    for (int it = 1; it <= p.iterations; ++it) {
      obs::ScopedTimer ot(r_query);
      Exec ex;
      kernel(ex);
    }
    seconds = wtime() - t0;
  } else {
    fault::StepRunner steps(team, topts);
    steps.add(nbr.data(), nbr.size() * sizeof(long));
    steps.add(nbr_d.data(), nbr_d.size() * sizeof(double));
    t0 = wtime();
    for (int it = 1; it <= p.iterations; ++it) {
      steps.step(it, [&](WorkerTeam& tm, int) {
        obs::ScopedTimer ot(r_query);
        irr_detail::run_parallel(&tm, cfg.runtime, kernel);
      });
    }
    seconds = wtime() - t0;
  }

  // Invariant 1: every point has exactly k distinct non-self neighbors with
  // non-decreasing distances that match the stored coordinates.
  long shape_bad = 0;
  for (long i = 0; i < n && shape_bad == 0; ++i) {
    for (int q = 0; q < kK; ++q) {
      const long j = nbr[static_cast<std::size_t>(i * kK + q)];
      if (j < 0 || j >= n || j == i) { ++shape_bad; break; }
      const double ddx = xs[static_cast<std::size_t>(j)] - xs[static_cast<std::size_t>(i)];
      const double ddy = ys[static_cast<std::size_t>(j)] - ys[static_cast<std::size_t>(i)];
      if (nbr_d[static_cast<std::size_t>(i * kK + q)] != ddx * ddx + ddy * ddy) {
        ++shape_bad; break;
      }
      if (q > 0 && nbr_d[static_cast<std::size_t>(i * kK + q)] <
                       nbr_d[static_cast<std::size_t>(i * kK + q - 1)]) {
        ++shape_bad; break;
      }
      for (int q2 = 0; q2 < q; ++q2)
        if (nbr[static_cast<std::size_t>(i * kK + q2)] == j) { ++shape_bad; break; }
    }
  }

  // Invariant 2: brute-force distance check on strided sample points — the
  // grid answer's k distances must equal the k smallest true distances
  // exactly (both sides compute dx*dx + dy*dy, so equality is exact).
  long brute_bad = 0;
  std::vector<double> all_d;
  for (int s = 0; s < kSpotChecks; ++s) {
    const long i = (static_cast<long>(s) * n) / kSpotChecks;
    all_d.clear();
    for (long j = 0; j < n; ++j) {
      if (j == i) continue;
      const double ddx = xs[static_cast<std::size_t>(j)] - xs[static_cast<std::size_t>(i)];
      const double ddy = ys[static_cast<std::size_t>(j)] - ys[static_cast<std::size_t>(i)];
      all_d.push_back(ddx * ddx + ddy * ddy);
    }
    std::partial_sort(all_d.begin(), all_d.begin() + kK, all_d.end());
    for (int q = 0; q < kK; ++q)
      if (all_d[static_cast<std::size_t>(q)] !=
          nbr_d[static_cast<std::size_t>(i * kK + q)])
        ++brute_bad;
  }

  // Invariant 3: symmetry spot check — if j is closer to i than j's own
  // k-th neighbor, then i must appear in j's list.
  long sym_bad = 0;
  for (int s = 0; s < kSpotChecks; ++s) {
    const long i = (static_cast<long>(s) * n) / kSpotChecks;
    for (int q = 0; q < kK; ++q) {
      const long j = nbr[static_cast<std::size_t>(i * kK + q)];
      const double dij = nbr_d[static_cast<std::size_t>(i * kK + q)];
      if (dij < nbr_d[static_cast<std::size_t>(j * kK + kK - 1)]) {
        bool found = false;
        for (int q2 = 0; q2 < kK; ++q2)
          if (nbr[static_cast<std::size_t>(j * kK + q2)] == i) { found = true; break; }
        if (!found) ++sym_bad;
      }
    }
  }

  double kth_sum = 0.0;
  for (long i = 0; i < n; ++i)
    kth_sum += nbr_d[static_cast<std::size_t>(i * kK + kK - 1)];

  RunResult r;
  r.name = "KNN";
  r.cls = cfg.cls;
  r.mode = cfg.mode;
  r.threads = cfg.threads;
  r.seconds = seconds;
  r.mops = static_cast<double>(p.iterations) * static_cast<double>(n) /
           (seconds * 1.0e6);  // queries per microsecond
  r.checksums = {kth_sum};
  r.verified = shape_bad == 0 && brute_bad == 0 && sym_bad == 0;
  r.verify_detail =
      std::string("intrinsic: neighbor shape ") +
      (shape_bad == 0 ? "ok" : "BROKEN") + ", brute-force distances " +
      (brute_bad == 0 ? "ok" : std::to_string(brute_bad) + " MISMATCHES") +
      ", symmetry " + (sym_bad == 0 ? "ok" : std::to_string(sym_bad) + " BAD") +
      "\n";
  return r;
}

}  // namespace npb
