#include "irr/irr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
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

constexpr long kPanel = 32;

struct GetrfParams {
  long n;
  int iterations;
};

GetrfParams getrf_params(ProblemClass cls) noexcept {
  switch (cls) {
    case ProblemClass::S: return {192, 3};
    case ProblemClass::W: return {256, 3};
    case ProblemClass::A: return {384, 3};
    case ProblemClass::B: return {512, 3};
    case ProblemClass::C: return {768, 3};
  }
  return {192, 3};
}

inline double& at(std::vector<double>& a, long n, long i, long j) noexcept {
  return a[static_cast<std::size_t>(j * n + i)];
}

/// Blocked right-looking LU with partial pivoting (LAPACK dgetrf shape),
/// column-major.  The panel factor is serial; row interchanges and the
/// swap/solve/update of every column outside the panel are independent
/// per-column work — and the trailing matrix shrinks with each panel, so
/// the parallel loop's size and per-column cost change every outer step.
/// Pivot choices come only from the serial panel, so L, U and ipiv are
/// bit-identical across personalities and thread counts.
void getrf_blocked(Exec& ex, std::vector<double>& a, long n,
                   std::vector<long>& ipiv) {
  double* ad = a.data();
  for (long j0 = 0; j0 < n; j0 += kPanel) {
    const long jb = std::min(kPanel, n - j0);

    // Serial panel factor: unblocked LU of columns [j0, j0+jb) with partial
    // pivoting; interchanges applied inside the panel only (the parallel
    // loop below applies them to every other column).
    ex.serial([&] {
      for (long jj = j0; jj < j0 + jb; ++jj) {
        long piv = jj;
        double best = std::fabs(ad[jj * n + jj]);
        for (long i = jj + 1; i < n; ++i) {
          const double v = std::fabs(ad[jj * n + i]);
          if (v > best) { best = v; piv = i; }
        }
        ipiv[static_cast<std::size_t>(jj)] = piv;
        if (piv != jj)
          for (long j = j0; j < j0 + jb; ++j)
            std::swap(ad[j * n + jj], ad[j * n + piv]);
        const double d = ad[jj * n + jj];
        if (d != 0.0) {
          const double inv = 1.0 / d;
          for (long i = jj + 1; i < n; ++i) ad[jj * n + i] *= inv;
        }
        for (long j = jj + 1; j < j0 + jb; ++j) {
          const double m = ad[j * n + jj];
          if (m != 0.0)
            for (long i = jj + 1; i < n; ++i) ad[j * n + i] -= ad[jj * n + i] * m;
        }
      }
    });

    // Every column outside the panel, one task/chunk each: columns left of
    // the panel only replay the interchanges; columns right of it also get
    // the unit-L solve + trailing update (one fused sweep per panel column
    // is exactly the right-looking elimination restricted to that column).
    const long outside = n - jb;
    ex.pfor(0, outside, [&](long jx) {
      const long j = jx < j0 ? jx : jx + jb;
      double* cj = ad + j * n;
      for (long jj = j0; jj < j0 + jb; ++jj) {
        const long piv = ipiv[static_cast<std::size_t>(jj)];
        if (piv != jj) std::swap(cj[jj], cj[piv]);
      }
      if (j > j0) {
        for (long jj = j0; jj < j0 + jb; ++jj) {
          const double u = cj[jj];
          if (u != 0.0) {
            const double* ljj = ad + jj * n;
            for (long i = jj + 1; i < n; ++i) cj[i] -= ljj[i] * u;
          }
        }
      }
    });
  }
}

}  // namespace

RunResult run_getrf_irr(const RunConfig& cfg) {
  const GetrfParams p = getrf_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  std::optional<WorkerTeam> team_storage;
  if (cfg.threads > 0) team_storage.emplace(cfg.threads, topts);
  WorkerTeam* team = team_storage ? &*team_storage : nullptr;

  const long n = p.n;
  std::vector<double> pristine(static_cast<std::size_t>(n * n));
  {
    double x = kDefaultSeed;
    for (double& v : pristine) v = randlc(x, kDefaultMultiplier) - 0.5;
  }

  std::vector<double> a(static_cast<std::size_t>(n * n));
  std::vector<long> ipiv(static_cast<std::size_t>(n), 0);

  const obs::RegionId r_factor = obs::region("GETRF/factor");

  // One rep re-factors the pristine matrix; the leading copy makes the step
  // body idempotent for checkpoint/retry.
  const auto kernel = [&](Exec& ex) {
    ex.pranges(0, n, kPanel, [&](long lo, long hi) {
      std::memcpy(a.data() + lo * n, pristine.data() + lo * n,
                  static_cast<std::size_t>((hi - lo) * n) * sizeof(double));
    });
    getrf_blocked(ex, a, n, ipiv);
  };

  double t0 = 0.0, seconds = 0.0;
  if (team == nullptr) {
    t0 = wtime();
    for (int it = 1; it <= p.iterations; ++it) {
      obs::ScopedTimer ot(r_factor);
      Exec ex;
      kernel(ex);
    }
    seconds = wtime() - t0;
  } else {
    fault::StepRunner steps(team, topts);
    steps.add(a.data(), a.size() * sizeof(double));
    steps.add(ipiv.data(), ipiv.size() * sizeof(long));
    t0 = wtime();
    for (int it = 1; it <= p.iterations; ++it) {
      steps.step(it, [&](WorkerTeam& tm, int) {
        obs::ScopedTimer ot(r_factor);
        irr_detail::run_parallel(&tm, cfg.runtime, kernel);
      });
    }
    seconds = wtime() - t0;
  }

  // Residual check: reconstruct L*U column by column (L unit lower, U upper,
  // both packed in `a`) and compare against the pivoted original, bounding
  // max|PA - LU| / (n * eps * max|A|).
  double max_a = 0.0;
  for (const double v : pristine) max_a = std::max(max_a, std::fabs(v));
  std::vector<double> pa = pristine;
  for (long jj = 0; jj < n; ++jj) {
    const long piv = ipiv[static_cast<std::size_t>(jj)];
    if (piv != jj)
      for (long j = 0; j < n; ++j)
        std::swap(at(pa, n, jj, j), at(pa, n, piv, j));
  }
  double max_diff = 0.0;
  std::vector<double> col(static_cast<std::size_t>(n));
  for (long j = 0; j < n; ++j) {
    std::fill(col.begin(), col.end(), 0.0);
    for (long k = 0; k <= j; ++k) {
      const double ukj = at(a, n, k, j);
      if (ukj == 0.0) continue;
      col[static_cast<std::size_t>(k)] += ukj;  // L[k][k] == 1
      for (long i = k + 1; i < n; ++i)
        col[static_cast<std::size_t>(i)] += at(a, n, i, k) * ukj;
    }
    for (long i = 0; i < n; ++i)
      max_diff = std::max(max_diff,
                          std::fabs(col[static_cast<std::size_t>(i)] -
                                    at(pa, n, i, j)));
  }
  const double eps = std::numeric_limits<double>::epsilon();
  const double residual = max_diff / (static_cast<double>(n) * eps * max_a);
  const bool ok = residual < 100.0;

  double trace_u = 0.0, piv_sum = 0.0;
  for (long j = 0; j < n; ++j) {
    trace_u += at(a, n, j, j);
    piv_sum += static_cast<double>(ipiv[static_cast<std::size_t>(j)]);
  }

  RunResult r;
  r.name = "GETRF";
  r.cls = cfg.cls;
  r.mode = cfg.mode;
  r.threads = cfg.threads;
  r.seconds = seconds;
  const double dn = static_cast<double>(n);
  r.mops = static_cast<double>(p.iterations) * (2.0 / 3.0) * dn * dn * dn /
           (seconds * 1.0e6);
  r.checksums = {trace_u, piv_sum};
  r.verified = ok;
  {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.3g", residual);
    r.verify_detail = std::string("intrinsic: residual max|PA-LU|/(n*eps*|A|) = ") +
                      buf + (ok ? " (< 100)" : " EXCEEDS 100") + "\n";
  }
  return r;
}

}  // namespace npb
