#pragma once

// Kernel template for CG; explicitly instantiated in cg_native.cpp and
// cg_java.cpp (see ep_impl.hpp for the pattern).

#include <cmath>
#include <map>
#include <optional>
#include <vector>

#include "array/array.hpp"
#include "cg/cg.hpp"
#include "common/randlc.hpp"
#include "common/wtime.hpp"
#include "fault/retry.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "par/parallel_for.hpp"
#include "par/region.hpp"
#include "par/team.hpp"
#include "simd/simd.hpp"

namespace npb::cg_detail {

struct CgOutput {
  double zeta = 0.0;       ///< final eigenvalue estimate
  double rnorm = 0.0;      ///< final true residual ||x - A z||
  double zeta_sum = 0.0;   ///< sum of per-outer-iteration zetas
  double spd_probe = 0.0;  ///< min over probes of v'(A + shift I)v / v'v
  double seconds = 0.0;
};

/// CSR matrix under an access policy, so java mode pays a bounds check per
/// element touch in the sparse mat-vec exactly as the Java port did.
template <class P>
struct Csr {
  long n = 0;
  Array1<long, P> rowptr;
  Array1<int, P> colidx;
  Array1<double, P> values;
};

/// Builds the NPB-style random sparse SPD matrix, then subtracts shift on
/// the diagonal:  A = sum_i omega_i x_i x_i' + (rcond - shift) I  with
/// omega_i a geometric sequence from 1 down to rcond and x_i sparse random
/// vectors forced to include position i (value 0.5).  Serial and policy-free
/// on purpose: generation is untimed and must be identical for every mode
/// and thread count.
template <class P>
Csr<P> make_matrix(const CgParams& p) {
  const long n = p.n;
  std::vector<std::map<int, double>> rows(static_cast<std::size_t>(n));
  double seed = kDefaultSeed;
  const double ratio = std::pow(p.rcond, 1.0 / static_cast<double>(n));
  double omega = 1.0;

  std::vector<int> pos;
  std::vector<double> val;
  pos.reserve(static_cast<std::size_t>(p.nonzer) + 1);
  val.reserve(static_cast<std::size_t>(p.nonzer) + 1);

  for (long i = 0; i < n; ++i) {
    pos.clear();
    val.clear();
    // sprnvc: nonzer distinct random positions with random values.
    while (pos.size() < static_cast<std::size_t>(p.nonzer)) {
      const double ve = randlc(seed, kDefaultMultiplier);
      const double vl = randlc(seed, kDefaultMultiplier);
      const int idx = static_cast<int>(vl * static_cast<double>(n));
      if (idx >= n) continue;
      bool dup = false;
      for (int q : pos) dup = dup || (q == idx);
      if (dup) continue;
      pos.push_back(idx);
      val.push_back(ve);
    }
    // vecset: force the diagonal contribution.
    bool has_i = false;
    for (std::size_t q = 0; q < pos.size(); ++q)
      if (pos[q] == static_cast<int>(i)) {
        val[q] = 0.5;
        has_i = true;
      }
    if (!has_i) {
      pos.push_back(static_cast<int>(i));
      val.push_back(0.5);
    }
    // Outer-product accumulation (symmetric by construction).
    for (std::size_t a = 0; a < pos.size(); ++a)
      for (std::size_t b = 0; b < pos.size(); ++b)
        rows[static_cast<std::size_t>(pos[a])][pos[b]] += omega * val[a] * val[b];
    omega *= ratio;
  }
  for (long i = 0; i < n; ++i)
    rows[static_cast<std::size_t>(i)][static_cast<int>(i)] += p.rcond - p.shift;

  long nnz = 0;
  for (const auto& r : rows) nnz += static_cast<long>(r.size());

  Csr<P> m;
  m.n = n;
  m.rowptr = Array1<long, P>(static_cast<std::size_t>(n + 1));
  m.colidx = Array1<int, P>(static_cast<std::size_t>(nnz));
  m.values = Array1<double, P>(static_cast<std::size_t>(nnz));
  long at = 0;
  m.rowptr[0] = 0;
  for (long i = 0; i < n; ++i) {
    for (const auto& [c, v] : rows[static_cast<std::size_t>(i)]) {
      m.colidx[static_cast<std::size_t>(at)] = c;
      m.values[static_cast<std::size_t>(at)] = v;
      ++at;
    }
    m.rowptr[static_cast<std::size_t>(i + 1)] = at;
  }
  return m;
}

/// y = A x over rows [lo, hi).
template <class P>
void spmv_rows(const Csr<P>& m, const Array1<double, P>& x, Array1<double, P>& y,
               long lo, long hi) {
  for (long i = lo; i < hi; ++i) {
    double sum = 0.0;
    const long e0 = m.rowptr[static_cast<std::size_t>(i)];
    const long e1 = m.rowptr[static_cast<std::size_t>(i + 1)];
    for (long e = e0; e < e1; ++e) {
      sum += m.values[static_cast<std::size_t>(e)] *
             x[static_cast<std::size_t>(m.colidx[static_cast<std::size_t>(e)])];
      P::muladds(1);
    }
    P::flops(2 * (e1 - e0));
    y[static_cast<std::size_t>(i)] = sum;
  }
}

template <class P>
double dot_rows(const Array1<double, P>& a, const Array1<double, P>& b, long lo,
                long hi) {
  double s = 0.0;
  for (long i = lo; i < hi; ++i) {
    s += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    P::muladds(1);
  }
  P::flops(2 * (hi - lo));
  return s;
}

// ---- vec-mode kernels -------------------------------------------------------
// Hand-vectorized counterparts of spmv_rows/dot_rows for --mode=vec.  Only
// instantiated with the Unchecked policy (raw-pointer access; the bounds
// check of java mode is exactly what vectorization cannot cross).  The row
// kernel is the paper's load-imbalance loop and the repo's one genuinely
// irregular gather: column indices are data, so x is gathered lane by lane
// while the matrix values stream as aligned-friendly contiguous loads.  Both
// kernels reassociate their sums (lane accumulator + in-order hsum + tail),
// which is why vec mode verifies under a tolerance tier, not bit-identity.

template <class P>
void spmv_rows_vec(const Csr<P>& m, const Array1<double, P>& x,
                   Array1<double, P>& y, long lo, long hi) {
  static_assert(!P::kChecked, "vec kernels require unchecked access");
  const double* val = m.values.data();
  const int* col = m.colidx.data();
  const double* xp = x.data();
  const long* rp = m.rowptr.data();
  double* yp = y.data();
  constexpr int W = simd::Dvec::width;
  for (long i = lo; i < hi; ++i) {
    const long e0 = rp[i];
    const long e1 = rp[i + 1];
    simd::Dvec acc = simd::Dvec::zero();
    long e = e0;
    for (; e + W <= e1; e += W) {
      simd::Dvec xv = simd::Dvec::zero();
      for (int l = 0; l < W; ++l)
        xv.set_lane(l, xp[col[e + l]]);
      acc += simd::Dvec::load(val + e) * xv;
    }
    double sum = simd::hsum(acc);
    for (; e < e1; ++e) sum += val[e] * xp[col[e]];
    P::muladds(static_cast<std::uint64_t>(e1 - e0));
    P::flops(2 * (e1 - e0));
    yp[i] = sum;
  }
}

template <class P>
double dot_rows_vec(const Array1<double, P>& a, const Array1<double, P>& b,
                    long lo, long hi) {
  static_assert(!P::kChecked, "vec kernels require unchecked access");
  P::muladds(static_cast<std::uint64_t>(hi - lo));
  P::flops(2 * (hi - lo));
  return simd::dot(a.data() + lo, b.data() + lo, hi - lo);
}

/// Scalar results of the conjugate-gradient solve, written by rank 0.
struct CgScalars {
  double pq = 0.0;     ///< x'z stash for the master (fused norm phase)
  double zz = 0.0;     ///< z'z stash (health check: NaN poison lands here)
  double rnorm = 0.0;  ///< final true residual ||x - A z||

  /// All-finite check after one outer iteration: any reduction a nan-poison
  /// spec corrupted leaves a NaN in one of these (pq feeds zeta, zz feeds
  /// the x normalization, rnorm the verification), so the step retries.
  bool healthy() const noexcept {
    return std::isfinite(pq) && std::isfinite(zz) && std::isfinite(rnorm);
  }
};

/// 25 CG iterations solving A z = x; leaves ||x - A z|| in sc.rnorm
/// (written by rank 0).  `rg` is the caller's open SPMD region; serial
/// callers pass null with rank 0 of 1.  Dot products reduce rank-ordered
/// over the static block partition (ParallelRegion::reduce_partials), so
/// the solve is deterministic under every schedule; `sched` steers only the
/// sparse mat-vec rows — the loop whose per-row work varies with the
/// nonzero count, the paper's load-imbalance case.  Row writes are disjoint
/// so any claim order yields the same q bit-for-bit, and the combine order
/// matches the forked conj_grad_forked path exactly, so the two drivers
/// produce bit-identical results for a fixed schedule and thread count.
/// `V` selects the hand-vectorized mat-vec and dot kernels (--mode=vec);
/// the axpy updates stay elementwise either way, so the only vec-vs-native
/// divergence is the documented reduction reassociation.
template <class P, bool V = false>
void conj_grad(const Csr<P>& m, const Array1<double, P>& x, Array1<double, P>& z,
               Array1<double, P>& r, Array1<double, P>& pvec,
               Array1<double, P>& q, int cg_iters, ParallelRegion* rg, int rank,
               int nranks, CgScalars& sc, Schedule sched = {}) {
  const Range blk = partition(0, m.n, rank, nranks);
  const long lo = blk.lo, hi = blk.hi;
  auto reduce = [&](double mine) -> double {
    return rg == nullptr ? mine : rg->reduce_partials(rank, mine);
  };
  auto dot = [&](const Array1<double, P>& a, const Array1<double, P>& b, long l,
                 long h) {
    if constexpr (V)
      return dot_rows_vec(a, b, l, h);
    else
      return dot_rows<P>(a, b, l, h);
  };
  auto spmv_span = [&](const Array1<double, P>& in, Array1<double, P>& out,
                       long rlo, long rhi) {
    if constexpr (V)
      spmv_rows_vec(m, in, out, rlo, rhi);
    else
      spmv_rows(m, in, out, rlo, rhi);
  };
  auto spmv = [&](const Array1<double, P>& in, Array1<double, P>& out) {
    if (rg == nullptr) {
      spmv_span(in, out, lo, hi);
      return;
    }
    rg->ranges(rank, sched, 0, m.n,
               [&](int, long rlo, long rhi) { spmv_span(in, out, rlo, rhi); });
  };

  for (long i = lo; i < hi; ++i) {
    z[static_cast<std::size_t>(i)] = 0.0;
    r[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
    pvec[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
  }
  if (rg != nullptr) rg->barrier();  // the mat-vec reads every pvec block
  double rho = reduce(dot(r, r, lo, hi));

  for (int it = 0; it < cg_iters; ++it) {
    spmv(pvec, q);
    const double pq = reduce(dot(pvec, q, lo, hi));
    const double alpha = rho / pq;
    const double rho0 = rho;
    for (long i = lo; i < hi; ++i) {
      z[static_cast<std::size_t>(i)] += alpha * pvec[static_cast<std::size_t>(i)];
      r[static_cast<std::size_t>(i)] -= alpha * q[static_cast<std::size_t>(i)];
      P::muladds(2);
    }
    P::flops(4 * (hi - lo));
    rho = reduce(dot(r, r, lo, hi));
    const double beta = rho / rho0;
    for (long i = lo; i < hi; ++i) {
      pvec[static_cast<std::size_t>(i)] =
          r[static_cast<std::size_t>(i)] + beta * pvec[static_cast<std::size_t>(i)];
      P::muladds(1);
    }
    P::flops(2 * (hi - lo));
    if (rg != nullptr) rg->barrier();  // publish pvec (and, last round, z)
  }

  // True residual ||x - A z||.
  spmv(z, q);
  double local = 0.0;
  for (long i = lo; i < hi; ++i) {
    const double d = x[static_cast<std::size_t>(i)] - q[static_cast<std::size_t>(i)];
    local += d * d;
  }
  const double sumsq = reduce(local);
  if (rank == 0) sc.rnorm = std::sqrt(sumsq);
}

/// Fork/join comparator for conj_grad: the same solve as one dispatch per
/// parallel loop, for --fused=off.  Dot products use Static
/// parallel_reduce_sum (rank-ordered combine over the same block
/// partition), the mat-vec uses `sched`, so results are bit-identical to
/// the fused path.  Under V the dots compute each rank's block partial with
/// dot_rows_vec and combine rank-ordered — the exact structure of the fused
/// path's reduce_partials — so fused-vs-forked bit-identity holds in vec
/// mode too (and the per-rank partial stays a Reduce fault-injection site).
template <class P, bool V = false>
void conj_grad_forked(const Csr<P>& m, const Array1<double, P>& x,
                      Array1<double, P>& z, Array1<double, P>& r,
                      Array1<double, P>& pvec, Array1<double, P>& q,
                      int cg_iters, WorkerTeam& team, CgScalars& sc,
                      Schedule sched) {
  const long n = m.n;
  auto spmv = [&](const Array1<double, P>& in, Array1<double, P>& out) {
    parallel_ranges(team, sched, 0, n, [&](int, long rlo, long rhi) {
      if constexpr (V)
        spmv_rows_vec(m, in, out, rlo, rhi);
      else
        spmv_rows(m, in, out, rlo, rhi);
    });
  };
  auto dot = [&](const Array1<double, P>& a, const Array1<double, P>& b) {
    if constexpr (V) {
      const ReduceScratchGuard guard(team);
      detail::PaddedDouble* partial = team.reduce_scratch();
      team.run([&](int rank) {
        const Range blk = partition(0, n, rank, team.size());
        partial[rank].v =
            fault::poison(rank, dot_rows_vec(a, b, blk.lo, blk.hi));
      });
      double total = 0.0;
      for (int t = 0; t < team.size(); ++t) total += partial[t].v;
      return total;
    } else {
      return parallel_reduce_sum(team, Schedule{}, 0, n, [&](long i) {
        P::muladds(1);
        return a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
      });
    }
  };

  parallel_ranges(team, Schedule{}, 0, n, [&](int, long lo, long hi) {
    for (long i = lo; i < hi; ++i) {
      z[static_cast<std::size_t>(i)] = 0.0;
      r[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
      pvec[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
    }
  });
  double rho = dot(r, r);

  for (int it = 0; it < cg_iters; ++it) {
    spmv(pvec, q);
    const double pq = dot(pvec, q);
    const double alpha = rho / pq;
    const double rho0 = rho;
    parallel_ranges(team, Schedule{}, 0, n, [&](int, long lo, long hi) {
      for (long i = lo; i < hi; ++i) {
        z[static_cast<std::size_t>(i)] += alpha * pvec[static_cast<std::size_t>(i)];
        r[static_cast<std::size_t>(i)] -= alpha * q[static_cast<std::size_t>(i)];
        P::muladds(2);
      }
      P::flops(4 * (hi - lo));
    });
    rho = dot(r, r);
    const double beta = rho / rho0;
    parallel_ranges(team, Schedule{}, 0, n, [&](int, long lo, long hi) {
      for (long i = lo; i < hi; ++i) {
        pvec[static_cast<std::size_t>(i)] =
            r[static_cast<std::size_t>(i)] + beta * pvec[static_cast<std::size_t>(i)];
        P::muladds(1);
      }
      P::flops(2 * (hi - lo));
    });
  }

  spmv(z, q);
  const double sumsq = parallel_reduce_sum(team, Schedule{}, 0, n, [&](long i) {
    const double d = x[static_cast<std::size_t>(i)] - q[static_cast<std::size_t>(i)];
    return d * d;
  });
  sc.rnorm = std::sqrt(sumsq);
}

template <class P, bool V = false>
CgOutput cg_run(const CgParams& p, int threads, const TeamOptions& topts) {
  // Thread creation happens at initialization (untimed), as in the paper —
  // and *before* any allocation, so a FirstTouch placement can fault the
  // matrix and vectors in on the ranks that will traverse them (the
  // co-location the paper's CG warm-up trick was after).
  std::optional<WorkerTeam> team_storage;
  if (threads > 0) team_storage.emplace(threads, topts);
  const mem::ScopedTeamPlacement placement(
      team_storage ? &*team_storage : nullptr, topts.schedule);

  const Csr<P> m = make_matrix<P>(p);
  const long n = m.n;

  Array1<double, P> x(static_cast<std::size_t>(n), 1.0);
  Array1<double, P> z(static_cast<std::size_t>(n));
  Array1<double, P> r(static_cast<std::size_t>(n));
  Array1<double, P> pvec(static_cast<std::size_t>(n));
  Array1<double, P> q(static_cast<std::size_t>(n));

  CgOutput out;

  // SPD probe (untimed intrinsic check): v'(A + shift I)v / v'v should be
  // >= rcond for any v, since A + shift I = sum omega_i x_i x_i' + rcond I.
  {
    double seed = 97531.0;
    double minratio = 1.0e300;
    for (int probe = 0; probe < 3; ++probe) {
      for (long i = 0; i < n; ++i)
        z[static_cast<std::size_t>(i)] = 2.0 * randlc(seed, kDefaultMultiplier) - 1.0;
      spmv_rows(m, z, q, 0, n);
      double vav = 0.0, vv = 0.0;
      for (long i = 0; i < n; ++i) {
        vav += z[static_cast<std::size_t>(i)] * q[static_cast<std::size_t>(i)];
        vv += z[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
      }
      minratio = std::fmin(minratio, vav / vv + p.shift);
    }
    out.spd_probe = minratio;
  }

  CgScalars sc;
  const Schedule sched = topts.schedule;

  const obs::RegionId r_cg = obs::region("CG/conj_grad");
  const obs::RegionId r_norm = obs::region("CG/norm");

  const double t0 = wtime();
  double zeta = 0.0;
  if (threads == 0) {
    for (int outer = 1; outer <= p.niter; ++outer) {
      {
        obs::ScopedTimer ot(r_cg);
        conj_grad<P, V>(m, x, z, r, pvec, q, p.cg_iters, nullptr, 0, 1, sc,
                        sched);
      }
      obs::ScopedTimer ot(r_norm);
      double xz = 0.0, zz = 0.0;
      for (long i = 0; i < n; ++i) {
        xz += x[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
        zz += z[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
      }
      zeta = p.shift + 1.0 / xz;
      out.zeta_sum += zeta;
      const double znorm = 1.0 / std::sqrt(zz);
      for (long i = 0; i < n; ++i)
        x[static_cast<std::size_t>(i)] = znorm * z[static_cast<std::size_t>(i)];
    }
  } else {
    // One outer iteration is the retry unit: x is the only array that
    // survives an iteration (z, r, pvec, q are rebuilt from it), so the
    // checkpoint is a single vector plus the iteration-carried scalars —
    // sc, zeta and the running zeta_sum.  Those scalars are registered as
    // spans and their accumulation happens inside the step body, so a
    // retried step rolls them back (no double-count) and a durable resume
    // restores them alongside x.
    fault::StepRunner steps(&*team_storage, topts);
    steps.add(x.data(), x.size() * sizeof(double));
    steps.add(&sc, sizeof sc);
    steps.add(&zeta, sizeof zeta);
    steps.add(&out.zeta_sum, sizeof out.zeta_sum);
    const auto healthy = [&] { return sc.healthy(); };
    for (int outer = 1; outer <= p.niter; ++outer) {
      if (topts.fused) {
        // Fused: the whole outer iteration — solve plus norm phase — is one
        // SPMD region, so the team stays resident across all of CG's dots,
        // axpys and mat-vecs (this is the shape the paper's hand-threaded CG
        // already had; it now goes through the shared ParallelRegion API).
        steps.step(outer, [&](WorkerTeam& team, int nt) {
          spmd(team, [&](ParallelRegion& rg, int rank) {
            {
              obs::ScopedTimer ot(r_cg);
              conj_grad<P, V>(m, x, z, r, pvec, q, p.cg_iters, &rg, rank, nt,
                              sc, sched);
            }
            obs::ScopedTimer ot(r_norm);
            const Range blk = partition(0, n, rank, nt);
            double xz = 0.0, zz = 0.0;
            for (long i = blk.lo; i < blk.hi; ++i) {
              xz += x[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
              zz += z[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
            }
            const double xz_all = rg.reduce_partials(rank, xz);
            const double zz_all = rg.reduce_partials(rank, zz);
            const double znorm = 1.0 / std::sqrt(zz_all);
            for (long i = blk.lo; i < blk.hi; ++i)
              x[static_cast<std::size_t>(i)] = znorm * z[static_cast<std::size_t>(i)];
            if (rank == 0) {  // stash for master
              sc.pq = xz_all;
              sc.zz = zz_all;
            }
          });
          zeta = p.shift + 1.0 / sc.pq;
          out.zeta_sum += zeta;
        }, healthy);
      } else {
        // Forked: one dispatch per parallel loop — the per-loop fork/join
        // cost the paper's overhead decomposition charges against Java's
        // model.
        steps.step(outer, [&](WorkerTeam& team, int) {
          {
            obs::ScopedTimer ot(r_cg);
            conj_grad_forked<P, V>(m, x, z, r, pvec, q, p.cg_iters, team, sc,
                                   sched);
          }
          obs::ScopedTimer ot(r_norm);
          const double xz = parallel_reduce_sum(team, Schedule{}, 0, n, [&](long i) {
            return x[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
          });
          const double zz = parallel_reduce_sum(team, Schedule{}, 0, n, [&](long i) {
            return z[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
          });
          sc.pq = xz;
          sc.zz = zz;
          const double znorm = 1.0 / std::sqrt(zz);
          parallel_ranges(team, Schedule{}, 0, n, [&](int, long lo, long hi) {
            for (long i = lo; i < hi; ++i)
              x[static_cast<std::size_t>(i)] = znorm * z[static_cast<std::size_t>(i)];
          });
          zeta = p.shift + 1.0 / sc.pq;
          out.zeta_sum += zeta;
        }, healthy);
      }
    }
  }
  out.seconds = wtime() - t0;
  out.zeta = zeta;
  out.rnorm = sc.rnorm;
  return out;
}

extern template CgOutput cg_run<Unchecked>(const CgParams&, int, const TeamOptions&);
extern template CgOutput cg_run<Checked>(const CgParams&, int, const TeamOptions&);
extern template CgOutput cg_run<Unchecked, true>(const CgParams&, int, const TeamOptions&);

}  // namespace npb::cg_detail
