#pragma once

// Kernel template for SP; explicitly instantiated in sp_native.cpp and
// sp_java.cpp (see ep_impl.hpp for the pattern).

#include <optional>

#include "common/wtime.hpp"
#include "fault/retry.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "par/parallel_for.hpp"
#include "par/region.hpp"
#include "par/team.hpp"
#include "pseudoapp/app.hpp"
#include "pseudoapp/field_impl.hpp"
#include "simd/simd.hpp"

namespace npb::sp_detail {

using namespace pseudoapp;

/// Per-thread pentadiagonal workspace: the five bands and the line RHS.
template <class P>
struct PentaWork {
  Array1<double, P> e, a, b, c, f, r;
  explicit PentaWork(long n)
      : e(static_cast<std::size_t>(n)), a(static_cast<std::size_t>(n)),
        b(static_cast<std::size_t>(n)), c(static_cast<std::size_t>(n)),
        f(static_cast<std::size_t>(n)), r(static_cast<std::size_t>(n)) {}
};

/// Solves (I + dt*Ld_m) dv = r along one line for characteristic component m
/// with eigenvalue field lambda*phi(c).  The LHS bands carry convection,
/// diffusion and the 4th-difference dissipation with NPB's modified
/// near-boundary rows (mirroring the RHS operator).
///
/// Under V (--mode=vec) the band *setup* of the interior rows (the ones with
/// the full 5-point dissipation shape) runs lane-parallel: phi is gathered
/// lane by lane (its stride depends on the sweep direction), the five band
/// values compute elementwise in the scalar operation order, and the stores
/// land in the contiguous per-q workspaces.  The banded elimination itself
/// is a loop-carried recurrence (row q+1 needs the eliminated row q) and
/// deliberately stays scalar — same numerics in both modes.
template <class P, bool V = false, class PhiAt, class RGet, class RSet>
void penta_line(const System& sys, double lambda, double h, double dt, long n,
                const PhiAt& phi_at, const RGet& rget, const RSet& rset,
                PentaWork<P>& ws) {
  const double inv2h = 1.0 / (2.0 * h);
  const double invh2 = 1.0 / (h * h);
  const double de = dt * sys.eps4;
  const long nc = n - 2;

  [[maybe_unused]] long q0 = 0;
  if constexpr (V) {
    static_assert(!P::kChecked, "vec kernels require unchecked access");
    constexpr int W = simd::Dvec::width;
    // Boundary rows (q = 0, 1, nc-2, nc-1) keep the scalar path below; the
    // interior block [2, nc-2) is lane-chunked here.  A chunk only runs when
    // it fits entirely inside the interior.
    const double diff = dt * sys.nu * invh2;
    const simd::Dvec vdiff = simd::Dvec::broadcast(diff);
    const simd::Dvec vone = simd::Dvec::broadcast(1.0);
    const simd::Dvec vde = simd::Dvec::broadcast(de);
    const simd::Dvec vm4de = simd::Dvec::broadcast(-4.0 * de);
    const simd::Dvec v6de = simd::Dvec::broadcast(6.0 * de);
    const simd::Dvec vtwo = simd::Dvec::broadcast(2.0);
    const simd::Dvec vdt = simd::Dvec::broadcast(dt);
    const simd::Dvec vlambda = simd::Dvec::broadcast(lambda);
    const simd::Dvec vinv2h = simd::Dvec::broadcast(inv2h);
    for (long q = 2; q + W <= nc - 2; q += W) {
      simd::Dvec phi = simd::Dvec::zero();
      for (int l = 0; l < W; ++l) phi.set_lane(l, phi_at(q + 1 + l));
      const simd::Dvec conv = vdt * (vlambda * phi) * vinv2h;
      const auto Q = static_cast<std::size_t>(q);
      simd::store(ws.e.data() + Q, vde);
      simd::store(ws.a.data() + Q, -conv - vdiff + vm4de);
      simd::store(ws.b.data() + Q, vone + vtwo * vdiff + v6de);
      simd::store(ws.c.data() + Q, conv - vdiff + vm4de);
      simd::store(ws.f.data() + Q, vde);
      for (int l = 0; l < W; ++l)
        ws.r[Q + static_cast<std::size_t>(l)] = rget(q + 1 + l);
      P::flops(12 * W);
      q0 = q + W;  // scalar loop resumes after the last full chunk
    }
  }

  for (long q = 0; q < nc; ++q) {
    if constexpr (V) {
      // Skip the rows the lane loop above already produced.
      if (q >= 2 && q < q0) continue;
    }
    const long cidx = q + 1;
    const double lam = lambda * phi_at(cidx);
    const double conv = dt * lam * inv2h;
    const double diff = dt * sys.nu * invh2;
    const auto Q = static_cast<std::size_t>(q);
    double eb = 0.0, ab = -conv - diff, bb = 1.0 + 2.0 * diff, cb = conv - diff,
           fb = 0.0;
    // 4th-difference rows (same shapes as the RHS operator).
    if (cidx == 1) {
      bb += 5.0 * de;
      cb += -4.0 * de;
      fb += de;
    } else if (cidx == 2) {
      ab += -4.0 * de;
      bb += 6.0 * de;
      cb += -4.0 * de;
      fb += de;
    } else if (cidx == n - 3) {
      eb += de;
      ab += -4.0 * de;
      bb += 6.0 * de;
      cb += -4.0 * de;
    } else if (cidx == n - 2) {
      eb += de;
      ab += -4.0 * de;
      bb += 5.0 * de;
    } else {
      eb += de;
      ab += -4.0 * de;
      bb += 6.0 * de;
      cb += -4.0 * de;
      fb += de;
    }
    ws.e[Q] = eb;
    ws.a[Q] = ab;
    ws.b[Q] = bb;
    ws.c[Q] = cb;
    ws.f[Q] = fb;
    ws.r[Q] = rget(cidx);
    P::flops(12);
  }

  // Banded LU elimination of the two sub-diagonals, then back substitution.
  for (long q = 0; q < nc; ++q) {
    const auto Q = static_cast<std::size_t>(q);
    if (q + 1 < nc) {
      const auto Q1 = static_cast<std::size_t>(q + 1);
      const double f1 = ws.a[Q1] / ws.b[Q];
      ws.b[Q1] -= f1 * ws.c[Q];
      ws.c[Q1] -= f1 * ws.f[Q];
      ws.r[Q1] -= f1 * ws.r[Q];
      P::flops(7);
      P::muladds(3);
    }
    if (q + 2 < nc) {
      const auto Q2 = static_cast<std::size_t>(q + 2);
      const double f2 = ws.e[Q2] / ws.b[Q];
      ws.a[Q2] -= f2 * ws.c[Q];
      ws.b[Q2] -= f2 * ws.f[Q];
      ws.r[Q2] -= f2 * ws.r[Q];
      P::flops(7);
      P::muladds(3);
    }
  }
  for (long q = nc - 1; q >= 0; --q) {
    const auto Q = static_cast<std::size_t>(q);
    double s = ws.r[Q];
    if (q + 1 < nc) s -= ws.c[Q] * ws.r[static_cast<std::size_t>(q + 1)];
    if (q + 2 < nc) s -= ws.f[Q] * ws.r[static_cast<std::size_t>(q + 2)];
    ws.r[Q] = s / ws.b[Q];
    P::flops(5);
  }
  for (long q = 0; q < nc; ++q)
    rset(q + 1, ws.r[static_cast<std::size_t>(q)]);
}

/// Pointwise 5x5 transform of the rhs over plane block [lo, hi):
/// rhs <- scale * M * rhs.
template <class P>
void transform_planes(Fields<P>& f, const Mat5& m, double scale, long lo, long hi) {
  const long n = f.n;
  for (long i = lo; i < hi; ++i)
    for (long j = 1; j < n - 1; ++j)
      for (long k = 1; k < n - 1; ++k) {
        Vec5 v{};
        for (int a = 0; a < kComps; ++a) {
          double s = 0.0;
          for (int b = 0; b < kComps; ++b) {
            s += m[static_cast<std::size_t>(a * kComps + b)] *
                 f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                       static_cast<std::size_t>(k), static_cast<std::size_t>(b));
            P::muladds(1);
          }
          v[static_cast<std::size_t>(a)] = scale * s;
          P::flops(11);
        }
        for (int a = 0; a < kComps; ++a)
          f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                static_cast<std::size_t>(k), static_cast<std::size_t>(a)) =
              v[static_cast<std::size_t>(a)];
      }
}

/// Hand-vectorized transform for --mode=vec.  The five components of one
/// grid point are contiguous (m is the innermost Array4 index), so each
/// matrix row contracts against them as one in-order lane dot (simd::dot) —
/// the 5-term sums reassociate, bounded by the vec tolerance tier.
template <class P>
void transform_planes_vec(Fields<P>& f, const Mat5& m, double scale, long lo,
                          long hi) {
  static_assert(!P::kChecked, "vec kernels require unchecked access");
  const long n = f.n;
  for (long i = lo; i < hi; ++i)
    for (long j = 1; j < n - 1; ++j)
      for (long k = 1; k < n - 1; ++k) {
        double* rp = &f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                            static_cast<std::size_t>(k), 0);
        Vec5 v{};
        for (int a = 0; a < kComps; ++a) {
          const double s = simd::dot(m.data() + a * kComps, rp, kComps);
          v[static_cast<std::size_t>(a)] = scale * s;
          P::muladds(kComps);
          P::flops(11);
        }
        for (int a = 0; a < kComps; ++a)
          rp[a] = v[static_cast<std::size_t>(a)];
      }
}

template <class F>
void over_range(WorkerTeam* team, long n, const F& body) {
  if (team == nullptr) {
    body(1, n - 1);
  } else {
    team->run([&](int rank) {
      const Range r = partition(1, n - 1, rank, team->size());
      body(r.lo, r.hi);
    });
  }
}

template <class P, bool V = false>
AppOutput sp_run(const AppParams& prm, int threads, const TeamOptions& topts) {
  // Team before the fields: under FirstTouch each rank commits the
  // k-plane slabs it will sweep, instead of every page faulting in on
  // the master during init_fields.  The sweeps split planes statically
  // under every --schedule, so placement does too.
  std::optional<WorkerTeam> team_storage;
  if (threads > 0) team_storage.emplace(threads, topts);
  WorkerTeam* team = team_storage ? &*team_storage : nullptr;
  const mem::ScopedTeamPlacement placement(team, Schedule{});

  Fields<P> f(prm.n);
  init_fields(f);
  const long n = prm.n;
  const double dt = prm.dt;

  const obs::RegionId r_rhs = obs::region("SP/rhs");
  const obs::RegionId r_transform = obs::region("SP/transform");
  const obs::RegionId r_xsolve = obs::region("SP/x_solve");
  const obs::RegionId r_ysolve = obs::region("SP/y_solve");
  const obs::RegionId r_zsolve = obs::region("SP/z_solve");
  const obs::RegionId r_add = obs::region("SP/add");

  auto do_rhs = [&] {
    over_range(team, n, [&](long lo, long hi) { compute_rhs_planes(f, lo, hi); });
  };
  auto transform_lohi = [&](const Mat5& m, double scale, long lo, long hi) {
    if constexpr (V)
      transform_planes_vec(f, m, scale, lo, hi);
    else
      transform_planes(f, m, scale, lo, hi);
  };
  auto transform = [&](const Mat5& m, double scale) {
    obs::ScopedTimer ot(r_transform);
    over_range(team, n,
               [&](long lo, long hi) { transform_lohi(m, scale, lo, hi); });
  };

  AppOutput out;
  do_rhs();
  out.rhs_initial = rhs_norms(f);
  out.err_initial = error_norms(f);

  // Phase bodies over a slab [lo, hi), shared verbatim by the fused and
  // forked drivers so both partition identically (bit-identical results).
  auto x_solve = [&](long lo, long hi, PentaWork<P>& ws) {
    for (long j = lo; j < hi; ++j)
      for (long k = 1; k < n - 1; ++k)
        for (int m = 0; m < kComps; ++m)
          penta_line<P, V>(
              f.sys, f.sys.lx[static_cast<std::size_t>(m)], f.h, dt, n,
              [&](long c) {
                return f.phi(static_cast<std::size_t>(c), static_cast<std::size_t>(j),
                             static_cast<std::size_t>(k));
              },
              [&](long c) {
                return f.rhs(static_cast<std::size_t>(c), static_cast<std::size_t>(j),
                             static_cast<std::size_t>(k), static_cast<std::size_t>(m));
              },
              [&](long c, double v) {
                f.rhs(static_cast<std::size_t>(c), static_cast<std::size_t>(j),
                      static_cast<std::size_t>(k), static_cast<std::size_t>(m)) = v;
              },
              ws);
  };
  auto y_solve = [&](long lo, long hi, PentaWork<P>& ws) {
    for (long i = lo; i < hi; ++i)
      for (long k = 1; k < n - 1; ++k)
        for (int m = 0; m < kComps; ++m)
          penta_line<P, V>(
              f.sys, f.sys.ly[static_cast<std::size_t>(m)], f.h, dt, n,
              [&](long c) {
                return f.phi(static_cast<std::size_t>(i), static_cast<std::size_t>(c),
                             static_cast<std::size_t>(k));
              },
              [&](long c) {
                return f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(c),
                             static_cast<std::size_t>(k), static_cast<std::size_t>(m));
              },
              [&](long c, double v) {
                f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(c),
                      static_cast<std::size_t>(k), static_cast<std::size_t>(m)) = v;
              },
              ws);
  };
  auto z_solve = [&](long lo, long hi, PentaWork<P>& ws) {
    for (long i = lo; i < hi; ++i)
      for (long j = 1; j < n - 1; ++j)
        for (int m = 0; m < kComps; ++m)
          penta_line<P, V>(
              f.sys, f.sys.lz[static_cast<std::size_t>(m)], f.h, dt, n,
              [&](long c) {
                return f.phi(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                             static_cast<std::size_t>(c));
              },
              [&](long c) {
                return f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                             static_cast<std::size_t>(c), static_cast<std::size_t>(m));
              },
              [&](long c, double v) {
                f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                      static_cast<std::size_t>(c), static_cast<std::size_t>(m)) = v;
              },
              ws);
  };
  auto add_phase = [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i)
      for (long j = 1; j < n - 1; ++j)
        for (long k = 1; k < n - 1; ++k)
          for (int m = 0; m < kComps; ++m)
            f.u(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                static_cast<std::size_t>(k), static_cast<std::size_t>(m)) +=
                f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                      static_cast<std::size_t>(k), static_cast<std::size_t>(m));
  };

  // One ADI time step is the retry unit.  As in BT, u is the only state a
  // step carries into the next one (phi, forcing and ue are init-time
  // constants, rhs is rebuilt from u), so the checkpoint is just u.
  fault::StepRunner steps(team, topts);
  steps.add(f.u.data(), f.u.size() * sizeof(double));

  // Forked phase driver over the width actually running (`nt`), so a
  // degraded retry repartitions instead of reading stale slabs.
  auto over_nt = [&](WorkerTeam& tm, int nt, const auto& body) {
    tm.run([&](int rank) {
      const Range r = partition(1, n - 1, rank, nt);
      body(r.lo, r.hi);
    });
  };

  const double t0 = wtime();
  for (int it = 0; it < prm.iterations; ++it) {
    if (team == nullptr) {
      // Serial: same phase sequence, no dispatches.
      {
        obs::ScopedTimer ot(r_rhs);
        do_rhs();
      }
      PentaWork<P> ws(n);
      transform(f.sys.txinv, dt);
      {
        obs::ScopedTimer ot(r_xsolve);
        x_solve(1, n - 1, ws);
      }
      transform(f.sys.tx, 1.0);
      transform(f.sys.tyinv, 1.0);
      {
        obs::ScopedTimer ot(r_ysolve);
        y_solve(1, n - 1, ws);
      }
      transform(f.sys.ty, 1.0);
      transform(f.sys.tzinv, 1.0);
      {
        obs::ScopedTimer ot(r_zsolve);
        z_solve(1, n - 1, ws);
      }
      transform(f.sys.tz, 1.0);
      {
        obs::ScopedTimer ot(r_add);
        add_phase(1, n - 1);
      }
      continue;
    }
    steps.step(it, [&](WorkerTeam& tm, int nt) {
      if (topts.fused) {
        // Fused: one team dispatch per time step.  The eleven phases of the
        // SP step (rhs, three transform/solve/transform triplets, add) run
        // resident inside one SPMD region with a barrier at each phase
        // boundary; the pentadiagonal workspace is allocated once per rank
        // per step.
        spmd(tm, [&](ParallelRegion& rg, int rank) {
          const Range r = partition(1, n - 1, rank, nt);
          PentaWork<P> ws(n);
          auto transform_rg = [&](const Mat5& m, double scale) {
            obs::ScopedTimer ot(r_transform);
            transform_lohi(m, scale, r.lo, r.hi);
          };
          {
            obs::ScopedTimer ot(r_rhs);
            compute_rhs_planes(f, r.lo, r.hi);
          }
          rg.barrier();
          transform_rg(f.sys.txinv, dt);
          rg.barrier();
          {
            obs::ScopedTimer ot(r_xsolve);
            x_solve(r.lo, r.hi, ws);
          }
          rg.barrier();
          transform_rg(f.sys.tx, 1.0);
          rg.barrier();
          transform_rg(f.sys.tyinv, 1.0);
          rg.barrier();
          {
            obs::ScopedTimer ot(r_ysolve);
            y_solve(r.lo, r.hi, ws);
          }
          rg.barrier();
          transform_rg(f.sys.ty, 1.0);
          rg.barrier();
          transform_rg(f.sys.tzinv, 1.0);
          rg.barrier();
          {
            obs::ScopedTimer ot(r_zsolve);
            z_solve(r.lo, r.hi, ws);
          }
          rg.barrier();
          transform_rg(f.sys.tz, 1.0);
          rg.barrier();
          {
            obs::ScopedTimer ot(r_add);
            add_phase(r.lo, r.hi);
          }
        });
      } else {
        // Forked: one fork/join dispatch per phase (the paper's cost model).
        auto transform_nt = [&](const Mat5& m, double scale) {
          obs::ScopedTimer ot(r_transform);
          over_nt(tm, nt,
                  [&](long lo, long hi) { transform_lohi(m, scale, lo, hi); });
        };
        {
          obs::ScopedTimer ot(r_rhs);
          over_nt(tm, nt,
                  [&](long lo, long hi) { compute_rhs_planes(f, lo, hi); });
        }

        // x sweep (dt folded into the first characteristic transform).
        transform_nt(f.sys.txinv, dt);
        {
          obs::ScopedTimer ot(r_xsolve);
          over_nt(tm, nt, [&](long lo, long hi) {
            PentaWork<P> ws(n);
            x_solve(lo, hi, ws);
          });
        }
        transform_nt(f.sys.tx, 1.0);

        // y sweep.
        transform_nt(f.sys.tyinv, 1.0);
        {
          obs::ScopedTimer ot(r_ysolve);
          over_nt(tm, nt, [&](long lo, long hi) {
            PentaWork<P> ws(n);
            y_solve(lo, hi, ws);
          });
        }
        transform_nt(f.sys.ty, 1.0);

        // z sweep.
        transform_nt(f.sys.tzinv, 1.0);
        {
          obs::ScopedTimer ot(r_zsolve);
          over_nt(tm, nt, [&](long lo, long hi) {
            PentaWork<P> ws(n);
            z_solve(lo, hi, ws);
          });
        }
        transform_nt(f.sys.tz, 1.0);

        // add: u += dv.
        {
          obs::ScopedTimer ot(r_add);
          over_nt(tm, nt, add_phase);
        }
      }
    });
  }
  out.seconds = wtime() - t0;

  do_rhs();
  out.rhs_final = rhs_norms(f);
  out.err_final = error_norms(f);
  return out;
}

extern template AppOutput sp_run<Unchecked>(const AppParams&, int, const TeamOptions&);
extern template AppOutput sp_run<Checked>(const AppParams&, int, const TeamOptions&);
extern template AppOutput sp_run<Unchecked, true>(const AppParams&, int, const TeamOptions&);

}  // namespace npb::sp_detail
