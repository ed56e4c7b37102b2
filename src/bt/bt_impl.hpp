#pragma once

// Kernel template for BT; explicitly instantiated in bt_native.cpp and
// bt_java.cpp (see ep_impl.hpp for the pattern).

#include <optional>

#include "common/wtime.hpp"
#include "fault/retry.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "par/parallel_for.hpp"
#include "par/region.hpp"
#include "par/team.hpp"
#include "pseudoapp/app.hpp"
#include "pseudoapp/block_impl.hpp"
#include "pseudoapp/field_impl.hpp"
#include "simd/blocks.hpp"
#include "simd/simd.hpp"

namespace npb::bt_detail {

using namespace pseudoapp;

/// Per-thread line-solver workspace: sub/diag/super blocks and the line RHS.
template <class P>
struct LineWork {
  Array1<double, P> a, b, c, r;
  explicit LineWork(long n)
      : a(static_cast<std::size_t>(25 * n)), b(static_cast<std::size_t>(25 * n)),
        c(static_cast<std::size_t>(25 * n)), r(static_cast<std::size_t>(5 * n)) {}
};

/// Solves one block-tridiagonal line (I + dt*Ld) dv = r along a grid line of
/// `n` points (interior 1..n-2).  `Ad` is the direction's convection
/// Jacobian, `phi_at(c)` the coefficient along the line, and rget/rset
/// access the line's RHS which is overwritten with the solution.
/// `scale_dt` multiplies the incoming RHS by dt (done on the first sweep of
/// the factorization only).
///
/// Under V (--mode=vec) the band setup runs lane-parallel across each
/// 25-element block (diagonal terms come from a 1/0 mask, so every element
/// sees the scalar expression exactly) and the block Thomas sweep uses the
/// simd/blocks.hpp primitives; only the mv5/lu5-solve row dots reassociate.
template <class P, bool V = false, class PhiAt, class RGet, class RSet>
void solve_line(const System& sys, const Mat5& Ad, double h, double dt, long n,
                const PhiAt& phi_at, const RGet& rget, const RSet& rset,
                LineWork<P>& ws, bool scale_dt) {
  const double inv2h = 1.0 / (2.0 * h);
  const double invh2 = 1.0 / (h * h);
  const long nc = n - 2;

  if constexpr (V) {
    static_assert(!P::kChecked, "vec kernels require unchecked access");
    // 1.0 on the block diagonal, 0.0 elsewhere: multiplying by it is exact,
    // so the masked lane expression reproduces the i==j branches bit-for-bit.
    static constexpr Mat5 kDiag = [] {
      Mat5 d{};
      for (int i = 0; i < kComps; ++i) d[static_cast<std::size_t>(i * kComps + i)] = 1.0;
      return d;
    }();
    const double dnu = sys.nu * invh2;
    const double bdiag = 1.0 + dt * 2.0 * sys.nu * invh2;
    const simd::Dvec vdt = simd::Dvec::broadcast(dt);
    const simd::Dvec vinv2h = simd::Dvec::broadcast(inv2h);
    const simd::Dvec vdnu = simd::Dvec::broadcast(dnu);
    const simd::Dvec vbdiag = simd::Dvec::broadcast(bdiag);
    constexpr int W = simd::Dvec::width;
    for (long q = 0; q < nc; ++q) {
      const long cidx = q + 1;
      const double ph = phi_at(cidx);
      const simd::Dvec vph = simd::Dvec::broadcast(ph);
      double* ap = ws.a.data() + static_cast<std::size_t>(q) * 25;
      double* bp = ws.b.data() + static_cast<std::size_t>(q) * 25;
      double* cp = ws.c.data() + static_cast<std::size_t>(q) * 25;
      int e = 0;
      for (; e + W <= 25; e += W) {
        const simd::Dvec conv = vph * simd::Dvec::load(Ad.data() + e) * vinv2h;
        const simd::Dvec diff = vdnu * simd::Dvec::load(kDiag.data() + e);
        simd::store(ap + e, vdt * (-conv - diff));
        simd::store(cp + e, vdt * (conv - diff));
        simd::store(bp + e, vbdiag * simd::Dvec::load(kDiag.data() + e));
      }
      for (; e < 25; ++e) {
        const double conv = ph * Ad[static_cast<std::size_t>(e)] * inv2h;
        const double diff = dnu * kDiag[static_cast<std::size_t>(e)];
        ap[e] = dt * (-conv - diff);
        cp[e] = dt * (conv - diff);
        bp[e] = bdiag * kDiag[static_cast<std::size_t>(e)];
      }
      P::flops(6 * 25);
      const std::size_t vb = static_cast<std::size_t>(q) * 5;
      for (int m = 0; m < kComps; ++m)
        ws.r[vb + static_cast<std::size_t>(m)] =
            (scale_dt ? dt : 1.0) * rget(cidx, m);
    }

    double* ap = ws.a.data();
    double* bp = ws.b.data();
    double* cp = ws.c.data();
    double* rp = ws.r.data();
    // Block Thomas: forward elimination ...
    simd::lu5_factor_vec<P>(bp);
    simd::lu5_solve_vec_vec<P>(bp, rp);
    simd::lu5_solve_block_vec<P>(bp, cp);
    for (long q = 1; q < nc; ++q) {
      const std::size_t blk = static_cast<std::size_t>(q) * 25;
      const std::size_t prevblk = static_cast<std::size_t>(q - 1) * 25;
      const std::size_t vb = static_cast<std::size_t>(q) * 5;
      const std::size_t prevvb = static_cast<std::size_t>(q - 1) * 5;
      simd::mm5_sub_vec<P>(ap + blk, cp + prevblk, bp + blk);
      simd::mv5_sub_vec<P>(ap + blk, rp + prevvb, rp + vb);
      simd::lu5_factor_vec<P>(bp + blk);
      simd::lu5_solve_vec_vec<P>(bp + blk, rp + vb);
      simd::lu5_solve_block_vec<P>(bp + blk, cp + blk);
    }
    // ... and back substitution.
    for (long q = nc - 2; q >= 0; --q) {
      const std::size_t blk = static_cast<std::size_t>(q) * 25;
      simd::mv5_sub_vec<P>(cp + blk, rp + static_cast<std::size_t>(q + 1) * 5,
                           rp + static_cast<std::size_t>(q) * 5);
    }
    for (long q = 0; q < nc; ++q)
      for (int m = 0; m < kComps; ++m)
        rset(q + 1, m,
             ws.r[static_cast<std::size_t>(q) * 5 + static_cast<std::size_t>(m)]);
    return;
  }

  for (long q = 0; q < nc; ++q) {
    const long cidx = q + 1;
    const double ph = phi_at(cidx);
    const std::size_t blk = static_cast<std::size_t>(q) * 25;
    for (int i = 0; i < kComps; ++i)
      for (int j = 0; j < kComps; ++j) {
        const auto e = static_cast<std::size_t>(i * kComps + j);
        const double conv = ph * Ad[e] * inv2h;
        const double diff = i == j ? sys.nu * invh2 : 0.0;
        ws.a[blk + e] = dt * (-conv - diff);
        ws.c[blk + e] = dt * (conv - diff);
        ws.b[blk + e] = (i == j ? 1.0 + dt * 2.0 * sys.nu * invh2 : 0.0);
        P::flops(6);
      }
    const std::size_t vb = static_cast<std::size_t>(q) * 5;
    for (int m = 0; m < kComps; ++m)
      ws.r[vb + static_cast<std::size_t>(m)] =
          (scale_dt ? dt : 1.0) * rget(cidx, m);
  }

  // Block Thomas: forward elimination ...
  lu5_factor<P>(ws.b, 0);
  lu5_solve_vec<P>(ws.b, 0, ws.r, 0);
  lu5_solve_block<P>(ws.b, 0, ws.c, 0);
  for (long q = 1; q < nc; ++q) {
    const std::size_t blk = static_cast<std::size_t>(q) * 25;
    const std::size_t prevblk = static_cast<std::size_t>(q - 1) * 25;
    const std::size_t vb = static_cast<std::size_t>(q) * 5;
    const std::size_t prevvb = static_cast<std::size_t>(q - 1) * 5;
    mm5_sub<P>(ws.a, blk, ws.c, prevblk, ws.b, blk);   // B_q -= A_q * Ctld_{q-1}
    mv5_sub<P>(ws.a, blk, ws.r, prevvb, ws.r, vb);     // r_q -= A_q * rtld_{q-1}
    lu5_factor<P>(ws.b, blk);
    lu5_solve_vec<P>(ws.b, blk, ws.r, vb);
    lu5_solve_block<P>(ws.b, blk, ws.c, blk);
  }
  // ... and back substitution.
  for (long q = nc - 2; q >= 0; --q) {
    const std::size_t blk = static_cast<std::size_t>(q) * 25;
    mv5_sub<P>(ws.c, blk, ws.r, static_cast<std::size_t>(q + 1) * 5, ws.r,
               static_cast<std::size_t>(q) * 5);
  }
  for (long q = 0; q < nc; ++q)
    for (int m = 0; m < kComps; ++m)
      rset(q + 1, m, ws.r[static_cast<std::size_t>(q) * 5 + static_cast<std::size_t>(m)]);
}

/// Runs `body(lo, hi)` over [1, n-1) serially or partitioned over the team.
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
AppOutput bt_run(const AppParams& prm, int threads, const TeamOptions& topts) {
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

  auto do_rhs = [&] {
    over_range(team, n, [&](long lo, long hi) { compute_rhs_planes(f, lo, hi); });
  };

  // NPB-style named section timers (cf. timer_start/timer_stop in the
  // reference codes); interning is cold and idempotent.
  const obs::RegionId r_rhs = obs::region("BT/rhs");
  const obs::RegionId r_xsolve = obs::region("BT/x_solve");
  const obs::RegionId r_ysolve = obs::region("BT/y_solve");
  const obs::RegionId r_zsolve = obs::region("BT/z_solve");
  const obs::RegionId r_add = obs::region("BT/add");

  AppOutput out;
  do_rhs();
  out.rhs_initial = rhs_norms(f);
  out.err_initial = error_norms(f);

  // Phase bodies over a slab [lo, hi), shared verbatim by the fused and
  // forked drivers below so both partition identically (bit-identical
  // results either way).
  // x sweep: lines along i, one per (j, k); partition j.
  auto x_sweep = [&](long lo, long hi, LineWork<P>& ws) {
    for (long j = lo; j < hi; ++j)
      for (long k = 1; k < n - 1; ++k)
        solve_line<P, V>(
            f.sys, f.sys.ax, f.h, dt, n,
            [&](long c) {
              return f.phi(static_cast<std::size_t>(c), static_cast<std::size_t>(j),
                           static_cast<std::size_t>(k));
            },
            [&](long c, int m) {
              return f.rhs(static_cast<std::size_t>(c), static_cast<std::size_t>(j),
                           static_cast<std::size_t>(k), static_cast<std::size_t>(m));
            },
            [&](long c, int m, double v) {
              f.rhs(static_cast<std::size_t>(c), static_cast<std::size_t>(j),
                    static_cast<std::size_t>(k), static_cast<std::size_t>(m)) = v;
            },
            ws, true);
  };
  // y sweep: lines along j, one per (i, k); partition i.
  auto y_sweep = [&](long lo, long hi, LineWork<P>& ws) {
    for (long i = lo; i < hi; ++i)
      for (long k = 1; k < n - 1; ++k)
        solve_line<P, V>(
            f.sys, f.sys.ay, f.h, dt, n,
            [&](long c) {
              return f.phi(static_cast<std::size_t>(i), static_cast<std::size_t>(c),
                           static_cast<std::size_t>(k));
            },
            [&](long c, int m) {
              return f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(c),
                           static_cast<std::size_t>(k), static_cast<std::size_t>(m));
            },
            [&](long c, int m, double v) {
              f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(c),
                    static_cast<std::size_t>(k), static_cast<std::size_t>(m)) = v;
            },
            ws, false);
  };
  // z sweep: lines along k, one per (i, j); partition i.
  auto z_sweep = [&](long lo, long hi, LineWork<P>& ws) {
    for (long i = lo; i < hi; ++i)
      for (long j = 1; j < n - 1; ++j)
        solve_line<P, V>(
            f.sys, f.sys.az, f.h, dt, n,
            [&](long c) {
              return f.phi(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                           static_cast<std::size_t>(c));
            },
            [&](long c, int m) {
              return f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                           static_cast<std::size_t>(c), static_cast<std::size_t>(m));
            },
            [&](long c, int m, double v) {
              f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                    static_cast<std::size_t>(c), static_cast<std::size_t>(m)) = v;
            },
            ws, false);
  };
  // add: u += dv.
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

  // One ADI time step is the retry unit.  The only state a step carries
  // into the next one is u (phi, forcing and ue are init-time constants and
  // rhs is rebuilt from u each step), so the checkpoint is just u.
  fault::StepRunner steps(team, topts);
  steps.add(f.u.data(), f.u.size() * sizeof(double));

  const double t0 = wtime();
  for (int it = 0; it < prm.iterations; ++it) {
    if (team == nullptr) {
      // Serial: same phase sequence, no dispatches.
      {
        obs::ScopedTimer ot(r_rhs);
        do_rhs();
      }
      LineWork<P> ws(n);
      {
        obs::ScopedTimer ot(r_xsolve);
        x_sweep(1, n - 1, ws);
      }
      {
        obs::ScopedTimer ot(r_ysolve);
        y_sweep(1, n - 1, ws);
      }
      {
        obs::ScopedTimer ot(r_zsolve);
        z_sweep(1, n - 1, ws);
      }
      {
        obs::ScopedTimer ot(r_add);
        add_phase(1, n - 1);
      }
      continue;
    }
    steps.step(it, [&](WorkerTeam& tm, int nt) {
      if (topts.fused) {
        // Fused: one team dispatch per time step.  All five ADI phases run
        // resident inside one SPMD region, separated by in-region barriers;
        // the line workspace is allocated once per rank per step instead of
        // once per phase dispatch.
        spmd(tm, [&](ParallelRegion& rg, int rank) {
          const Range r = partition(1, n - 1, rank, nt);
          LineWork<P> ws(n);
          {
            obs::ScopedTimer ot(r_rhs);
            compute_rhs_planes(f, r.lo, r.hi);
          }
          rg.barrier();
          {
            obs::ScopedTimer ot(r_xsolve);
            x_sweep(r.lo, r.hi, ws);
          }
          rg.barrier();
          {
            obs::ScopedTimer ot(r_ysolve);
            y_sweep(r.lo, r.hi, ws);
          }
          rg.barrier();
          {
            obs::ScopedTimer ot(r_zsolve);
            z_sweep(r.lo, r.hi, ws);
          }
          rg.barrier();
          {
            obs::ScopedTimer ot(r_add);
            add_phase(r.lo, r.hi);
          }
        });
      } else {
        // Forked: one fork/join dispatch per phase (the paper's cost model).
        // Partitions come from the width actually running (`nt`), so a
        // degraded retry repartitions instead of reading stale slabs.
        auto over = [&](const auto& body) {
          tm.run([&](int rank) {
            const Range r = partition(1, n - 1, rank, nt);
            body(r.lo, r.hi);
          });
        };
        {
          obs::ScopedTimer ot(r_rhs);
          over([&](long lo, long hi) { compute_rhs_planes(f, lo, hi); });
        }
        {
          obs::ScopedTimer ot(r_xsolve);
          over([&](long lo, long hi) {
            LineWork<P> ws(n);
            x_sweep(lo, hi, ws);
          });
        }
        {
          obs::ScopedTimer ot(r_ysolve);
          over([&](long lo, long hi) {
            LineWork<P> ws(n);
            y_sweep(lo, hi, ws);
          });
        }
        {
          obs::ScopedTimer ot(r_zsolve);
          over([&](long lo, long hi) {
            LineWork<P> ws(n);
            z_sweep(lo, hi, ws);
          });
        }
        {
          obs::ScopedTimer ot(r_add);
          over(add_phase);
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

extern template AppOutput bt_run<Unchecked>(const AppParams&, int, const TeamOptions&);
extern template AppOutput bt_run<Checked>(const AppParams&, int, const TeamOptions&);
extern template AppOutput bt_run<Unchecked, true>(const AppParams&, int, const TeamOptions&);

}  // namespace npb::bt_detail
