#pragma once

// Kernel template for LU; explicitly instantiated in lu_native.cpp and
// lu_java.cpp (see ep_impl.hpp for the pattern).

#include <algorithm>
#include <optional>

#include "common/wtime.hpp"
#include "fault/retry.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "par/parallel_for.hpp"
#include "par/pipeline.hpp"
#include "par/region.hpp"
#include "par/team.hpp"
#include "pseudoapp/app.hpp"
#include "pseudoapp/block_impl.hpp"
#include "pseudoapp/field_impl.hpp"

namespace npb::lu_detail {

using namespace pseudoapp;

inline constexpr double kOmega = 1.2;  ///< SSOR relaxation (NPB uses 1.2)

/// Per-thread cell workspace: one neighbour block, the diagonal block, and
/// the 5-vector being relaxed (NPB's tv).
template <class P>
struct CellWork {
  Array1<double, P> nb{25};
  Array1<double, P> d{25};
  Array1<double, P> tv{5};
};

/// Builds omega * dt * (s * phi * Ad / 2h - nu/h^2 I) into ws.nb — the
/// lower (s = -1) or upper (s = +1) neighbour coupling block (jacld/jacu).
template <class P>
void build_neighbour(const System& sys, const Mat5& Ad, double ph, double h,
                     double dt, double s, CellWork<P>& ws) {
  const double inv2h = 1.0 / (2.0 * h);
  const double invh2 = 1.0 / (h * h);
  for (int i = 0; i < kComps; ++i)
    for (int j = 0; j < kComps; ++j) {
      const auto e = static_cast<std::size_t>(i * kComps + j);
      const double conv = s * ph * Ad[e] * inv2h;
      const double diff = i == j ? sys.nu * invh2 : 0.0;
      ws.nb[e] = kOmega * dt * (conv - diff);
      P::flops(5);
    }
}

/// Builds and factors the diagonal block D = I + dt (6 nu/h^2 + 18 eps4) I
/// + dt sigma phi B into ws.d.
template <class P>
void build_diagonal(const System& sys, double ph, double h, double dt,
                    CellWork<P>& ws) {
  const double invh2 = 1.0 / (h * h);
  const double diag = 1.0 + dt * (6.0 * sys.nu * invh2 + 18.0 * sys.eps4);
  for (int i = 0; i < kComps; ++i)
    for (int j = 0; j < kComps; ++j) {
      const auto e = static_cast<std::size_t>(i * kComps + j);
      ws.d[e] = (i == j ? diag : 0.0) +
                dt * sys.sigma * ph * sys.reaction[e];
      P::flops(3);
    }
  lu5_factor<P>(ws.d, 0);
}

/// Forward relaxation of one cell (NPB blts): overwrites rhs(p) with
/// D^{-1} (dt*rhs(p) - omega * sum of lower-neighbour couplings).
template <class P>
void relax_lower(Fields<P>& f, double dt, long i, long j, long k, CellWork<P>& ws) {
  const auto I = static_cast<std::size_t>(i);
  const auto J = static_cast<std::size_t>(j);
  const auto K = static_cast<std::size_t>(k);
  const double ph = f.phi(I, J, K);
  for (int m = 0; m < kComps; ++m)
    ws.tv[static_cast<std::size_t>(m)] = dt * f.rhs(I, J, K, static_cast<std::size_t>(m));

  auto couple = [&](const Mat5& Ad, std::size_t ni, std::size_t nj, std::size_t nk) {
    build_neighbour(f.sys, Ad, ph, f.h, dt, -1.0, ws);
    for (int m = 0; m < kComps; ++m) {
      double s = 0.0;
      for (int l = 0; l < kComps; ++l) {
        s += ws.nb[static_cast<std::size_t>(m * kComps + l)] *
             f.rhs(ni, nj, nk, static_cast<std::size_t>(l));
        P::muladds(1);
      }
      ws.tv[static_cast<std::size_t>(m)] -= s;
      P::flops(11);
    }
  };
  couple(f.sys.ax, I - 1, J, K);
  couple(f.sys.ay, I, J - 1, K);
  couple(f.sys.az, I, J, K - 1);

  build_diagonal(f.sys, ph, f.h, dt, ws);
  lu5_solve_vec<P>(ws.d, 0, ws.tv, 0);
  for (int m = 0; m < kComps; ++m)
    f.rhs(I, J, K, static_cast<std::size_t>(m)) = ws.tv[static_cast<std::size_t>(m)];
}

/// Backward relaxation of one cell (NPB buts): rhs(p) -= D^{-1} (omega *
/// sum of upper-neighbour couplings).
template <class P>
void relax_upper(Fields<P>& f, double dt, long i, long j, long k, CellWork<P>& ws) {
  const auto I = static_cast<std::size_t>(i);
  const auto J = static_cast<std::size_t>(j);
  const auto K = static_cast<std::size_t>(k);
  const double ph = f.phi(I, J, K);
  for (int m = 0; m < kComps; ++m) ws.tv[static_cast<std::size_t>(m)] = 0.0;

  auto couple = [&](const Mat5& Ad, std::size_t ni, std::size_t nj, std::size_t nk) {
    build_neighbour(f.sys, Ad, ph, f.h, dt, +1.0, ws);
    for (int m = 0; m < kComps; ++m) {
      double s = 0.0;
      for (int l = 0; l < kComps; ++l) {
        s += ws.nb[static_cast<std::size_t>(m * kComps + l)] *
             f.rhs(ni, nj, nk, static_cast<std::size_t>(l));
        P::muladds(1);
      }
      ws.tv[static_cast<std::size_t>(m)] += s;
      P::flops(11);
    }
  };
  couple(f.sys.ax, I + 1, J, K);
  couple(f.sys.ay, I, J + 1, K);
  couple(f.sys.az, I, J, K + 1);

  build_diagonal(f.sys, ph, f.h, dt, ws);
  lu5_solve_vec<P>(ws.d, 0, ws.tv, 0);
  for (int m = 0; m < kComps; ++m)
    f.rhs(I, J, K, static_cast<std::size_t>(m)) -= ws.tv[static_cast<std::size_t>(m)];
}

template <class P>
AppOutput lu_run(const AppParams& prm, int threads, const TeamOptions& topts) {
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
  const double tmp = 1.0 / (kOmega * (2.0 - kOmega));

  auto do_rhs = [&] {
    if (team == nullptr) {
      compute_rhs_planes(f, 1, n - 1);
    } else {
      team->run([&](int rank) {
        const Range r = partition(1, n - 1, rank, team->size());
        compute_rhs_planes(f, r.lo, r.hi);
      });
    }
  };

  const obs::RegionId r_rhs = obs::region("LU/rhs");
  const obs::RegionId r_lower = obs::region("LU/lower");
  const obs::RegionId r_upper = obs::region("LU/upper");
  const obs::RegionId r_add = obs::region("LU/add");

  AppOutput out;
  do_rhs();
  out.rhs_initial = rhs_norms(f);
  out.err_initial = error_norms(f);

  PipelineSync sync_lower(threads > 0 ? threads : 1);
  PipelineSync sync_upper(threads > 0 ? threads : 1);

  // One SPMD body covers both threaded drivers: the sweep pipeline was
  // already fused (barriers and point-to-point waits inside one dispatch);
  // rhs_in_region additionally folds the rhs phase and the pipeline resets
  // into the same region, taking LU to one dispatch per time step.  `nt` is
  // the width actually running (smaller than `threads` after a degraded
  // retry); the PipelineSync cells above nt simply stay idle.
  auto step_body = [&](ParallelRegion& rg, int rank, int nt, bool rhs_in_region) {
    CellWork<P> ws;
    const Range jr = partition(1, n - 1, rank, nt);
    if (rhs_in_region) {
      {
        obs::ScopedTimer ot(r_rhs);
        compute_rhs_planes(f, jr.lo, jr.hi);
      }
      if (rank == 0) {
        sync_lower.reset();
        sync_upper.reset();
      }
      rg.barrier();  // publishes the rhs planes and the pipeline resets
    }
    {
      obs::ScopedTimer ot(r_lower);
      for (long i = 1; i < n - 1; ++i) {
        if (rank > 0) sync_lower.wait_for(rank - 1, i);
        for (long j = jr.lo; j < jr.hi; ++j)
          for (long k = 1; k < n - 1; ++k) relax_lower(f, dt, i, j, k, ws);
        sync_lower.post(rank, i);
      }
    }
    rg.barrier();
    {
      obs::ScopedTimer ot(r_upper);
      for (long i = n - 2; i >= 1; --i) {
        const long step = (n - 2) - i;
        if (rank < nt - 1) sync_upper.wait_for(rank + 1, step);
        for (long j = jr.hi - 1; j >= jr.lo; --j)
          for (long k = n - 2; k >= 1; --k) relax_upper(f, dt, i, j, k, ws);
        sync_upper.post(rank, step);
      }
    }
    rg.barrier();
    obs::ScopedTimer ot(r_add);
    for (long i = jr.lo; i < jr.hi; ++i)
      for (long j = 1; j < n - 1; ++j)
        for (long k = 1; k < n - 1; ++k)
          for (int m = 0; m < kComps; ++m)
            f.u(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                static_cast<std::size_t>(k), static_cast<std::size_t>(m)) +=
                tmp * f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                            static_cast<std::size_t>(k), static_cast<std::size_t>(m));
  };

  // One SSOR time step is the retry unit; u is the only cross-step state
  // (rhs is rebuilt from u each attempt), so the checkpoint is just u.
  fault::StepRunner steps(team, topts);
  steps.add(f.u.data(), f.u.size() * sizeof(double));

  const double t0 = wtime();
  for (int it = 0; it < prm.iterations; ++it) {
    if (team == nullptr) {
      {
        obs::ScopedTimer ot(r_rhs);
        do_rhs();
      }
      CellWork<P> ws;
      {
        obs::ScopedTimer ot(r_lower);
        for (long i = 1; i < n - 1; ++i)
          for (long j = 1; j < n - 1; ++j)
            for (long k = 1; k < n - 1; ++k) relax_lower(f, dt, i, j, k, ws);
      }
      {
        obs::ScopedTimer ot(r_upper);
        for (long i = n - 2; i >= 1; --i)
          for (long j = n - 2; j >= 1; --j)
            for (long k = n - 2; k >= 1; --k) relax_upper(f, dt, i, j, k, ws);
      }
      obs::ScopedTimer ot(r_add);
      for (long i = 1; i < n - 1; ++i)
        for (long j = 1; j < n - 1; ++j)
          for (long k = 1; k < n - 1; ++k)
            for (int m = 0; m < kComps; ++m)
              f.u(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                  static_cast<std::size_t>(k), static_cast<std::size_t>(m)) +=
                  tmp * f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                              static_cast<std::size_t>(k), static_cast<std::size_t>(m));
      continue;
    }
    steps.step(it, [&](WorkerTeam& tm, int nt) {
      // Wavefront waits must unwind as RegionAborted when a fault kills the
      // region mid-pipeline; point the spin loops at the team actually
      // running this attempt (it changes after degradation).
      sync_lower.set_abort_source(&tm);
      sync_upper.set_abort_source(&tm);
      if (topts.fused) {
        // Fused: rhs + both pipelined sweeps + add in one dispatch per step.
        spmd(tm, [&](ParallelRegion& rg, int rank) { step_body(rg, rank, nt, true); });
      } else {
        // Forked: a separate rhs dispatch, then the sweep region.  This is
        // the paper's LU signature — synchronization *inside* the loop over
        // one grid dimension, a software pipeline over i-planes with j-slabs
        // per rank.  Phase timers run per rank inside the region, so
        // LU/lower and LU/upper report per-rank pipeline skew.
        {
          obs::ScopedTimer ot(r_rhs);
          tm.run([&](int rank) {
            const Range r = partition(1, n - 1, rank, nt);
            compute_rhs_planes(f, r.lo, r.hi);
          });
        }
        sync_lower.reset();
        sync_upper.reset();
        spmd(tm, [&](ParallelRegion& rg, int rank) { step_body(rg, rank, nt, false); });
      }
    });
  }
  out.seconds = wtime() - t0;

  do_rhs();
  out.rhs_final = rhs_norms(f);
  out.err_final = error_norms(f);
  return out;
}

/// The LU-HP variant (NPB ships it alongside the pipelined LU): sweeps run
/// over hyperplanes i+j+k = l, whose cells are mutually independent, with a
/// team barrier between consecutive hyperplanes instead of point-to-point
/// pipelining.  Both orders are topological for the SSOR dependency DAG, so
/// the results are bitwise identical to lu_run's — only the synchronization
/// pattern (and hence scalability) differs.
template <class P>
AppOutput lu_run_hp(const AppParams& prm, int threads, const TeamOptions& topts) {
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
  const double tmp = 1.0 / (kOmega * (2.0 - kOmega));
  const long hi = n - 2;  // interior indices 1..hi

  auto do_rhs = [&] {
    if (team == nullptr) {
      compute_rhs_planes(f, 1, n - 1);
    } else {
      team->run([&](int rank) {
        const Range r = partition(1, n - 1, rank, team->size());
        compute_rhs_planes(f, r.lo, r.hi);
      });
    }
  };

  // Visits every cell of hyperplane i+j+k == l whose i lies in [ilo, ihi).
  auto plane_cells = [&](long l, long ilo, long ihi, auto&& cell) {
    const long imin = std::max(1L, l - 2 * hi);
    const long imax = std::min(hi, l - 2);
    for (long i = std::max(imin, ilo); i <= std::min(imax, ihi - 1); ++i) {
      const long jmin = std::max(1L, l - i - hi);
      const long jmax = std::min(hi, l - i - 1);
      for (long j = jmin; j <= jmax; ++j) cell(i, j, l - i - j);
    }
  };

  const obs::RegionId r_rhs = obs::region("LU/rhs");
  const obs::RegionId r_lower = obs::region("LU/lower");
  const obs::RegionId r_upper = obs::region("LU/upper");
  const obs::RegionId r_add = obs::region("LU/add");

  AppOutput out;
  do_rhs();
  out.rhs_initial = rhs_norms(f);
  out.err_initial = error_norms(f);

  // Threaded step body, aligned to the region API like lu_run's; with
  // rhs_in_region the rhs phase joins the hyperplane sweeps in one dispatch.
  // `nt` is the width actually running (smaller after a degraded retry).
  auto step_body = [&](ParallelRegion& rg, int rank, int nt, bool rhs_in_region) {
    CellWork<P> ws;
    const Range ir = partition(1, n - 1, rank, nt);
    if (rhs_in_region) {
      {
        obs::ScopedTimer ot(r_rhs);
        compute_rhs_planes(f, ir.lo, ir.hi);
      }
      rg.barrier();
    }
    // One barrier per hyperplane per sweep: ~6n barriers per iteration
    // versus the pipelined version's ~2n point-to-point handoffs.
    {
      obs::ScopedTimer ot(r_lower);
      for (long l = 3; l <= 3 * hi; ++l) {
        plane_cells(l, ir.lo, ir.hi,
                    [&](long i, long j, long k) { relax_lower(f, dt, i, j, k, ws); });
        rg.barrier();
      }
    }
    {
      obs::ScopedTimer ot(r_upper);
      for (long l = 3 * hi; l >= 3; --l) {
        plane_cells(l, ir.lo, ir.hi,
                    [&](long i, long j, long k) { relax_upper(f, dt, i, j, k, ws); });
        rg.barrier();
      }
    }
    obs::ScopedTimer ot(r_add);
    for (long i = ir.lo; i < ir.hi; ++i)
      for (long j = 1; j < n - 1; ++j)
        for (long k = 1; k < n - 1; ++k)
          for (int m = 0; m < kComps; ++m)
            f.u(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                static_cast<std::size_t>(k), static_cast<std::size_t>(m)) +=
                tmp * f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                            static_cast<std::size_t>(k), static_cast<std::size_t>(m));
  };

  // Same retry unit and checkpoint as lu_run: one step, spanning just u.
  fault::StepRunner steps(team, topts);
  steps.add(f.u.data(), f.u.size() * sizeof(double));

  const double t0 = wtime();
  for (int it = 0; it < prm.iterations; ++it) {
    if (team == nullptr) {
      {
        obs::ScopedTimer ot(r_rhs);
        do_rhs();
      }
      CellWork<P> ws;
      {
        obs::ScopedTimer ot(r_lower);
        for (long l = 3; l <= 3 * hi; ++l)
          plane_cells(l, 1, n - 1,
                      [&](long i, long j, long k) { relax_lower(f, dt, i, j, k, ws); });
      }
      {
        obs::ScopedTimer ot(r_upper);
        for (long l = 3 * hi; l >= 3; --l)
          plane_cells(l, 1, n - 1,
                      [&](long i, long j, long k) { relax_upper(f, dt, i, j, k, ws); });
      }
      obs::ScopedTimer ot(r_add);
      for (long i = 1; i < n - 1; ++i)
        for (long j = 1; j < n - 1; ++j)
          for (long k = 1; k < n - 1; ++k)
            for (int m = 0; m < kComps; ++m)
              f.u(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                  static_cast<std::size_t>(k), static_cast<std::size_t>(m)) +=
                  tmp * f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                              static_cast<std::size_t>(k), static_cast<std::size_t>(m));
      continue;
    }
    steps.step(it, [&](WorkerTeam& tm, int nt) {
      if (topts.fused) {
        spmd(tm, [&](ParallelRegion& rg, int rank) { step_body(rg, rank, nt, true); });
      } else {
        {
          obs::ScopedTimer ot(r_rhs);
          tm.run([&](int rank) {
            const Range r = partition(1, n - 1, rank, nt);
            compute_rhs_planes(f, r.lo, r.hi);
          });
        }
        spmd(tm, [&](ParallelRegion& rg, int rank) { step_body(rg, rank, nt, false); });
      }
    });
  }
  out.seconds = wtime() - t0;

  do_rhs();
  out.rhs_final = rhs_norms(f);
  out.err_final = error_norms(f);
  return out;
}

extern template AppOutput lu_run<Unchecked>(const AppParams&, int, const TeamOptions&);
extern template AppOutput lu_run<Checked>(const AppParams&, int, const TeamOptions&);
extern template AppOutput lu_run_hp<Unchecked>(const AppParams&, int, const TeamOptions&);
extern template AppOutput lu_run_hp<Checked>(const AppParams&, int, const TeamOptions&);

}  // namespace npb::lu_detail
