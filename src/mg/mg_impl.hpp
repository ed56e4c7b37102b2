#pragma once

// Kernel template for MG; explicitly instantiated in mg_native.cpp and
// mg_java.cpp (see ep_impl.hpp for the pattern).
//
// Grids carry one ghost layer per side: level l holds (2^l + 2)^3 doubles,
// interior indices 1..2^l, with comm3 maintaining periodic ghosts.

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "array/array.hpp"
#include "common/randlc.hpp"
#include "common/wtime.hpp"
#include "fault/retry.hpp"
#include "mem/mem.hpp"
#include "mg/mg.hpp"
#include "obs/obs.hpp"
#include "par/parallel_for.hpp"
#include "par/region.hpp"
#include "par/team.hpp"
#include "simd/simd.hpp"

namespace npb::mg_detail {

/// 27-point stencil coefficients by neighbour class:
/// [0] centre, [1] 6 faces, [2] 12 edges, [3] 8 corners.
using Stencil = std::array<double, 4>;

/// The Poisson operator and the smoother of NPB MG (classes S/W/A set).
inline constexpr Stencil kA{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0};
inline constexpr Stencil kS{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0};

struct MgOutput {
  double rnm2_initial = 0.0;  ///< ||v - A*0|| / sqrt(N^3) before any V-cycle
  double rnm2_final = 0.0;    ///< residual norm after the last V-cycle
  double seconds = 0.0;
};

template <class P>
using Grid = Array3<double, P>;

/// Applies the stencil `w` to `in` and combines with `v`:
///   out(i) = v(i) - w*in(i)        (kResid: residual r = v - A u)
///   out(i) += w*in(i)              (kApply: smoother u += S r)
enum class StencilOp { Resid, Apply };

template <class P, StencilOp Op>
void stencil27(const Grid<P>& in, const Grid<P>* v, Grid<P>& out, const Stencil& w,
               long n, long lo3, long hi3) {
  for (long i3 = lo3; i3 < hi3; ++i3) {
    for (long i2 = 1; i2 <= n; ++i2) {
      for (long i1 = 1; i1 <= n; ++i1) {
        const auto z = static_cast<std::size_t>(i3);
        const auto y = static_cast<std::size_t>(i2);
        const auto x = static_cast<std::size_t>(i1);
        const double centre = in(z, y, x);
        const double faces = in(z - 1, y, x) + in(z + 1, y, x) + in(z, y - 1, x) +
                             in(z, y + 1, x) + in(z, y, x - 1) + in(z, y, x + 1);
        const double edges = in(z - 1, y - 1, x) + in(z - 1, y + 1, x) +
                             in(z + 1, y - 1, x) + in(z + 1, y + 1, x) +
                             in(z - 1, y, x - 1) + in(z - 1, y, x + 1) +
                             in(z + 1, y, x - 1) + in(z + 1, y, x + 1) +
                             in(z, y - 1, x - 1) + in(z, y - 1, x + 1) +
                             in(z, y + 1, x - 1) + in(z, y + 1, x + 1);
        const double corners = in(z - 1, y - 1, x - 1) + in(z - 1, y - 1, x + 1) +
                               in(z - 1, y + 1, x - 1) + in(z - 1, y + 1, x + 1) +
                               in(z + 1, y - 1, x - 1) + in(z + 1, y - 1, x + 1) +
                               in(z + 1, y + 1, x - 1) + in(z + 1, y + 1, x + 1);
        const double au = w[0] * centre + w[1] * faces + w[2] * edges + w[3] * corners;
        P::flops(33);
        P::muladds(4);
        if constexpr (Op == StencilOp::Resid) {
          out(z, y, x) = (*v)(z, y, x) - au;
        } else {
          out(z, y, x) += au;
        }
      }
    }
  }
}

/// Hand-vectorized stencil27 for --mode=vec: lanes ride the unit-stride i1
/// axis, so the 27 neighbour reads become 27 contiguous (unaligned) vector
/// loads per W output points.  Each lane evaluates exactly the scalar
/// expression for its element — neighbour sums in the same order, then the
/// four coefficient mul-adds — so the only scalar-vs-vec divergence is FMA
/// contraction choice, not reassociation; this is why MG's tolerance tier is
/// the tightest of the vec benchmarks.  The i1 tail (interior extents are
/// powers of two, off by one from the lane grid) falls back to the scalar
/// body.
template <class P, StencilOp Op>
void stencil27_vec(const Grid<P>& in, const Grid<P>* v, Grid<P>& out,
                   const Stencil& w, long n, long lo3, long hi3) {
  static_assert(!P::kChecked, "vec kernels require unchecked access");
  const double* ip = in.data();
  const double* vp = v != nullptr ? v->data() : nullptr;
  double* op = out.data();
  const long sy = static_cast<long>(in.extent(2));  // +1 in i2
  const long sz = static_cast<long>(in.extent(1)) * sy;  // +1 in i3
  constexpr int W = simd::Dvec::width;
  const simd::Dvec w0 = simd::Dvec::broadcast(w[0]);
  const simd::Dvec w1 = simd::Dvec::broadcast(w[1]);
  const simd::Dvec w2 = simd::Dvec::broadcast(w[2]);
  const simd::Dvec w3 = simd::Dvec::broadcast(w[3]);
  for (long i3 = lo3; i3 < hi3; ++i3) {
    for (long i2 = 1; i2 <= n; ++i2) {
      const long base = i3 * sz + i2 * sy;
      long x = 1;
      for (; x + W - 1 <= n; x += W) {
        const auto at = [&](long dz, long dy, long dx) {
          return simd::Dvec::load(ip + base + dz * sz + dy * sy + x + dx);
        };
        const simd::Dvec centre = at(0, 0, 0);
        const simd::Dvec faces = at(-1, 0, 0) + at(1, 0, 0) + at(0, -1, 0) +
                                 at(0, 1, 0) + at(0, 0, -1) + at(0, 0, 1);
        const simd::Dvec edges = at(-1, -1, 0) + at(-1, 1, 0) + at(1, -1, 0) +
                                 at(1, 1, 0) + at(-1, 0, -1) + at(-1, 0, 1) +
                                 at(1, 0, -1) + at(1, 0, 1) + at(0, -1, -1) +
                                 at(0, -1, 1) + at(0, 1, -1) + at(0, 1, 1);
        const simd::Dvec corners = at(-1, -1, -1) + at(-1, -1, 1) +
                                   at(-1, 1, -1) + at(-1, 1, 1) +
                                   at(1, -1, -1) + at(1, -1, 1) +
                                   at(1, 1, -1) + at(1, 1, 1);
        const simd::Dvec au = w0 * centre + w1 * faces + w2 * edges + w3 * corners;
        if constexpr (Op == StencilOp::Resid) {
          simd::store(op + base + x, simd::Dvec::load(vp + base + x) - au);
        } else {
          simd::store(op + base + x, simd::Dvec::load(op + base + x) + au);
        }
      }
      for (; x <= n; ++x) {
        const double centre = ip[base + x];
        const double faces = ip[base - sz + x] + ip[base + sz + x] +
                             ip[base - sy + x] + ip[base + sy + x] +
                             ip[base + x - 1] + ip[base + x + 1];
        const double edges =
            ip[base - sz - sy + x] + ip[base - sz + sy + x] +
            ip[base + sz - sy + x] + ip[base + sz + sy + x] +
            ip[base - sz + x - 1] + ip[base - sz + x + 1] +
            ip[base + sz + x - 1] + ip[base + sz + x + 1] +
            ip[base - sy + x - 1] + ip[base - sy + x + 1] +
            ip[base + sy + x - 1] + ip[base + sy + x + 1];
        const double corners =
            ip[base - sz - sy + x - 1] + ip[base - sz - sy + x + 1] +
            ip[base - sz + sy + x - 1] + ip[base - sz + sy + x + 1] +
            ip[base + sz - sy + x - 1] + ip[base + sz - sy + x + 1] +
            ip[base + sz + sy + x - 1] + ip[base + sz + sy + x + 1];
        const double au = w[0] * centre + w[1] * faces + w[2] * edges + w[3] * corners;
        if constexpr (Op == StencilOp::Resid) {
          op[base + x] = vp[base + x] - au;
        } else {
          op[base + x] += au;
        }
      }
      P::flops(33 * n);
      P::muladds(4 * n);
    }
  }
}

/// Periodic ghost exchange: copies opposite interior faces into the ghosts.
template <class P>
void comm3(Grid<P>& g, long n) {
  const auto nn = static_cast<std::size_t>(n);
  for (std::size_t i3 = 1; i3 <= nn; ++i3)
    for (std::size_t i2 = 1; i2 <= nn; ++i2) {
      g(i3, i2, 0) = g(i3, i2, nn);
      g(i3, i2, nn + 1) = g(i3, i2, 1);
    }
  for (std::size_t i3 = 1; i3 <= nn; ++i3)
    for (std::size_t i1 = 0; i1 <= nn + 1; ++i1) {
      g(i3, 0, i1) = g(i3, nn, i1);
      g(i3, nn + 1, i1) = g(i3, 1, i1);
    }
  for (std::size_t i2 = 0; i2 <= nn + 1; ++i2)
    for (std::size_t i1 = 0; i1 <= nn + 1; ++i1) {
      g(0, i2, i1) = g(nn, i2, i1);
      g(nn + 1, i2, i1) = g(1, i2, i1);
    }
}

/// Full-weighting restriction (NPB rprj3 weights: 1/2, 1/4, 1/8, 1/16 by
/// neighbour class).  Coarse interior point c maps to fine point 2c.
template <class P>
void rprj3(const Grid<P>& fine, Grid<P>& coarse, long nc, long lo3, long hi3) {
  for (long c3 = lo3; c3 < hi3; ++c3) {
    for (long c2 = 1; c2 <= nc; ++c2) {
      for (long c1 = 1; c1 <= nc; ++c1) {
        const auto z = static_cast<std::size_t>(2 * c3 - 1);
        const auto y = static_cast<std::size_t>(2 * c2 - 1);
        const auto x = static_cast<std::size_t>(2 * c1 - 1);
        double faces = 0.0, edges = 0.0, corners = 0.0;
        const double centre = fine(z + 1, y + 1, x + 1);
        faces = fine(z, y + 1, x + 1) + fine(z + 2, y + 1, x + 1) +
                fine(z + 1, y, x + 1) + fine(z + 1, y + 2, x + 1) +
                fine(z + 1, y + 1, x) + fine(z + 1, y + 1, x + 2);
        edges = fine(z, y, x + 1) + fine(z, y + 2, x + 1) + fine(z + 2, y, x + 1) +
                fine(z + 2, y + 2, x + 1) + fine(z, y + 1, x) + fine(z, y + 1, x + 2) +
                fine(z + 2, y + 1, x) + fine(z + 2, y + 1, x + 2) +
                fine(z + 1, y, x) + fine(z + 1, y, x + 2) + fine(z + 1, y + 2, x) +
                fine(z + 1, y + 2, x + 2);
        corners = fine(z, y, x) + fine(z, y, x + 2) + fine(z, y + 2, x) +
                  fine(z, y + 2, x + 2) + fine(z + 2, y, x) + fine(z + 2, y, x + 2) +
                  fine(z + 2, y + 2, x) + fine(z + 2, y + 2, x + 2);
        coarse(static_cast<std::size_t>(c3), static_cast<std::size_t>(c2),
               static_cast<std::size_t>(c1)) =
            0.5 * centre + 0.25 * faces + 0.125 * edges + 0.0625 * corners;
        P::flops(30);
        P::muladds(4);
      }
    }
  }
}

/// Trilinear interpolation (NPB interp): adds the prolonged coarse
/// correction to the fine grid.  Alignment is the adjoint of rprj3: coarse
/// point c sits on fine point 2c, so an even fine index copies its coarse
/// point and an odd one averages its two (or 4, or 8) coarse neighbours —
/// including the c=0 periodic ghost, so `coarse` must be comm3'd.
template <class P>
void interp(const Grid<P>& coarse, Grid<P>& fine, long nf, long lo3, long hi3) {
  for (long f3 = lo3; f3 < hi3; ++f3) {
    const long b3 = f3 / 2;
    const int o3 = static_cast<int>(f3 & 1);
    for (long f2 = 1; f2 <= nf; ++f2) {
      const long b2 = f2 / 2;
      const int o2 = static_cast<int>(f2 & 1);
      for (long f1 = 1; f1 <= nf; ++f1) {
        const long b1 = f1 / 2;
        const int o1 = static_cast<int>(f1 & 1);
        double sum = 0.0;
        for (int d3 = 0; d3 <= o3; ++d3)
          for (int d2 = 0; d2 <= o2; ++d2)
            for (int d1 = 0; d1 <= o1; ++d1)
              sum += coarse(static_cast<std::size_t>(b3 + d3),
                            static_cast<std::size_t>(b2 + d2),
                            static_cast<std::size_t>(b1 + d1));
        const double scale = 1.0 / static_cast<double>((o3 + 1) * (o2 + 1) * (o1 + 1));
        fine(static_cast<std::size_t>(f3), static_cast<std::size_t>(f2),
             static_cast<std::size_t>(f1)) += scale * sum;
        P::flops(9);
        P::muladds(1);
      }
    }
  }
}

template <class P>
double l2norm(const Grid<P>& g, long n) {
  double s = 0.0;
  for (long i3 = 1; i3 <= n; ++i3)
    for (long i2 = 1; i2 <= n; ++i2)
      for (long i1 = 1; i1 <= n; ++i1) {
        const double v = g(static_cast<std::size_t>(i3), static_cast<std::size_t>(i2),
                           static_cast<std::size_t>(i1));
        s += v * v;
      }
  const double points = static_cast<double>(n) * static_cast<double>(n) *
                        static_cast<double>(n);
  return std::sqrt(s / points);
}

/// Fills the finest-level right-hand side: a randlc field whose 10 largest
/// points become +1, 10 smallest become -1, everything else 0 (NPB zran3).
template <class P>
void zran3(Grid<P>& v, long n) {
  double seed = kDefaultSeed;
  struct Extreme {
    double value;
    long i3, i2, i1;
  };
  std::vector<Extreme> maxs, mins;
  for (long i3 = 1; i3 <= n; ++i3)
    for (long i2 = 1; i2 <= n; ++i2)
      for (long i1 = 1; i1 <= n; ++i1) {
        const double x = randlc(seed, kDefaultMultiplier);
        v(static_cast<std::size_t>(i3), static_cast<std::size_t>(i2),
          static_cast<std::size_t>(i1)) = x;
        // Track ten extremes each way with an insertion pass (N*10, untimed).
        if (maxs.size() < 10 || x > maxs.back().value) {
          maxs.push_back({x, i3, i2, i1});
          for (std::size_t q = maxs.size() - 1; q > 0 && maxs[q].value > maxs[q - 1].value; --q)
            std::swap(maxs[q], maxs[q - 1]);
          if (maxs.size() > 10) maxs.pop_back();
        }
        if (mins.size() < 10 || x < mins.back().value) {
          mins.push_back({x, i3, i2, i1});
          for (std::size_t q = mins.size() - 1; q > 0 && mins[q].value < mins[q - 1].value; --q)
            std::swap(mins[q], mins[q - 1]);
          if (mins.size() > 10) mins.pop_back();
        }
      }
  v.fill(0.0);
  for (const auto& e : maxs)
    v(static_cast<std::size_t>(e.i3), static_cast<std::size_t>(e.i2),
      static_cast<std::size_t>(e.i1)) = 1.0;
  for (const auto& e : mins)
    v(static_cast<std::size_t>(e.i3), static_cast<std::size_t>(e.i2),
      static_cast<std::size_t>(e.i1)) = -1.0;
  comm3(v, n);
}

/// Executes body(lo3, hi3) over interior planes [1, n], either inline or
/// fork-joined over the team — the MG operators' shared parallel shape.
/// Every operator writes disjoint output planes, so any schedule yields the
/// same grid bit-for-bit; on the coarse levels (n < nranks) Dynamic/Guided
/// let idle ranks pick up planes instead of sitting on empty static blocks.
template <class F>
void over_planes(WorkerTeam* team, Schedule sched, long n, const F& body) {
  if (team == nullptr) {
    body(1, n + 1);
    return;
  }
  if (sched.kind == Schedule::Kind::Static) {
    team->run([&](int rank) {
      const Range r = partition(1, n + 1, rank, team->size());
      body(r.lo, r.hi);
      detail::record_loop_iters(rank, r.size());
    });
    return;
  }
  ChunkQueue queue;
  queue.reset(1, n + 1, sched, team->size());
  team->run([&](int rank) { claim_chunks(queue, rank, body); });
}

template <class P, bool V = false>
MgOutput mg_run(const MgParams& prm, int threads, const TeamOptions& topts) {
  const int lt = prm.log2_n;
  const long n = 1L << lt;

  // Team before grids: a FirstTouch placement then commits every level's
  // pages plane-slab by plane-slab on the ranks that will smooth them.
  std::optional<WorkerTeam> team_storage;
  if (threads > 0) team_storage.emplace(threads, topts);
  WorkerTeam* team = team_storage ? &*team_storage : nullptr;
  const Schedule sched = topts.schedule;
  const mem::ScopedTeamPlacement placement(team, sched);

  // Level l in [1, lt] has interior 2^l; index 0 unused.
  std::vector<Grid<P>> u(static_cast<std::size_t>(lt) + 1);
  std::vector<Grid<P>> r(static_cast<std::size_t>(lt) + 1);
  for (int l = 1; l <= lt; ++l) {
    const auto s = static_cast<std::size_t>((1L << l) + 2);
    u[static_cast<std::size_t>(l)] = Grid<P>(s, s, s);
    r[static_cast<std::size_t>(l)] = Grid<P>(s, s, s);
  }
  const auto sf = static_cast<std::size_t>(n + 2);
  Grid<P> v(sf, sf, sf);
  zran3(v, n);

  const obs::RegionId r_resid = obs::region("MG/resid");
  const obs::RegionId r_smooth = obs::region("MG/smooth");
  const obs::RegionId r_rprj3 = obs::region("MG/rprj3");
  const obs::RegionId r_interp = obs::region("MG/interp");
  const obs::RegionId r_comm3 = obs::region("MG/comm3");

  // The whole V-cycle is written once, generic over the execution shape:
  // `planes(nl, body)` runs body(lo3, hi3) across the interior planes of an
  // n=nl level and synchronizes before returning; `master(fn)` runs fn once
  // (ghost exchanges, coarse zero fills) with its writes published to every
  // rank before the next phase.  The forked shape maps these onto
  // over_planes / a plain call; the fused shape onto ParallelRegion::ranges
  // / a rank-0 section plus barrier — same partitioning either way, so the
  // grids are bit-identical.
  auto resid_level = [&](int l, const Grid<P>& vv, auto&& planes, auto&& master) {
    const long nl = 1L << l;
    auto& ul = u[static_cast<std::size_t>(l)];
    auto& rl = r[static_cast<std::size_t>(l)];
    {
      obs::ScopedTimer ot(r_resid);
      planes(nl, [&](long lo, long hi) {
        if constexpr (V)
          stencil27_vec<P, StencilOp::Resid>(ul, &vv, rl, kA, nl, lo, hi);
        else
          stencil27<P, StencilOp::Resid>(ul, &vv, rl, kA, nl, lo, hi);
      });
    }
    obs::ScopedTimer ot(r_comm3);
    master([&] { comm3(rl, nl); });
  };
  auto smooth_level = [&](int l, auto&& planes, auto&& master) {
    const long nl = 1L << l;
    auto& ul = u[static_cast<std::size_t>(l)];
    auto& rl = r[static_cast<std::size_t>(l)];
    {
      obs::ScopedTimer ot(r_smooth);
      planes(nl, [&](long lo, long hi) {
        if constexpr (V)
          stencil27_vec<P, StencilOp::Apply>(rl, nullptr, ul, kS, nl, lo, hi);
        else
          stencil27<P, StencilOp::Apply>(rl, nullptr, ul, kS, nl, lo, hi);
      });
    }
    obs::ScopedTimer ot(r_comm3);
    master([&] { comm3(ul, nl); });
  };

  // --- V-cycle (NPB mg3P) ---
  auto vcycle = [&](auto&& planes, auto&& master) {
    // Down-leg: restrict the residual to the coarsest level.
    for (int l = lt; l >= 2; --l) {
      const long nc = 1L << (l - 1);
      {
        obs::ScopedTimer ot(r_rprj3);
        planes(nc, [&](long lo, long hi) {
          rprj3(r[static_cast<std::size_t>(l)], r[static_cast<std::size_t>(l - 1)], nc,
                lo, hi);
        });
      }
      obs::ScopedTimer ot(r_comm3);
      master([&] { comm3(r[static_cast<std::size_t>(l - 1)], nc); });
    }
    // Coarsest: one smoothing pass from a zero guess.
    master([&] { u[1].fill(0.0); });
    smooth_level(1, planes, master);
    // Up-leg.
    for (int l = 2; l < lt; ++l) {
      const long nl = 1L << l;
      master([&] { u[static_cast<std::size_t>(l)].fill(0.0); });
      {
        obs::ScopedTimer ot(r_interp);
        planes(nl, [&](long lo, long hi) {
          interp(u[static_cast<std::size_t>(l - 1)], u[static_cast<std::size_t>(l)], nl,
                 lo, hi);
        });
      }
      {
        obs::ScopedTimer ot(r_comm3);
        master([&] { comm3(u[static_cast<std::size_t>(l)], nl); });
      }
      resid_level(l, r[static_cast<std::size_t>(l)], planes, master);
      // NOTE: resid_level overwrites r_l with r_l - A u_l via the vv alias.
      smooth_level(l, planes, master);
    }
    // Finest level: add the correction, refresh the residual, smooth.
    {
      obs::ScopedTimer ot(r_interp);
      planes(n, [&](long lo, long hi) {
        interp(u[static_cast<std::size_t>(lt - 1)], u[static_cast<std::size_t>(lt)], n,
               lo, hi);
      });
    }
    {
      obs::ScopedTimer ot(r_comm3);
      master([&] { comm3(u[static_cast<std::size_t>(lt)], n); });
    }
    resid_level(lt, v, planes, master);
    smooth_level(lt, planes, master);
    resid_level(lt, v, planes, master);
  };

  // Forked / serial execution shape: one dispatch per operator.
  auto planes_forked = [&](long nl, auto&& body) {
    over_planes(team, sched, nl, body);
  };
  auto master_forked = [&](auto&& fn) { fn(); };

  MgOutput out;
  const double t0 = wtime();

  // r = v - A u  with u = 0 initially.
  u[static_cast<std::size_t>(lt)].fill(0.0);
  resid_level(lt, v, planes_forked, master_forked);
  out.rnm2_initial = l2norm(r[static_cast<std::size_t>(lt)], n);

  // One V-cycle is the retry unit.  The cycle reads exactly two grids that
  // earlier cycles produced — the finest-level solution u[lt] (accumulated
  // by interp) and its residual r[lt] (the down-leg's input) — while every
  // coarser level is overwritten on the way down/up, so those two spans are
  // the whole checkpoint.
  fault::StepRunner steps(team, topts);
  steps.add(u[static_cast<std::size_t>(lt)].data(),
            u[static_cast<std::size_t>(lt)].size() * sizeof(double));
  steps.add(r[static_cast<std::size_t>(lt)].data(),
            r[static_cast<std::size_t>(lt)].size() * sizeof(double));

  for (int iter = 1; iter <= prm.iterations; ++iter) {
    if (team == nullptr) {
      vcycle(planes_forked, master_forked);
      continue;
    }
    steps.step(iter, [&](WorkerTeam& tm, int) {
      if (topts.fused) {
        // Fused: the whole V-cycle — every level's restrict, smooth,
        // interpolate and residual — runs resident in one dispatch per
        // iteration; serial ghost exchanges become rank-0 sections between
        // barriers.
        spmd(tm, [&](ParallelRegion& rg, int rank) {
          auto planes = [&](long nl, auto&& body) {
            rg.ranges(rank, sched, 1, nl + 1,
                      [&](int, long lo, long hi) { body(lo, hi); });
          };
          auto master = [&](auto&& fn) {
            if (rank == 0) fn();
            rg.barrier();
          };
          vcycle(planes, master);
        });
      } else {
        auto planes_step = [&](long nl, auto&& body) {
          over_planes(&tm, sched, nl, body);
        };
        vcycle(planes_step, master_forked);
      }
    });
  }

  out.rnm2_final = l2norm(r[static_cast<std::size_t>(lt)], n);
  out.seconds = wtime() - t0;
  return out;
}

extern template MgOutput mg_run<Unchecked>(const MgParams&, int, const TeamOptions&);
extern template MgOutput mg_run<Checked>(const MgParams&, int, const TeamOptions&);
extern template MgOutput mg_run<Unchecked, true>(const MgParams&, int, const TeamOptions&);

}  // namespace npb::mg_detail
