#pragma once

// Kernel template for FT; explicitly instantiated in ft_native.cpp and
// ft_java.cpp (see ep_impl.hpp for the pattern).
//
// Complex data lives in two parallel double arrays (re/im) — how an
// efficient Java port stores it, since Java lacks a complex primitive (a
// deficiency the paper's conclusions call out explicitly).  Layout is
// (i1, i2, i3) row-major with i3 contiguous.

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

#include "array/array.hpp"
#include "common/randlc.hpp"
#include "common/wtime.hpp"
#include "fault/retry.hpp"
#include "ft/ft.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "par/parallel_for.hpp"
#include "par/region.hpp"
#include "par/team.hpp"

namespace npb::ft_detail {

inline constexpr double kFtSeed = 314159265.0;

struct FtOutput {
  std::vector<double> checksums;  ///< re, im per timestep
  double parseval_err = 0.0;      ///< | ||v||^2 - ||V||^2/N | / ||v||^2
  double roundtrip_err = 0.0;     ///< max |ifft(fft(v)) - v| over samples
  double seconds = 0.0;
};

/// Twiddle table for one FFT length: tw[j] = exp(2 pi i j / n), j < n/2.
template <class P>
struct Twiddle {
  Array1<double, P> re, im;
};

template <class P>
Twiddle<P> make_twiddle(long n) {
  Twiddle<P> t{Array1<double, P>(static_cast<std::size_t>(n / 2)),
               Array1<double, P>(static_cast<std::size_t>(n / 2))};
  for (long j = 0; j < n / 2; ++j) {
    const double ang = 2.0 * std::numbers::pi * static_cast<double>(j) /
                       static_cast<double>(n);
    t.re[static_cast<std::size_t>(j)] = std::cos(ang);
    t.im[static_cast<std::size_t>(j)] = std::sin(ang);
  }
  return t;
}

/// In-place iterative radix-2 Cooley-Tukey on the contiguous scratch line.
/// `sign` +1 = forward (exp(-i...)), -1 = inverse (exp(+i...), unscaled).
template <class P>
void fft_scratch(Array1<double, P>& sre, Array1<double, P>& sim, long n,
                 const Twiddle<P>& tw, int sign) {
  // Bit-reversal permutation.
  for (long i = 1, j = 0; i < n; ++i) {
    long bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j &= ~bit;
    j |= bit;
    if (i < j) {
      std::swap(sre[static_cast<std::size_t>(i)], sre[static_cast<std::size_t>(j)]);
      std::swap(sim[static_cast<std::size_t>(i)], sim[static_cast<std::size_t>(j)]);
    }
  }
  for (long len = 2; len <= n; len <<= 1) {
    const long half = len >> 1;
    const long step = n / len;
    for (long i = 0; i < n; i += len) {
      for (long k = 0; k < half; ++k) {
        const auto tj = static_cast<std::size_t>(k * step);
        const double wre = tw.re[tj];
        const double wim = -static_cast<double>(sign) * tw.im[tj];
        const auto a = static_cast<std::size_t>(i + k);
        const auto b = static_cast<std::size_t>(i + k + half);
        const double xre = sre[b] * wre - sim[b] * wim;
        const double xim = sre[b] * wim + sim[b] * wre;
        sre[b] = sre[a] - xre;
        sim[b] = sim[a] - xim;
        sre[a] += xre;
        sim[a] += xim;
        P::flops(10);
        P::muladds(2);
      }
    }
  }
}

/// Per-thread strided-line driver: gather -> fft -> scatter (with optional
/// 1/n scaling for the inverse).
template <class P>
void fft_line(Array1<double, P>& re, Array1<double, P>& im, std::size_t base,
              std::size_t stride, long n, const Twiddle<P>& tw, int sign,
              Array1<double, P>& sre, Array1<double, P>& sim) {
  for (long k = 0; k < n; ++k) {
    const std::size_t at = base + static_cast<std::size_t>(k) * stride;
    sre[static_cast<std::size_t>(k)] = re[at];
    sim[static_cast<std::size_t>(k)] = im[at];
  }
  fft_scratch(sre, sim, n, tw, sign);
  const double scale = sign > 0 ? 1.0 : 1.0 / static_cast<double>(n);
  for (long k = 0; k < n; ++k) {
    const std::size_t at = base + static_cast<std::size_t>(k) * stride;
    re[at] = scale * sre[static_cast<std::size_t>(k)];
    im[at] = scale * sim[static_cast<std::size_t>(k)];
  }
}

template <class P>
struct FtState {
  long n1, n2, n3;
  Twiddle<P> tw1, tw2, tw3;

  FtState(long a, long b, long c)
      : n1(a), n2(b), n3(c), tw1(make_twiddle<P>(a)), tw2(make_twiddle<P>(b)),
        tw3(make_twiddle<P>(c)) {}

  std::size_t total() const {
    return static_cast<std::size_t>(n1) * static_cast<std::size_t>(n2) *
           static_cast<std::size_t>(n3);
  }

  /// The three 1-D pass sweeps, expressed against a generic driver so the
  /// forked (fft3d) and fused (fft3d_region) transforms share the pass
  /// bodies verbatim: `run_pass(outer_n, line_of)` must run line_of(o, sre,
  /// sim) for every o in [0, outer_n) across whatever execution shape it
  /// owns, finishing each pass before the next starts.
  template <class RunPass>
  void fft_passes(Array1<double, P>& re, Array1<double, P>& im, int sign,
                  const RunPass& run_pass) const {
    const auto s23 = static_cast<std::size_t>(n2) * static_cast<std::size_t>(n3);

    // Along i3 (contiguous): one line per (i1, i2).
    run_pass(n1 * n2, [&](long o, Array1<double, P>& sre, Array1<double, P>& sim) {
      fft_line(re, im, static_cast<std::size_t>(o) * static_cast<std::size_t>(n3), 1,
               n3, tw3, sign, sre, sim);
    });
    // Along i2 (stride n3): one line per (i1, i3).
    run_pass(n1 * n3, [&](long o, Array1<double, P>& sre, Array1<double, P>& sim) {
      const long i1 = o / n3;
      const long i3 = o % n3;
      fft_line(re, im,
               static_cast<std::size_t>(i1) * s23 + static_cast<std::size_t>(i3),
               static_cast<std::size_t>(n3), n2, tw2, sign, sre, sim);
    });
    // Along i1 (stride n2*n3): one line per (i2, i3).
    run_pass(n2 * n3, [&](long o, Array1<double, P>& sre, Array1<double, P>& sim) {
      fft_line(re, im, static_cast<std::size_t>(o), s23, n1, tw1, sign, sre, sim);
    });
  }

  /// 3-D transform of (re, im), forward or inverse, optionally on a team.
  void fft3d(Array1<double, P>& re, Array1<double, P>& im, int sign,
             WorkerTeam* team) const {
    const long maxn = std::max({n1, n2, n3});
    fft_passes(re, im, sign, [&](long outer_n, auto&& line_of) {
      if (team == nullptr) {
        Array1<double, P> sre(static_cast<std::size_t>(maxn));
        Array1<double, P> sim(static_cast<std::size_t>(maxn));
        for (long o = 0; o < outer_n; ++o) line_of(o, sre, sim);
      } else {
        team->run([&](int rank) {
          Array1<double, P> sre(static_cast<std::size_t>(maxn));
          Array1<double, P> sim(static_cast<std::size_t>(maxn));
          const Range rg = partition(0, outer_n, rank, team->size());
          for (long o = rg.lo; o < rg.hi; ++o) line_of(o, sre, sim);
        });
      }
    });
  }

  /// In-region 3-D transform: collective — every rank of an open SPMD
  /// region calls it with its rank and its own scratch pair (capacity
  /// max(n1,n2,n3)); passes are separated by region barriers.  Partitioning
  /// matches fft3d's forked dispatches, so results are bit-identical.
  void fft3d_region(Array1<double, P>& re, Array1<double, P>& im, int sign,
                    ParallelRegion& region, int rank, int nranks,
                    Array1<double, P>& sre, Array1<double, P>& sim) const {
    fft_passes(re, im, sign, [&](long outer_n, auto&& line_of) {
      const Range rg = partition(0, outer_n, rank, nranks);
      for (long o = rg.lo; o < rg.hi; ++o) line_of(o, sre, sim);
      region.barrier();
    });
  }
};

/// Regenerates the initial random value pair of flat element `e` — used by
/// the untimed round-trip check so the initial field need not be stored.
inline void initial_value(std::size_t e, double& vre, double& vim) {
  double x = randlc_skip(kFtSeed, kDefaultMultiplier, 2ULL * e);
  vre = randlc(x, kDefaultMultiplier);
  vim = randlc(x, kDefaultMultiplier);
}

template <class P>
FtOutput ft_run(const FtParams& p, int threads, const TeamOptions& topts) {
  // Team first, then allocation: under FirstTouch the big field arrays are
  // committed slab-by-slab on the ranks whose i1-planes they hold — FT's
  // memory-pressure collapse in the paper is exactly the cost of streaming
  // the whole field out of one node.  The slabs are static under every
  // --schedule, as FT's loops are.
  std::optional<WorkerTeam> team_storage;
  if (threads > 0) team_storage.emplace(threads, topts);
  WorkerTeam* team = team_storage ? &*team_storage : nullptr;
  const mem::ScopedTeamPlacement placement(team, Schedule{});

  const FtState<P> st(p.n1, p.n2, p.n3);
  const std::size_t total = st.total();

  Array1<double, P> vfre(total), vfim(total);  // frequency state
  Array1<double, P> wre(total), wim(total);    // per-timestep working copy

  // Untimed initialization: the random field, filled in flat order with two
  // randlc values per element (parallel-safe via skip-ahead).
  double v0_norm2 = 0.0;
  {
    auto fill = [&](long lo, long hi) -> double {
      double x = randlc_skip(kFtSeed, kDefaultMultiplier,
                             2ULL * static_cast<unsigned long long>(lo));
      double acc = 0.0;
      for (long e = lo; e < hi; ++e) {
        const double a = randlc(x, kDefaultMultiplier);
        const double b = randlc(x, kDefaultMultiplier);
        vfre[static_cast<std::size_t>(e)] = a;
        vfim[static_cast<std::size_t>(e)] = b;
        acc += a * a + b * b;
      }
      return acc;
    };
    if (team == nullptr) {
      v0_norm2 = fill(0, static_cast<long>(total));
    } else {
      std::vector<detail::PaddedDouble> partial(static_cast<std::size_t>(threads));
      team->run([&](int rank) {
        const Range rg = partition(0, static_cast<long>(total), rank, threads);
        partial[static_cast<std::size_t>(rank)].v = fill(rg.lo, rg.hi);
      });
      for (const auto& q : partial) v0_norm2 += q.v;
    }
  }

  const obs::RegionId r_fft = obs::region("FT/fft");
  const obs::RegionId r_evolve = obs::region("FT/evolve");
  const obs::RegionId r_checksum = obs::region("FT/checksum");

  FtOutput out;
  const double t0 = wtime();

  // Forward transform of the initial field; vf then stays in frequency
  // space for the whole run.
  {
    obs::ScopedTimer ot(r_fft);
    st.fft3d(vfre, vfim, +1, team);
  }

  // Per-dimension Gaussian decay factors, recomputed each timestep.  Array1
  // (not std::vector) so they get the same alignment/placement treatment —
  // and the same java-mode bounds accounting — as every other buffer.
  Array1<double, P> e1(static_cast<std::size_t>(p.n1));
  Array1<double, P> e2(static_cast<std::size_t>(p.n2));
  Array1<double, P> e3(static_cast<std::size_t>(p.n3));
  const double c = -4.0 * p.alpha * std::numbers::pi * std::numbers::pi;

  // One time step is the retry unit, and FT's steps carry almost no mutable
  // state: the frequency field vf is read-only during the loop, the decay
  // tables and the working copy w are fully rewritten each step (evolve
  // writes every element before the in-place inverse transform).  The one
  // carried accumulator is the per-step checksum pair, so the team path
  // pre-sizes it, computes it inside the step body, and registers it as the
  // only span — a retry rolls it back and a durable resume restores every
  // replayed step's checksum.
  fault::StepRunner steps(team, topts);
  if (team != nullptr) {
    out.checksums.assign(2 * static_cast<std::size_t>(p.iterations), 0.0);
    steps.add(out.checksums.data(), out.checksums.size() * sizeof(double));
  }

  for (int t = 1; t <= p.iterations; ++t) {
    auto fill_decay = [&](Array1<double, P>& e, long n) {
      for (long k = 0; k < n; ++k) {
        const long kt = k <= n / 2 ? k : k - n;
        e[static_cast<std::size_t>(k)] =
            std::exp(c * static_cast<double>(t) * static_cast<double>(kt * kt));
      }
    };
    // evolve: w = vf * e1[k1] e2[k2] e3[k3]
    auto evolve = [&](long lo1, long hi1) {
      for (long k1 = lo1; k1 < hi1; ++k1)
        for (long k2 = 0; k2 < p.n2; ++k2) {
          const double f12 = e1[static_cast<std::size_t>(k1)] *
                             e2[static_cast<std::size_t>(k2)];
          const std::size_t base =
              (static_cast<std::size_t>(k1) * static_cast<std::size_t>(p.n2) +
               static_cast<std::size_t>(k2)) *
              static_cast<std::size_t>(p.n3);
          for (long k3 = 0; k3 < p.n3; ++k3) {
            const double f = f12 * e3[static_cast<std::size_t>(k3)];
            wre[base + static_cast<std::size_t>(k3)] =
                f * vfre[base + static_cast<std::size_t>(k3)];
            wim[base + static_cast<std::size_t>(k3)] =
                f * vfim[base + static_cast<std::size_t>(k3)];
            P::flops(3);
          }
        }
    };
    // Checksum 1024 scattered elements of the step's evolved field.
    auto checksum = [&](double& cre, double& cim) {
      obs::ScopedTimer ot(r_checksum);
      cre = 0.0;
      cim = 0.0;
      for (long j = 1; j <= 1024; ++j) {
        const auto i1 = static_cast<std::size_t>((5 * j) % p.n1);
        const auto i2 = static_cast<std::size_t>((3 * j) % p.n2);
        const auto i3 = static_cast<std::size_t>(j % p.n3);
        const std::size_t at =
            (i1 * static_cast<std::size_t>(p.n2) + i2) * static_cast<std::size_t>(p.n3) +
            i3;
        cre += wre[at];
        cim += wim[at];
      }
    };
    if (team == nullptr) {
      fill_decay(e1, p.n1);
      fill_decay(e2, p.n2);
      fill_decay(e3, p.n3);
      {
        obs::ScopedTimer ot(r_evolve);
        evolve(0, p.n1);
      }
      {
        obs::ScopedTimer ot(r_fft);
        st.fft3d(wre, wim, -1, nullptr);
      }
      double cre = 0.0, cim = 0.0;
      checksum(cre, cim);
      out.checksums.push_back(cre);
      out.checksums.push_back(cim);
    } else {
      steps.step(t, [&](WorkerTeam& tm, int nt) {
        if (topts.fused) {
          // Fused: decay tables, evolve, and all three inverse-FFT passes
          // run resident in one dispatch per time step; each rank keeps one
          // scratch line pair for the whole region instead of one per pass
          // dispatch.
          const long maxn = std::max({p.n1, p.n2, p.n3});
          spmd(tm, [&](ParallelRegion& rg, int rank) {
            Array1<double, P> sre(static_cast<std::size_t>(maxn));
            Array1<double, P> sim(static_cast<std::size_t>(maxn));
            if (rank == 0) {
              fill_decay(e1, p.n1);
              fill_decay(e2, p.n2);
              fill_decay(e3, p.n3);
            }
            rg.barrier();
            {
              obs::ScopedTimer ot(r_evolve);
              const Range r = partition(0, p.n1, rank, nt);
              evolve(r.lo, r.hi);
            }
            rg.barrier();
            obs::ScopedTimer ot(r_fft);
            st.fft3d_region(wre, wim, -1, rg, rank, nt, sre, sim);
          });
        } else {
          fill_decay(e1, p.n1);
          fill_decay(e2, p.n2);
          fill_decay(e3, p.n3);
          {
            obs::ScopedTimer ot(r_evolve);
            tm.run([&](int rank) {
              const Range rg = partition(0, p.n1, rank, nt);
              evolve(rg.lo, rg.hi);
            });
          }
          {
            obs::ScopedTimer ot(r_fft);
            st.fft3d(wre, wim, -1, &tm);
          }
        }
        double cre = 0.0, cim = 0.0;
        checksum(cre, cim);
        out.checksums[2 * static_cast<std::size_t>(t - 1)] = cre;
        out.checksums[2 * static_cast<std::size_t>(t - 1) + 1] = cim;
      });
    }
  }
  out.seconds = wtime() - t0;

  // ---- untimed intrinsic checks ----
  // Parseval: ||v||^2 == ||V||^2 / N for the forward transform.
  double vf_norm2 = 0.0;
  for (std::size_t e = 0; e < total; ++e)
    vf_norm2 += vfre[e] * vfre[e] + vfim[e] * vfim[e];
  out.parseval_err =
      std::fabs(v0_norm2 - vf_norm2 / static_cast<double>(total)) / v0_norm2;

  // Round trip: ifft(vf) must reproduce the (regenerated) initial field.
  for (std::size_t e = 0; e < total; ++e) {
    wre[e] = vfre[e];
    wim[e] = vfim[e];
  }
  st.fft3d(wre, wim, -1, team);
  double maxerr = 0.0;
  const std::size_t samples = 4096;
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t e = (s * total) / samples;
    double vre = 0.0, vim = 0.0;
    initial_value(e, vre, vim);
    maxerr = std::fmax(maxerr, std::fabs(wre[e] - vre));
    maxerr = std::fmax(maxerr, std::fabs(wim[e] - vim));
  }
  out.roundtrip_err = maxerr;
  return out;
}

extern template FtOutput ft_run<Unchecked>(const FtParams&, int, const TeamOptions&);
extern template FtOutput ft_run<Checked>(const FtParams&, int, const TeamOptions&);

}  // namespace npb::ft_detail
