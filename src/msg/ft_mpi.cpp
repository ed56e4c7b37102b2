#include "msg/ft_mpi.hpp"

#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "common/reference.hpp"
#include "common/verify.hpp"
#include "common/wtime.hpp"
#include "fault/fault.hpp"
#include "ft/ft_impl.hpp"
#include "msg/communicator.hpp"
#include "msg/shard.hpp"
#include "par/partition.hpp"
#include "par/team.hpp"

namespace npb::msg {
namespace {

using ft_detail::Twiddle;
using ft_detail::fft_line;
using ft_detail::kFtSeed;

using Buf = Array1<double, Unchecked>;

/// Per-rank distributed FT state.  Two layouts alternate:
///  - slab1: rank owns i1 in [r*n1l, (r+1)*n1l), array (n1l, n2, n3);
///  - slab2 (after transpose): rank owns i2, array (n2l, n1, n3).
struct Slab {
  long n1, n2, n3, n1l, n2l;
  Buf re, im;    // current slab contents
  Buf tre, tim;  // transpose scratch (pack/unpack)
};

/// Packs slab1 (n1l, n2, n3) into per-destination blocks
/// (dest-major: [dest][i1 local][i2 local within dest slab][i3]), runs the
/// all-to-all, and unpacks into slab2 (n2l, n1, n3).  `forward` false does
/// the inverse relayout.
void transpose(Communicator& comm, Slab& s, bool forward) {
  const long P = comm.size();
  const std::size_t block = static_cast<std::size_t>(s.n1l) *
                            static_cast<std::size_t>(s.n2l) *
                            static_cast<std::size_t>(s.n3);
  auto idx3 = [](long a, long b, long c, long nb, long nc) {
    return (static_cast<std::size_t>(a) * static_cast<std::size_t>(nb) +
            static_cast<std::size_t>(b)) *
               static_cast<std::size_t>(nc) +
           static_cast<std::size_t>(c);
  };

  if (forward) {
    // slab1 -> blocks
    for (long dest = 0; dest < P; ++dest)
      for (long i1 = 0; i1 < s.n1l; ++i1)
        for (long j = 0; j < s.n2l; ++j)
          for (long k = 0; k < s.n3; ++k) {
            const std::size_t src = idx3(i1, dest * s.n2l + j, k, s.n2, s.n3);
            const std::size_t dst = static_cast<std::size_t>(dest) * block +
                                    idx3(i1, j, k, s.n2l, s.n3);
            s.tre[dst] = s.re[src];
            s.tim[dst] = s.im[src];
          }
  } else {
    // slab2 -> blocks addressed by the source layout of the forward step
    for (long dest = 0; dest < P; ++dest)
      for (long j = 0; j < s.n2l; ++j)
        for (long i1 = 0; i1 < s.n1l; ++i1)
          for (long k = 0; k < s.n3; ++k) {
            const std::size_t src = idx3(j, dest * s.n1l + i1, k, s.n1, s.n3);
            const std::size_t dst = static_cast<std::size_t>(dest) * block +
                                    idx3(i1, j, k, s.n2l, s.n3);
            s.tre[dst] = s.re[src];
            s.tim[dst] = s.im[src];
          }
  }

  std::vector<double> out(static_cast<std::size_t>(P) * block);
  comm.alltoall(std::span<const double>(s.tre.data(), out.size()),
                std::span<double>(out.data(), out.size()), block);
  std::vector<double> out_im(out.size());
  comm.alltoall(std::span<const double>(s.tim.data(), out_im.size()),
                std::span<double>(out_im.data(), out_im.size()), block);

  if (forward) {
    // blocks (from src ranks) -> slab2 (n2l, n1, n3)
    for (long src = 0; src < P; ++src)
      for (long i1 = 0; i1 < s.n1l; ++i1)
        for (long j = 0; j < s.n2l; ++j)
          for (long k = 0; k < s.n3; ++k) {
            const std::size_t from = static_cast<std::size_t>(src) * block +
                                     idx3(i1, j, k, s.n2l, s.n3);
            const std::size_t to = idx3(j, src * s.n1l + i1, k, s.n1, s.n3);
            s.re[to] = out[from];
            s.im[to] = out_im[from];
          }
  } else {
    for (long src = 0; src < P; ++src)
      for (long i1 = 0; i1 < s.n1l; ++i1)
        for (long j = 0; j < s.n2l; ++j)
          for (long k = 0; k < s.n3; ++k) {
            const std::size_t from = static_cast<std::size_t>(src) * block +
                                     idx3(i1, j, k, s.n2l, s.n3);
            const std::size_t to = idx3(i1, src * s.n2l + j, k, s.n2, s.n3);
            s.re[to] = out[from];
            s.im[to] = out_im[from];
          }
  }
}

}  // namespace

RunResult run_ft_msg(const RunConfig& cfg) {
  const FtParams p = ft_params(cfg.cls);
  const int niter = p.iterations;
  const int nthreads = cfg.threads;

  auto width_ok = [&p](int w) {
    return w >= 1 && p.n1 % w == 0 && p.n2 % w == 0;
  };

  auto body = [&](Communicator& comm) -> std::vector<double> {
    Slab s;
    s.n1 = p.n1;
    s.n2 = p.n2;
    s.n3 = p.n3;
    s.n1l = p.n1 / comm.size();
    s.n2l = p.n2 / comm.size();
    const std::size_t local = static_cast<std::size_t>(s.n1l) *
                              static_cast<std::size_t>(s.n2) *
                              static_cast<std::size_t>(s.n3);
    s.re = Buf(local);
    s.im = Buf(local);
    s.tre = Buf(local);
    s.tim = Buf(local);

    const Twiddle<Unchecked> tw1 = ft_detail::make_twiddle<Unchecked>(p.n1);
    const Twiddle<Unchecked> tw2 = ft_detail::make_twiddle<Unchecked>(p.n2);
    const Twiddle<Unchecked> tw3 = ft_detail::make_twiddle<Unchecked>(p.n3);
    const long maxn = std::max({p.n1, p.n2, p.n3});

    // Per-shard team (T >= 2 only) over the local FFT phases.  Lines write
    // disjoint elements and each thread uses its own scratch, so any T
    // (including the serial path T <= 1 takes) produces identical bits.
    const std::unique_ptr<WorkerTeam> team = make_shard_team(cfg);
    std::vector<Buf> psre, psim;
    for (int t = 0; t < std::max(1, nthreads); ++t) {
      psre.emplace_back(static_cast<std::size_t>(maxn));
      psim.emplace_back(static_cast<std::size_t>(maxn));
    }
    auto plines = [&](long nlines, auto&& fn) {
      if (team) {
        team->run([&](int trank) {
          const Range c = partition(0, nlines, trank, nthreads);
          for (long o = c.lo; o < c.hi; ++o)
            fn(o, psre[static_cast<std::size_t>(trank)],
               psim[static_cast<std::size_t>(trank)]);
        });
      } else {
        for (long o = 0; o < nlines; ++o) fn(o, psre[0], psim[0]);
      }
    };

    // Initial field: same global sequence as the shared-memory FT — the
    // slab's first element is global flat offset rank*local.
    {
      const auto base = static_cast<unsigned long long>(comm.rank()) * local;
      double x = randlc_skip(kFtSeed, kDefaultMultiplier, 2ULL * base);
      for (std::size_t e = 0; e < local; ++e) {
        s.re[e] = randlc(x, kDefaultMultiplier);
        s.im[e] = randlc(x, kDefaultMultiplier);
      }
    }

    comm.barrier();
    fault::current().set_step(0);
    const double t0 = wtime();

    const auto s23 = static_cast<std::size_t>(s.n2) * static_cast<std::size_t>(s.n3);
    const auto s13 = static_cast<std::size_t>(s.n1) * static_cast<std::size_t>(s.n3);

    // Forward: FFT i3 and i2 locally on slab1, transpose, FFT i1 locally.
    plines(s.n1l * s.n2, [&](long o, Buf& sre, Buf& sim) {
      fft_line(s.re, s.im, static_cast<std::size_t>(o) * static_cast<std::size_t>(s.n3),
               1, s.n3, tw3, +1, sre, sim);
    });
    plines(s.n1l * s.n3, [&](long o, Buf& sre, Buf& sim) {
      const long i1 = o / s.n3;
      const long k = o % s.n3;
      fft_line(s.re, s.im,
               static_cast<std::size_t>(i1) * s23 + static_cast<std::size_t>(k),
               static_cast<std::size_t>(s.n3), s.n2, tw2, +1, sre, sim);
    });
    transpose(comm, s, true);
    plines(s.n2l * s.n3, [&](long o, Buf& sre, Buf& sim) {
      const long j = o / s.n3;
      const long k = o % s.n3;
      fft_line(s.re, s.im,
               static_cast<std::size_t>(j) * s13 + static_cast<std::size_t>(k),
               static_cast<std::size_t>(s.n3), s.n1, tw1, +1, sre, sim);
    });

    // Frequency state stays in slab2 layout; keep a private copy.
    const std::size_t local2 = static_cast<std::size_t>(s.n2l) * s13;
    std::vector<double> vfre(local2), vfim(local2);
    for (std::size_t e = 0; e < local2; ++e) {
      vfre[e] = s.re[e];
      vfim[e] = s.im[e];
    }

    std::vector<double> e1(static_cast<std::size_t>(p.n1));
    std::vector<double> e2(static_cast<std::size_t>(p.n2));
    std::vector<double> e3(static_cast<std::size_t>(p.n3));
    const double c = -4.0 * p.alpha * std::numbers::pi * std::numbers::pi;

    std::vector<double> checks(static_cast<std::size_t>(2 * niter), 0.0);

    for (int t = 1; t <= niter; ++t) {
      fault::current().set_step(t);
      auto fill_decay = [&](std::vector<double>& e, long n) {
        for (long k = 0; k < n; ++k) {
          const long kt = k <= n / 2 ? k : k - n;
          e[static_cast<std::size_t>(k)] =
              std::exp(c * static_cast<double>(t) * static_cast<double>(kt * kt));
        }
      };
      fill_decay(e1, p.n1);
      fill_decay(e2, p.n2);
      fill_decay(e3, p.n3);

      // evolve on slab2 layout: local j is global k2 = rank*n2l + j.
      plines(s.n2l, [&](long j, Buf&, Buf&) {
        const long k2 = static_cast<long>(comm.rank()) * s.n2l + j;
        for (long k1 = 0; k1 < s.n1; ++k1) {
          const double f12 = e2[static_cast<std::size_t>(k2)] *
                             e1[static_cast<std::size_t>(k1)];
          const std::size_t base =
              (static_cast<std::size_t>(j) * static_cast<std::size_t>(s.n1) +
               static_cast<std::size_t>(k1)) *
              static_cast<std::size_t>(s.n3);
          for (long k3 = 0; k3 < s.n3; ++k3) {
            const double f = f12 * e3[static_cast<std::size_t>(k3)];
            s.re[base + static_cast<std::size_t>(k3)] =
                f * vfre[base + static_cast<std::size_t>(k3)];
            s.im[base + static_cast<std::size_t>(k3)] =
                f * vfim[base + static_cast<std::size_t>(k3)];
          }
        }
      });

      // Inverse: FFT i1 locally, transpose back, FFT i2 then i3 locally.
      plines(s.n2l * s.n3, [&](long o, Buf& sre, Buf& sim) {
        const long j = o / s.n3;
        const long k = o % s.n3;
        fft_line(s.re, s.im,
                 static_cast<std::size_t>(j) * s13 + static_cast<std::size_t>(k),
                 static_cast<std::size_t>(s.n3), s.n1, tw1, -1, sre, sim);
      });
      transpose(comm, s, false);
      plines(s.n1l * s.n3, [&](long o, Buf& sre, Buf& sim) {
        const long i1 = o / s.n3;
        const long k = o % s.n3;
        fft_line(s.re, s.im,
                 static_cast<std::size_t>(i1) * s23 + static_cast<std::size_t>(k),
                 static_cast<std::size_t>(s.n3), s.n2, tw2, -1, sre, sim);
      });
      plines(s.n1l * s.n2, [&](long o, Buf& sre, Buf& sim) {
        fft_line(s.re, s.im,
                 static_cast<std::size_t>(o) * static_cast<std::size_t>(s.n3), 1, s.n3,
                 tw3, -1, sre, sim);
      });

      // Checksum of the globally scattered probes this rank owns.
      double cs[2] = {0.0, 0.0};
      for (long q = 1; q <= 1024; ++q) {
        const long g1 = (5 * q) % p.n1;
        if (g1 / s.n1l != comm.rank()) continue;
        const long i1 = g1 % s.n1l;
        const long i2 = (3 * q) % p.n2;
        const long i3 = q % p.n3;
        const std::size_t at =
            (static_cast<std::size_t>(i1) * static_cast<std::size_t>(s.n2) +
             static_cast<std::size_t>(i2)) *
                static_cast<std::size_t>(s.n3) +
            static_cast<std::size_t>(i3);
        cs[0] += s.re[at];
        cs[1] += s.im[at];
      }
      comm.allreduce_sum(std::span<double>(cs, 2));
      if (comm.rank() == 0) {
        checks[static_cast<std::size_t>(2 * (t - 1))] = cs[0];
        checks[static_cast<std::size_t>(2 * (t - 1) + 1)] = cs[1];
      }
    }
    comm.barrier();
    const double seconds = wtime() - t0;
    fault::current().set_step(-1);
    std::vector<double> payload{seconds};
    if (comm.rank() == 0)
      payload.insert(payload.end(), checks.begin(), checks.end());
    return payload;
  };

  const HybridOutcome h = run_hybrid(cfg, width_ok, body);
  const std::vector<double>& p0 = h.payloads.at(0);
  const double seconds = p0.at(0);
  const std::vector<double> checks(p0.begin() + 1, p0.end());

  RunResult r;
  r.name = "FT";
  r.cls = cfg.cls;
  r.mode = Mode::Msg;
  r.threads = cfg.threads;
  r.procs = h.procs;
  r.shards = h.shards;
  r.seconds = seconds;
  const double n = static_cast<double>(p.n1) * static_cast<double>(p.n2) *
                   static_cast<double>(p.n3);
  r.mops = (static_cast<double>(niter) + 1.0) * 5.0 * n * std::log2(n) /
           (seconds * 1.0e6);
  r.checksums = checks;
  bool ref_ok = true;
  if (const auto ref = reference_checksums("FT", cfg.cls)) {
    const VerifyResult v = verify_checksums(r.checksums, *ref);
    ref_ok = v.passed;
    r.reference_checked = true;
    r.verify_detail = v.detail;
  }
  r.verified = ref_ok;
  return r;
}

RunResult run_ft_mpi(ProblemClass cls, int ranks) {
  RunConfig cfg;
  cfg.cls = cls;
  cfg.mode = Mode::Msg;
  cfg.threads = 0;
  cfg.msg.procs = ranks;
  cfg.msg.transport = TransportKind::InProc;
  return run_ft_msg(cfg);
}

}  // namespace npb::msg
