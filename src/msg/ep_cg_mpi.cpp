#include "msg/ep_cg_mpi.hpp"

#include <cmath>
#include <memory>
#include <vector>

#include "cg/cg_impl.hpp"
#include "common/reference.hpp"
#include "common/verify.hpp"
#include "common/wtime.hpp"
#include "ep/ep.hpp"
#include "ep/ep_impl.hpp"
#include "fault/fault.hpp"
#include "msg/communicator.hpp"
#include "msg/shard.hpp"
#include "par/partition.hpp"
#include "par/team.hpp"

namespace npb::msg {

RunResult run_ep_msg(const RunConfig& cfg) {
  using namespace ep_detail;
  const EpParams p = ep_params(cfg.cls);
  const long npairs = 1L << p.log2_pairs;
  const long nblocks = (npairs + kBlockPairs - 1) / kBlockPairs;
  const int nthreads = cfg.threads;

  auto body = [&](Communicator& comm) -> std::vector<double> {
    comm.barrier();
    fault::current().set_step(1);
    const double t0 = wtime();
    const Range r = partition(0, nblocks, comm.rank(), comm.size());
    // One accumulator per block, folded in block order below: the result is
    // a pure function of the shard's block range, so every thread count
    // (including the T=0 serial path) produces identical bits.
    std::vector<BlockAccum> accs(static_cast<std::size_t>(r.size()));
    if (const std::unique_ptr<WorkerTeam> team = make_shard_team(cfg)) {
      team->run([&](int trank) {
        Array1<double, Unchecked> buf(static_cast<std::size_t>(2 * kBlockPairs));
        const Range tr = partition(0, r.size(), trank, nthreads);
        for (long i = tr.lo; i < tr.hi; ++i)
          ep_block<Unchecked>(r.lo + i, buf, accs[static_cast<std::size_t>(i)]);
      });
    } else {
      Array1<double, Unchecked> buf(static_cast<std::size_t>(2 * kBlockPairs));
      for (long i = 0; i < r.size(); ++i)
        ep_block<Unchecked>(r.lo + i, buf, accs[static_cast<std::size_t>(i)]);
    }
    // sums[0]=sx, [1]=sy, [2]=accepted, [3..12]=annuli
    std::vector<double> local(3 + kAnnuli, 0.0);
    for (const BlockAccum& acc : accs) {
      local[0] += acc.sx;
      local[1] += acc.sy;
      local[2] += acc.accepted;
      for (int l = 0; l < kAnnuli; ++l)
        local[static_cast<std::size_t>(3 + l)] += acc.q[static_cast<std::size_t>(l)];
    }
    comm.allreduce_sum(local);
    comm.barrier();
    const double seconds = wtime() - t0;
    fault::current().set_step(-1);
    std::vector<double> payload{seconds};
    if (comm.rank() == 0)
      payload.insert(payload.end(), local.begin(), local.end());
    return payload;
  };

  const HybridOutcome h = run_hybrid(cfg, [](int) { return true; }, body);
  const std::vector<double>& p0 = h.payloads.at(0);
  const double seconds = p0.at(0);
  const std::vector<double> sums(p0.begin() + 1, p0.end());

  RunResult r;
  r.name = "EP";
  r.cls = cfg.cls;
  r.mode = Mode::Msg;
  r.threads = cfg.threads;
  r.procs = h.procs;
  r.shards = h.shards;
  r.seconds = seconds;
  r.mops = std::ldexp(1.0, p.log2_pairs) / (seconds * 1.0e6);
  r.checksums = sums;

  double qsum = 0.0;
  for (int l = 0; l < kAnnuli; ++l) qsum += sums[static_cast<std::size_t>(3 + l)];
  const bool intrinsic = qsum == sums[2];
  r.verify_detail = "intrinsic: qsum/accepted " + std::to_string(qsum) + "/" +
                    std::to_string(sums[2]) + "\n";
  bool ref_ok = true;
  if (const auto ref = reference_checksums("EP", cfg.cls)) {
    const VerifyResult v = verify_checksums(r.checksums, *ref);
    ref_ok = v.passed;
    r.reference_checked = true;
    r.verify_detail += v.detail;
  }
  r.verified = intrinsic && ref_ok;
  return r;
}

RunResult run_cg_msg(const RunConfig& cfg) {
  using namespace cg_detail;
  const CgParams p = cg_params(cfg.cls);
  const int nthreads = cfg.threads;

  auto body = [&](Communicator& comm) -> std::vector<double> {
    // Deterministic generation on every rank; each keeps only its row block
    // (simple and bit-identical to the shared-memory matrix; an owner-
    // computes generator would trade memory for communication).
    const Csr<Unchecked> m = make_matrix<Unchecked>(p);
    const long n = m.n;
    const Range rows = partition(0, n, comm.rank(), comm.size());

    std::vector<std::size_t> offsets(static_cast<std::size_t>(comm.size()) + 1, 0);
    for (int t = 0; t < comm.size(); ++t)
      offsets[static_cast<std::size_t>(t) + 1] =
          offsets[static_cast<std::size_t>(t)] +
          static_cast<std::size_t>(partition(0, n, t, comm.size()).size());

    Array1<double, Unchecked> x(static_cast<std::size_t>(n), 1.0);
    Array1<double, Unchecked> z(static_cast<std::size_t>(n), 0.0);
    Array1<double, Unchecked> rr(static_cast<std::size_t>(n), 0.0);
    Array1<double, Unchecked> pvec(static_cast<std::size_t>(n), 0.0);
    Array1<double, Unchecked> q(static_cast<std::size_t>(n), 0.0);
    // Note: vectors are allocated full-length but each rank only *writes*
    // its own block; pvec and z become globally consistent via allgatherv.

    // Per-shard team (T >= 2 only): loop slabs write disjoint rows (exact
    // at any T); dot partials fold in thread order, and T <= 1 is the
    // serial association itself.
    const std::unique_ptr<WorkerTeam> team = make_shard_team(cfg);
    std::vector<npb::detail::PaddedDouble> partials(
        static_cast<std::size_t>(team ? nthreads : 0));

    auto pfor = [&](auto&& fn) {
      if (team) {
        team->run([&](int trank) {
          const Range c = partition(rows.lo, rows.hi, trank, nthreads);
          fn(c.lo, c.hi);
        });
      } else {
        fn(rows.lo, rows.hi);
      }
    };
    auto pdot = [&](auto&& dotfn) -> double {
      if (!team) return dotfn(rows.lo, rows.hi);
      team->run([&](int trank) {
        const Range c = partition(rows.lo, rows.hi, trank, nthreads);
        partials[static_cast<std::size_t>(trank)].v = dotfn(c.lo, c.hi);
      });
      double sum = 0.0;
      for (int t = 0; t < nthreads; ++t) sum += partials[static_cast<std::size_t>(t)].v;
      return sum;
    };

    comm.barrier();
    const double t0 = wtime();
    double zeta = 0.0, rnorm = 0.0, zeta_sum = 0.0;

    for (int outer = 1; outer <= p.niter; ++outer) {
      fault::current().set_step(outer);
      // conj_grad, message-passing form.
      pfor([&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          z[static_cast<std::size_t>(i)] = 0.0;
          rr[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
          pvec[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
        }
      });
      double rho = comm.allreduce_sum(
          pdot([&](long lo, long hi) { return dot_rows<Unchecked>(rr, rr, lo, hi); }));

      for (int it = 0; it < p.cg_iters; ++it) {
        comm.allgatherv(
            std::span<const double>(pvec.data() + rows.lo,
                                    static_cast<std::size_t>(rows.size())),
            std::span<double>(pvec.data(), static_cast<std::size_t>(n)), offsets);
        pfor([&](long lo, long hi) { spmv_rows(m, pvec, q, lo, hi); });
        const double pq = comm.allreduce_sum(
            pdot([&](long lo, long hi) { return dot_rows<Unchecked>(pvec, q, lo, hi); }));
        const double alpha = rho / pq;
        const double rho0 = rho;
        pfor([&](long lo, long hi) {
          for (long i = lo; i < hi; ++i) {
            z[static_cast<std::size_t>(i)] += alpha * pvec[static_cast<std::size_t>(i)];
            rr[static_cast<std::size_t>(i)] -= alpha * q[static_cast<std::size_t>(i)];
          }
        });
        rho = comm.allreduce_sum(
            pdot([&](long lo, long hi) { return dot_rows<Unchecked>(rr, rr, lo, hi); }));
        const double beta = rho / rho0;
        pfor([&](long lo, long hi) {
          for (long i = lo; i < hi; ++i)
            pvec[static_cast<std::size_t>(i)] =
                rr[static_cast<std::size_t>(i)] + beta * pvec[static_cast<std::size_t>(i)];
        });
      }
      // True residual ||x - A z||.
      comm.allgatherv(std::span<const double>(z.data() + rows.lo,
                                              static_cast<std::size_t>(rows.size())),
                      std::span<double>(z.data(), static_cast<std::size_t>(n)), offsets);
      pfor([&](long lo, long hi) { spmv_rows(m, z, q, lo, hi); });
      const double local = pdot([&](long lo, long hi) {
        double acc = 0.0;
        for (long i = lo; i < hi; ++i) {
          const double d = x[static_cast<std::size_t>(i)] - q[static_cast<std::size_t>(i)];
          acc += d * d;
        }
        return acc;
      });
      rnorm = std::sqrt(comm.allreduce_sum(local));

      const double xz = pdot([&](long lo, long hi) {
        double acc = 0.0;
        for (long i = lo; i < hi; ++i)
          acc += x[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
        return acc;
      });
      const double zz = pdot([&](long lo, long hi) {
        double acc = 0.0;
        for (long i = lo; i < hi; ++i)
          acc += z[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
        return acc;
      });
      double both[2] = {xz, zz};
      comm.allreduce_sum(std::span<double>(both, 2));
      zeta = p.shift + 1.0 / both[0];
      zeta_sum += zeta;
      const double znorm = 1.0 / std::sqrt(both[1]);
      pfor([&](long lo, long hi) {
        for (long i = lo; i < hi; ++i)
          x[static_cast<std::size_t>(i)] = znorm * z[static_cast<std::size_t>(i)];
      });
    }
    comm.barrier();
    const double seconds = wtime() - t0;
    fault::current().set_step(-1);
    std::vector<double> payload{seconds};
    if (comm.rank() == 0) {
      payload.push_back(zeta);
      payload.push_back(rnorm);
      payload.push_back(zeta_sum);
    }
    return payload;
  };

  const HybridOutcome h = run_hybrid(cfg, [](int) { return true; }, body);
  const std::vector<double>& p0 = h.payloads.at(0);
  const double seconds = p0.at(0);
  const double zeta_out = p0.at(1);
  const double rnorm_out = p0.at(2);
  const double zeta_sum_out = p0.at(3);

  RunResult r;
  r.name = "CG";
  r.cls = cfg.cls;
  r.mode = Mode::Msg;
  r.threads = cfg.threads;
  r.procs = h.procs;
  r.shards = h.shards;
  r.seconds = seconds;
  const double nnz_est = static_cast<double>(p.n) *
                         static_cast<double>((p.nonzer + 1) * (p.nonzer + 1));
  r.mops = static_cast<double>(p.niter) * static_cast<double>(p.cg_iters) * 2.0 *
           nnz_est / (seconds * 1.0e6);
  r.checksums = {zeta_out, rnorm_out, zeta_sum_out};

  const bool intrinsic = std::isfinite(zeta_out) && zeta_out > 0.0 &&
                         zeta_out < p.shift && rnorm_out < 1.0e-8;
  r.verify_detail = "intrinsic: zeta " + std::to_string(zeta_out) + ", residual " +
                    std::to_string(rnorm_out) + "\n";
  bool ref_ok = true;
  if (const auto ref = reference_checksums("CG", cfg.cls)) {
    const VerifyResult v = verify_checksums(r.checksums, *ref);
    ref_ok = v.passed;
    r.reference_checked = true;
    r.verify_detail += v.detail;
  }
  r.verified = intrinsic && ref_ok;
  return r;
}

RunResult run_ep_mpi(ProblemClass cls, int ranks) {
  RunConfig cfg;
  cfg.cls = cls;
  cfg.mode = Mode::Msg;
  cfg.threads = 0;
  cfg.msg.procs = ranks;
  cfg.msg.transport = TransportKind::InProc;
  return run_ep_msg(cfg);
}

RunResult run_cg_mpi(ProblemClass cls, int ranks) {
  RunConfig cfg;
  cfg.cls = cls;
  cfg.mode = Mode::Msg;
  cfg.threads = 0;
  cfg.msg.procs = ranks;
  cfg.msg.transport = TransportKind::InProc;
  return run_cg_msg(cfg);
}

}  // namespace npb::msg
