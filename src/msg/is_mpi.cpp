#include "msg/is_mpi.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/reference.hpp"
#include "common/verify.hpp"
#include "common/wtime.hpp"
#include "fault/fault.hpp"
#include "is/is.hpp"
#include "is/is_impl.hpp"
#include "msg/communicator.hpp"
#include "msg/shard.hpp"
#include "par/partition.hpp"
#include "par/team.hpp"

namespace npb::msg {

RunResult run_is_msg(const RunConfig& cfg) {
  const IsParams p = is_params(cfg.cls);
  const long nkeys = p.total_keys;
  const long max_key = p.max_key;
  const int nthreads = cfg.threads;

  auto body = [&](Communicator& comm) -> std::vector<double> {
    const Range my = partition(0, nkeys, comm.rank(), comm.size());
    // Local slice of the global key sequence (4 randlc steps per key).
    std::vector<int> keys(static_cast<std::size_t>(my.size()));
    {
      double x = randlc_skip(kDefaultSeed, kDefaultMultiplier,
                             4ULL * static_cast<unsigned long long>(my.lo));
      const double k4 = static_cast<double>(max_key) / 4.0;
      for (long i = 0; i < my.size(); ++i) {
        double s = randlc(x, kDefaultMultiplier);
        s += randlc(x, kDefaultMultiplier);
        s += randlc(x, kDefaultMultiplier);
        s += randlc(x, kDefaultMultiplier);
        keys[static_cast<std::size_t>(i)] = static_cast<int>(k4 * s);
      }
    }

    const std::array<long, is_detail::kProbes> probe = [&] {
      std::array<long, is_detail::kProbes> pr{};
      for (int j = 0; j < is_detail::kProbes; ++j)
        pr[static_cast<std::size_t>(j)] =
            (static_cast<long>(j) * nkeys / is_detail::kProbes + j) % nkeys;
      return pr;
    }();

    // Per-shard team (T >= 2 only) over the histogram fill: each thread
    // counts its slice of the keys into a private histogram, merged in
    // thread order.  Counts are small integers, so the doubles sum exactly
    // in any association — results are identical at every thread count.
    const std::unique_ptr<WorkerTeam> team = make_shard_team(cfg);
    std::vector<double> hist(static_cast<std::size_t>(max_key));
    std::vector<std::vector<double>> thists(
        static_cast<std::size_t>(team ? nthreads : 0),
        std::vector<double>(static_cast<std::size_t>(max_key)));

    std::vector<double> probe_sums(static_cast<std::size_t>(p.iterations), 0.0);

    comm.barrier();
    const double t0 = wtime();
    for (int it = 1; it <= p.iterations; ++it) {
      fault::current().set_step(it);
      // The two global per-iteration modifications, applied by the owners.
      auto modify = [&](long gidx, int value) {
        if (gidx >= my.lo && gidx < my.hi)
          keys[static_cast<std::size_t>(gidx - my.lo)] = value;
      };
      modify(it, it);
      modify(nkeys - it, static_cast<int>(max_key - it));

      // Local histogram, then a global sum (the collective replaces the
      // shared-memory version's merge phase).
      if (team) {
        team->run([&](int trank) {
          auto& h = thists[static_cast<std::size_t>(trank)];
          std::fill(h.begin(), h.end(), 0.0);
          const Range c = partition(0, my.size(), trank, nthreads);
          for (long i = c.lo; i < c.hi; ++i)
            h[static_cast<std::size_t>(keys[static_cast<std::size_t>(i)])] += 1.0;
        });
        std::fill(hist.begin(), hist.end(), 0.0);
        for (int trank = 0; trank < nthreads; ++trank) {
          const auto& h = thists[static_cast<std::size_t>(trank)];
          for (long k = 0; k < max_key; ++k)
            hist[static_cast<std::size_t>(k)] += h[static_cast<std::size_t>(k)];
        }
      } else {
        std::fill(hist.begin(), hist.end(), 0.0);
        for (int k : keys) hist[static_cast<std::size_t>(k)] += 1.0;
      }
      comm.allreduce_sum(hist);
      for (long k = 1; k < max_key; ++k)
        hist[static_cast<std::size_t>(k)] += hist[static_cast<std::size_t>(k - 1)];

      // Probe ranks: each owner contributes hist[key[probe]].
      double ps = 0.0;
      for (long pi : probe)
        if (pi >= my.lo && pi < my.hi)
          ps += hist[static_cast<std::size_t>(
              keys[static_cast<std::size_t>(pi - my.lo)])];
      ps = comm.allreduce_sum(ps);
      if (comm.rank() == 0)
        probe_sums[static_cast<std::size_t>(it - 1)] = ps;
    }
    comm.barrier();
    const double seconds = wtime() - t0;
    fault::current().set_step(-1);

    // ---- untimed full verification: redistribute keys by value range ----
    // (the NPB-MPI IS pattern: bucket boundaries split max_key evenly).
    std::vector<std::vector<double>> outgoing(static_cast<std::size_t>(comm.size()));
    for (int k : keys) {
      const long owner =
          std::min<long>(static_cast<long>(comm.size()) - 1,
                         static_cast<long>(k) * comm.size() / max_key);
      outgoing[static_cast<std::size_t>(owner)].push_back(static_cast<double>(k));
    }
    std::vector<double> mine = comm.alltoallv(outgoing);
    std::sort(mine.begin(), mine.end());

    // Global checks: local sortedness (after sort trivially true), boundary
    // ordering between adjacent ranks, and permutation via key-sum.
    double local_sum = 0.0;
    for (double k : mine) local_sum += k;
    const double global_sorted_sum = comm.allreduce_sum(local_sum);
    double orig_sum = 0.0;
    for (int k : keys) orig_sum += k;
    const double global_orig_sum = comm.allreduce_sum(orig_sum);

    // Boundary exchange: send my max to rank+1, check it <= their min.
    double boundary_ok = 1.0;
    const double my_min = mine.empty() ? 1.0e300 : mine.front();
    const double my_max = mine.empty() ? -1.0e300 : mine.back();
    if (comm.rank() + 1 < comm.size())
      comm.send(comm.rank() + 1, 7, std::span<const double>(&my_max, 1));
    if (comm.rank() > 0) {
      double left_max = 0.0;
      comm.recv(comm.rank() - 1, 7, std::span<double>(&left_max, 1));
      if (left_max > my_min) boundary_ok = 0.0;
    }
    const double all_ok = comm.allreduce_sum(boundary_ok);

    std::vector<double> payload{seconds};
    if (comm.rank() == 0) {
      payload.insert(payload.end(), probe_sums.begin(), probe_sums.end());
      payload.push_back(global_orig_sum);
      // Every rank must report an ordered boundary with its left neighbour.
      payload.push_back(all_ok >= static_cast<double>(comm.size()) - 0.5 ? 1.0
                                                                         : 0.0);
      payload.push_back(global_sorted_sum == global_orig_sum ? 1.0 : 0.0);
    }
    return payload;
  };

  const HybridOutcome h = run_hybrid(cfg, [](int) { return true; }, body);
  const std::vector<double>& p0 = h.payloads.at(0);
  const double seconds = p0.at(0);
  const std::size_t niters = static_cast<std::size_t>(p.iterations);
  const bool sorted_ok = p0.at(2 + niters) != 0.0;
  const bool permutation_ok = p0.at(3 + niters) != 0.0;

  RunResult r;
  r.name = "IS";
  r.cls = cfg.cls;
  r.mode = Mode::Msg;
  r.threads = cfg.threads;
  r.procs = h.procs;
  r.shards = h.shards;
  r.seconds = seconds;
  r.mops = static_cast<double>(p.iterations) * static_cast<double>(nkeys) /
           (seconds * 1.0e6);
  r.checksums.assign(p0.begin() + 1, p0.begin() + 2 + static_cast<long>(niters));

  const bool intrinsic = sorted_ok && permutation_ok;
  r.verify_detail = std::string("intrinsic: distributed sort ") +
                    (sorted_ok ? "ordered" : "NOT ORDERED") + ", permutation " +
                    (permutation_ok ? "preserved" : "BROKEN") + "\n";
  bool ref_ok = true;
  if (const auto ref = reference_checksums("IS", cfg.cls)) {
    const VerifyResult v = verify_checksums(r.checksums, *ref);
    ref_ok = v.passed;
    r.reference_checked = true;
    r.verify_detail += v.detail;
  }
  r.verified = intrinsic && ref_ok;
  return r;
}

RunResult run_is_mpi(ProblemClass cls, int ranks) {
  RunConfig cfg;
  cfg.cls = cls;
  cfg.mode = Mode::Msg;
  cfg.threads = 0;
  cfg.msg.procs = ranks;
  cfg.msg.transport = TransportKind::InProc;
  return run_is_msg(cfg);
}

}  // namespace npb::msg
