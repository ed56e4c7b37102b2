// Estimating the smallest eigenvalue of a random sparse SPD matrix with the
// CG benchmark's shifted inverse power iteration — across problem classes,
// and with the paper's thread warm-up fix toggled.
//
//   ./eigenvalue_cg [threads]

#include <cstdio>
#include <cstdlib>

#include "cg/cg.hpp"

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 2;

  std::puts("CG: zeta = shift + 1/(x'z) after 15 outer iterations of 25 CG steps\n");
  std::printf("%-6s %8s %8s %10s %14s %12s\n", "class", "n", "nonzer", "shift",
              "zeta", "time");
  for (const auto cls : {npb::ProblemClass::S, npb::ProblemClass::W}) {
    const npb::CgParams p = npb::cg_params(cls);
    npb::RunConfig cfg;
    cfg.cls = cls;
    cfg.threads = threads;
    const npb::RunResult r = npb::run_cg(cfg);
    std::printf("%-6s %8ld %8d %10.1f %14.10f %10.2fs  %s\n", npb::to_string(cls),
                p.n, p.nonzer, p.shift, r.checksums[0], r.seconds,
                r.verified ? "" : "VERIFICATION FAILED");
  }

  // The paper's JVM ran all of CG's threads on 1-2 POSIX threads until each
  // had shown real work; priming the workers ("warm-up") fixed placement.
  // The knob survives in TeamOptions:
  npb::RunConfig cfg;
  cfg.cls = npb::ProblemClass::S;
  cfg.threads = threads;
  cfg.warmup_spins = npb::kWarmupSpins;
  const npb::RunResult warmed = npb::run_cg(cfg);
  std::printf("\nwith the paper's warm-up fix (1e6 spins/worker): zeta %.10f, %.2fs\n",
              warmed.checksums[0], warmed.seconds);
  return 0;
}
