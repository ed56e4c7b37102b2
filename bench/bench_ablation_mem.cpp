// Ablation for the memory subsystem (aligned arenas + team-aware first-touch
// placement): on a NUMA machine every page of an array faults into the node
// of the thread that first writes it, so serial initialization puts the whole
// working set next to the master and leaves the other ranks reading remote
// memory for the entire run.  First-touch initialization on the worker team
// — using the same schedule/partition as the compute loops — places each
// rank's slice locally instead.  This bench quantifies the effect:
//
//   - BM_PlaceFill: raw fill bandwidth of mem::place_fill over a 64 MiB
//     buffer, serial vs. team first-touch, isolating the placement machinery
//     from any benchmark kernel;
//   - a post-benchmark table running FT, MG and CG (the bandwidth-bound
//     kernels) under serial, first-touch, and first-touch + huge-page
//     placement across thread counts, reporting seconds and the obs layer's
//     first-touch time so the placement cost is visible next to its payoff.
//
// Checksums are placement-invariant by construction (the fill values never
// depend on which thread writes them), so timed_run's verification doubles
// as the bit-identity check.
//
// google-benchmark binary; --class= / --threads= / --mem-* (bench_util
// flags) are consumed after benchmark::Initialize strips its own flags.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "mem/buffer.hpp"
#include "mem/mem.hpp"
#include "npb/registry.hpp"
#include "par/team.hpp"

namespace {

void BM_PlaceFill(benchmark::State& state) {
  const bool first_touch = state.range(0) != 0;
  const int nthreads = static_cast<int>(state.range(1));
  const std::size_t n = (64u << 20) / sizeof(double);

  npb::mem::MemOptions opt;
  opt.placement = first_touch ? npb::mem::Placement::FirstTouch
                              : npb::mem::Placement::Serial;
  const npb::mem::ScopedMemConfig mem_scope(opt);
  npb::WorkerTeam team(nthreads);
  const npb::mem::ScopedTeamPlacement placement(&team, npb::Schedule{});

  npb::mem::AlignedBuffer<double> buf(n, npb::mem::uninitialized);
  for (auto _ : state) {
    npb::mem::place_fill(buf.data(), n, 1.0);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * sizeof(double)));
  state.SetLabel(first_touch ? "first_touch" : "serial");
}
BENCHMARK(BM_PlaceFill)
    ->ArgsProduct({{0, 1}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

/// Placement table: FT/MG/CG seconds under each placement policy, with the
/// obs first-touch time in parentheses (what the placement itself cost).
void mem_table(const npb::benchutil::Args& args) {
  struct Policy {
    const char* label;
    npb::mem::MemOptions opt;
  };
  npb::mem::MemOptions serial = args.cfg.mem;
  serial.placement = npb::mem::Placement::Serial;
  npb::mem::MemOptions ft = args.cfg.mem;
  ft.placement = npb::mem::Placement::FirstTouch;
  npb::mem::MemOptions fth = ft;
  fth.huge_pages = true;
  const Policy policies[] = {{"serial", serial},
                             {"first-touch", ft},
                             {"first-touch+huge", fth}};
  const char* names[] = {"ft", "mg", "cg"};

  std::vector<int> threads;
  for (int t : args.threads)
    if (t > 0) threads.push_back(t);
  if (threads.empty()) threads = {1, 2, 4};

  npb::Table t("Memory placement ablation: seconds (first-touch ms), class " +
               std::string(npb::to_string(args.cfg.cls)));
  t.set_header({"Benchmark", "threads", policies[0].label, policies[1].label,
                policies[2].label});
  for (const char* name : names) {
    const npb::RunFn fn = npb::find_benchmark(name);
    for (int th : threads) {
      std::vector<std::string> row{npb::benchutil::label(name, args.cfg.cls),
                                   std::to_string(th)};
      for (const Policy& p : policies) {
        npb::RunConfig cfg = args.cfg;
        cfg.threads = th;
        cfg.mem = p.opt;
        const npb::RunResult r = npb::run_instrumented(fn, cfg);
        if (!r.verified) {
          row.push_back("FAILED");
          continue;
        }
        char cell[64];
        std::snprintf(cell, sizeof cell, "%.3f (%.1f)", r.seconds,
                      r.obs.first_touch_seconds * 1e3);
        row.push_back(cell);
      }
      t.add_row(row);
    }
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("All three columns verify against the same checksums; differences\n"
            "are pure data-placement effects.  On a single-socket machine the\n"
            "columns should be within noise of each other — the ablation is\n"
            "about NUMA, which needs a multi-socket host to show up.");
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  const npb::benchutil::Args args = npb::benchutil::parse(argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  mem_table(args);
  return 0;
}
