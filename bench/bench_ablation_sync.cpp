// Ablation for the section 5.2 threading findings:
//   - barrier strategy cost: monitor-style condvar (Java wait/notify) vs
//     sense-reversing spin, across thread counts;
//   - fork-join (master-workers dispatch) overhead per parallel region;
//   - pipeline handoff cost (the sync LU performs inside its sweep loop);
//   - the CG thread warm-up fix: the paper forced the JVM to place threads
//     on distinct CPUs by giving each thread priming work.  With 1:1
//     std::threads the fix is unnecessary; the table at the end quantifies
//     that it is also harmless.
//   - region fusion: dispatches per time step with --fused=on vs --fused=off
//     for every benchmark, read off the team/dispatches counter — the
//     "enlarge the parallel region" remedy the section 5.2 overhead
//     decomposition motivates, quantified.
//
// google-benchmark binary; the warm-up and fusion tables print after the
// benchmarks.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bt/bt.hpp"
#include "cg/cg.hpp"
#include "common/table.hpp"
#include "ft/ft.hpp"
#include "is/is.hpp"
#include "lu/lu.hpp"
#include "mg/mg.hpp"
#include "npb/registry.hpp"
#include "par/parallel_for.hpp"
#include "par/pipeline.hpp"
#include "par/team.hpp"
#include "sp/sp.hpp"

namespace {

void BM_BarrierRound(benchmark::State& state) {
  const auto kind = static_cast<npb::BarrierKind>(state.range(0));
  const int nthreads = static_cast<int>(state.range(1));
  npb::WorkerTeam team(nthreads, npb::TeamOptions{kind, 0});
  for (auto _ : state) {
    team.run([&](int) {
      for (int i = 0; i < 100; ++i) team.barrier();
    });
  }
  state.counters["barriers/s"] = benchmark::Counter(
      100.0 * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.SetLabel(npb::to_string(kind));
}
BENCHMARK(BM_BarrierRound)
    ->ArgsProduct({{static_cast<long>(npb::BarrierKind::CondVar),
                    static_cast<long>(npb::BarrierKind::SpinSense)},
                   {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_ForkJoin(benchmark::State& state) {
  const int nthreads = static_cast<int>(state.range(0));
  npb::WorkerTeam team(nthreads);
  for (auto _ : state) team.run([](int) {});
  state.counters["regions/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ForkJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_PipelineHandoff(benchmark::State& state) {
  const int nthreads = static_cast<int>(state.range(0));
  npb::WorkerTeam team(nthreads);
  npb::PipelineSync sync(nthreads);
  const long steps = 200;
  for (auto _ : state) {
    sync.reset();
    team.run([&](int rank) {
      for (long s = 0; s < steps; ++s) {
        if (rank > 0) sync.wait_for(rank - 1, s);
        sync.post(rank, s);
      }
    });
  }
  state.counters["handoffs/s"] = benchmark::Counter(
      static_cast<double>(steps * state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineHandoff)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void warmup_table() {
  npb::Table t("CG thread warm-up fix (paper section 5.2): CG.S java mode, 2 threads");
  t.set_header({"Configuration", "Seconds"});
  npb::RunConfig cfg;
  cfg.cls = npb::ProblemClass::S;
  cfg.mode = npb::Mode::Java;
  cfg.threads = 2;
  cfg.warmup_spins = 0;
  t.add_row({"no warm-up", npb::Table::cell(npb::run_cg(cfg).seconds, 3)});
  cfg.warmup_spins = npb::kWarmupSpins;
  t.add_row({"warm-up (1e6 spins/thread)", npb::Table::cell(npb::run_cg(cfg).seconds, 3)});
  std::fputs(t.render().c_str(), stdout);
  std::puts("With 1:1 kernel threads the fix changes nothing (expected divergence\n"
            "from the paper, whose JVM ran all CG threads on 1-2 POSIX threads\n"
            "until each had demonstrated work).");
}

void fusion_table() {
  if (!npb::obs::kActive) {
    std::puts("Fusion table skipped: built with NPB_OBS_DISABLED, no "
              "team/dispatches counter to read.");
    return;
  }
  // Time steps per class-S run, the denominator of dispatches/step.  EP has
  // no time-step loop: the whole run is one dispatch by construction.
  const struct {
    const char* name;
    int steps;
  } rows[] = {
      {"BT", npb::bt_params(npb::ProblemClass::S).iterations},
      {"SP", npb::sp_params(npb::ProblemClass::S).iterations},
      {"LU", npb::lu_params(npb::ProblemClass::S).iterations},
      {"FT", npb::ft_params(npb::ProblemClass::S).iterations},
      {"IS", npb::is_params(npb::ProblemClass::S).iterations},
      {"CG", npb::cg_params(npb::ProblemClass::S).niter},
      {"MG", npb::mg_params(npb::ProblemClass::S).iterations},
      {"EP", 1},
  };
  npb::Table t("Region fusion (paper section 5.2): team dispatches per time "
               "step, class S, 2 threads");
  t.set_header({"Benchmark", "Steps", "Disp/step forked", "Disp/step fused",
                "Barrier s forked", "Barrier s fused"});
  npb::RunConfig cfg;
  cfg.cls = npb::ProblemClass::S;
  cfg.mode = npb::Mode::Native;
  cfg.threads = 2;
  for (const auto& row : rows) {
    npb::RunFn fn = npb::find_benchmark(row.name);
    cfg.fused = false;
    const npb::RunResult forked = npb::run_instrumented(fn, cfg);
    cfg.fused = true;
    const npb::RunResult fused = npb::run_instrumented(fn, cfg);
    const auto steps = static_cast<double>(row.steps);
    t.add_row({row.name, std::to_string(row.steps),
               npb::Table::cell(forked.obs.dispatches_total / steps, 1),
               npb::Table::cell(fused.obs.dispatches_total / steps, 1),
               npb::Table::cell(forked.obs.barrier_wait_seconds, 4),
               npb::Table::cell(fused.obs.barrier_wait_seconds, 4)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("Fused runs approach 1 dispatch/step (setup phases outside the\n"
            "time-step loop still fork, amortized over Steps); the fork/join\n"
            "round trips removed by fusion reappear as in-region barrier time,\n"
            "which is what the barrier columns compare.  LU is fused in both\n"
            "modes (its pipelined sweeps already require one resident region).");
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  warmup_table();
  fusion_table();
  return 0;
}
