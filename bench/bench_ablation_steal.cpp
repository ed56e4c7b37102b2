// Ablation for the task-runtime personality: what does work stealing buy
// (or cost) against the SPMD chunk-queue on the same WorkerTeam threads?
// The irregular suite (SORT's data-driven buckets, KNN's variable ring
// searches, GETRF's shrinking trailing updates) is where stealing should
// win or tie; CG rides along as the regular-NPB control, where the steal
// personality is expected to cost a little (fork/join overhead on loops the
// chunk queue already balances).
//
//   - BM_Workload: google-benchmark timings for every
//     (workload x runtime x threads) cell — the machine-readable artifact
//     via --benchmark_out=...json;
//   - a post-benchmark table of seconds plus the obs layer's steal counters
//     (steals/attempts), so the overhead column comes with its explanation.
//
// bench_util flags (--class=, --threads=) are consumed after
// benchmark::Initialize strips its own.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/mode.hpp"
#include "common/table.hpp"
#include "irr/irr.hpp"
#include "npb/registry.hpp"

namespace {

struct Workload {
  const char* name;
  npb::RunFn fn;
};

const Workload kWorkloads[] = {
    {"SORT", &npb::run_sort},
    {"KNN", &npb::run_knn},
    {"GETRF", &npb::run_getrf_irr},
    {"CG", nullptr},  // resolved from the regular registry at startup
};

npb::RunFn workload_fn(long idx) {
  const Workload& w = kWorkloads[idx];
  return w.fn != nullptr ? w.fn : npb::find_benchmark("cg");
}

void BM_Workload(benchmark::State& state) {
  const npb::RunFn fn = workload_fn(state.range(0));
  const npb::Runtime rt =
      state.range(1) == 0 ? npb::Runtime::Spmd : npb::Runtime::Steal;
  npb::RunConfig cfg;
  cfg.cls = npb::ProblemClass::S;
  cfg.threads = static_cast<int>(state.range(2));
  cfg.runtime = rt;
  for (auto _ : state) {
    const npb::RunResult r = fn(cfg);
    if (!r.verified) state.SkipWithError("verification failed");
    benchmark::DoNotOptimize(r.seconds);
  }
  state.SetLabel(std::string(kWorkloads[state.range(0)].name) + "/" +
                 npb::to_string(rt));
}
BENCHMARK(BM_Workload)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}, {1, 2, 3, 7}})
    ->Unit(benchmark::kMillisecond);

/// Kernel table: spmd vs steal seconds side by side per thread count, with
/// the steal personality's counter totals, for the human-readable summary.
void steal_table(const npb::benchutil::Args& args) {
  npb::Table t("Runtime ablation: seconds spmd / steal (steals:attempts), "
               "class " + std::string(npb::to_string(args.cfg.cls)));
  t.set_header({"Workload", "t=1", "t=2", "t=3", "t=7"});
  for (const Workload& w : kWorkloads) {
    const npb::RunFn fn = w.fn != nullptr ? w.fn : npb::find_benchmark("cg");
    std::vector<std::string> row{w.name};
    for (const int threads : {1, 2, 3, 7}) {
      npb::RunConfig cfg = args.cfg;
      cfg.threads = threads;
      cfg.runtime = npb::Runtime::Spmd;
      const npb::RunResult spmd = npb::run_instrumented(fn, cfg);
      cfg.runtime = npb::Runtime::Steal;
      const npb::RunResult steal = npb::run_instrumented(fn, cfg);
      if (!spmd.verified || !steal.verified) {
        row.push_back("FAILED");
        continue;
      }
      char cell[96];
      std::snprintf(cell, sizeof cell, "%.3f / %.3f (%.0f:%.0f)",
                    spmd.seconds, steal.seconds,
                    steal.obs.steal_steals_total,
                    steal.obs.steal_attempts_total);
      row.push_back(cell);
    }
    t.add_row(row);
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("CG is the regular-NPB control: its loops ignore the runtime\n"
            "switch (0:0 steals), so any delta there is measurement noise.\n"
            "The irregular rows run their task-forking personality under\n"
            "steal and the chunk-queue collectives under spmd.");
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  const npb::benchutil::Args args = npb::benchutil::parse(argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  steal_table(args);
  return 0;
}
