// Ablation for the loop-schedule subsystem (paper section 5.2's load-balance
// discussion): the paper's Java translation pins every parallel loop to a
// static block partition, which is the right call for the structured-grid
// codes but leaves the imbalance-sensitive loops (CG's sparse mat-vec rows,
// IS's histogram phases, MG's small coarse levels, EP's trailing blocks) at
// the mercy of the slowest rank.  This bench quantifies what chunked-dynamic
// and guided self-scheduling buy (or cost) relative to that baseline:
//
//   - BM_TriangularLoop: a synthetic loop whose iteration i costs O(i), the
//     textbook worst case for static block partitioning — dynamic/guided
//     should approach perfect balance while static wastes ~25% of the team;
//   - BM_UniformLoop: the opposite extreme (uniform cost), where static is
//     optimal and the measured gap is pure chunk-claim overhead;
//   - a post-benchmark table running CG/IS/MG/EP under each schedule kind,
//     reporting seconds and the obs layer's max/mean per-rank iteration
//     imbalance (team/loop_iters).
//
// google-benchmark binary; --class= and --threads= (bench_util flags) are
// consumed after benchmark::Initialize strips its own flags.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "npb/registry.hpp"
#include "par/parallel_for.hpp"
#include "par/team.hpp"

namespace {

npb::Schedule schedule_for(long kind) {
  switch (kind) {
    case 1: return npb::Schedule::dynamic();
    case 2: return npb::Schedule::guided();
    default: return npb::Schedule::static_();
  }
}

/// O(i) work for iteration i; the sink defeats dead-code elimination.
double triangle_work(long i) {
  double acc = 0.0;
  for (long k = 0; k < i; ++k) acc += static_cast<double>(k) * 1.0e-9;
  return acc;
}

void BM_TriangularLoop(benchmark::State& state) {
  const npb::Schedule sched = schedule_for(state.range(0));
  const int nthreads = static_cast<int>(state.range(1));
  const long n = 4096;
  npb::WorkerTeam team(nthreads);
  std::vector<npb::detail::PaddedDouble> sink(static_cast<std::size_t>(nthreads));
  for (auto _ : state) {
    npb::parallel_ranges(team, sched, 0, n, [&](int rank, long lo, long hi) {
      for (long i = lo; i < hi; ++i)
        sink[static_cast<std::size_t>(rank)].v += triangle_work(i);
    });
  }
  benchmark::DoNotOptimize(sink.data());
  state.counters["iters/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(npb::to_string(sched.kind));
}
BENCHMARK(BM_TriangularLoop)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_UniformLoop(benchmark::State& state) {
  const npb::Schedule sched = schedule_for(state.range(0));
  const int nthreads = static_cast<int>(state.range(1));
  const long n = 1L << 16;
  npb::WorkerTeam team(nthreads);
  std::vector<npb::detail::PaddedDouble> sink(static_cast<std::size_t>(nthreads));
  for (auto _ : state) {
    npb::parallel_ranges(team, sched, 0, n, [&](int rank, long lo, long hi) {
      for (long i = lo; i < hi; ++i)
        sink[static_cast<std::size_t>(rank)].v += static_cast<double>(i) * 1.0e-9;
    });
  }
  benchmark::DoNotOptimize(sink.data());
  state.counters["iters/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(npb::to_string(sched.kind));
}
BENCHMARK(BM_UniformLoop)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

/// Kernel table: seconds and per-rank iteration imbalance for the four
/// benchmarks whose loops honor RunConfig::schedule.
void schedule_table(const npb::benchutil::Args& args) {
  int threads = 0;
  for (int t : args.threads) threads = t > threads ? t : threads;
  if (threads <= 0) threads = 4;

  const npb::Schedule kinds[] = {npb::Schedule::static_(),
                                 npb::Schedule::dynamic(),
                                 npb::Schedule::guided()};
  const char* names[] = {"cg", "is", "mg", "ep"};

  npb::Table t("Schedule ablation: seconds (imbalance = max/mean rank iters), " +
               std::to_string(threads) + " threads, class " +
               std::string(npb::to_string(args.cfg.cls)));
  t.set_header({"Benchmark", "static", "dynamic", "guided"});
  for (const char* name : names) {
    const npb::RunFn fn = npb::find_benchmark(name);
    std::vector<std::string> row{npb::benchutil::label(name, args.cfg.cls)};
    for (const npb::Schedule& sched : kinds) {
      npb::RunConfig cfg = args.cfg;
      cfg.threads = threads;
      cfg.schedule = sched;
      const npb::RunResult r = npb::run_instrumented(fn, cfg);
      if (!r.verified) {
        row.push_back("FAILED");
        continue;
      }
      char cell[64];
      std::snprintf(cell, sizeof cell, "%.3f (%.2f)", r.seconds,
                    r.obs.loop_imbalance());
      row.push_back(cell);
    }
    t.add_row(row);
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("Imbalance 1.00 = perfectly even rank iteration counts; static's\n"
            "figure is fixed by the partition while dynamic/guided trade a\n"
            "chunk-claim atomic per chunk for the freedom to rebalance.");
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  const npb::benchutil::Args args = npb::benchutil::parse(argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  schedule_table(args);
  return 0;
}
