// Regenerates the Table 5-6 family: the 2-processor desktop shape (Linux
// PIII PC and Apple Xserve G4) — Java-mode times for Serial, 1 and 2
// threads.  The paper's finding on the Linux PC was stark: "we did not
// obtain any speedup on any benchmark when using 2 threads"; on a 1-2 CPU
// container this reproduces directly.
//
// Flags: --class=S|W|A   plus the shared run options of bench_util.hpp
// (--warmup, --schedule, memory policy).

#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "npb/registry.hpp"

int main(int argc, char** argv) {
  using namespace npb;
  benchutil::Args defaults;
  defaults.threads = {0, 1, 2};
  const benchutil::Args args = benchutil::parse(argc, argv, defaults);

  obs::ObsReport report;
  obs::ObsReport* const rp = args.obs_report.empty() ? nullptr : &report;

  Table t("Tables 5-6. Benchmark times in seconds, 2-CPU desktop shape "
          "(Java mode, class " +
          std::string(to_string(args.cfg.cls)) + ")");
  t.set_header({"Benchmark", "Serial", "1", "2", "speedup(2)"});

  for (const auto& info : suite()) {
    RunConfig cfg = args.cfg;
    cfg.mode = Mode::Java;

    cfg.threads = 0;
    const double ser = benchutil::timed_run(info.fn, cfg, rp);
    cfg.threads = 1;
    const double t1 = benchutil::timed_run(info.fn, cfg, rp);
    cfg.threads = 2;
    const double t2 = benchutil::timed_run(info.fn, cfg, rp);

    char speedup[32];
    if (ser > 0 && t2 > 0) {
      std::snprintf(speedup, sizeof speedup, "%.2f", ser / t2);
    } else {
      std::snprintf(speedup, sizeof speedup, "-");
    }
    t.add_row({benchutil::label(info.name, args.cfg.cls), Table::cell(ser),
               Table::cell(t1), Table::cell(t2), speedup});
    std::fprintf(stderr, "%s done\n", info.name);
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("\nPaper (Linux PC, 2x PIII): no speedup on any benchmark with 2 threads;\n"
            "(Apple Xserve, 2x G4): modest speedups on BT/SP/LU only.");

  benchutil::maybe_write_report(args, report);
  return 0;
}
