// Regenerates the Table 2-4 family of the paper: full NPB benchmark times,
// Java vs the compiled-language comparator, serial and threaded.  The paper
// ran the same table on three SMPs (IBM p690, SGI Origin2000, SUN E10000);
// this harness produces one instance of that family for the host it runs on.
//
// Rows per benchmark:
//   <name>.<cls> Java     - java mode: serial, then each thread count
//   <name>.<cls> native   - the f77/C-OpenMP comparator row
// The trailing block reproduces the section 5.1 analysis: serial Java/native
// ratios split into structured-grid vs unstructured benchmarks, and the
// section 5.2 thread-overhead figures (1 thread vs serial).
//
// Flags: --class=S|W|A   --threads=0,1,2,...   plus the shared run options
// of bench_util.hpp (--warmup, --schedule, memory policy).
// Default class S so the full bench directory stays fast; the paper's size
// is --class=A.

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "npb/registry.hpp"

int main(int argc, char** argv) {
  using namespace npb;
  const benchutil::Args args = benchutil::parse(argc, argv);

  // With --obs-report=FILE every run goes through run_instrumented and its
  // per-region / team-counter snapshot lands in the report.
  obs::ObsReport report;
  obs::ObsReport* const rp = args.obs_report.empty() ? nullptr : &report;

  Table t("Tables 2-4. Benchmark times in seconds (this host; Java-mode vs "
          "native-mode rows; class " +
          std::string(to_string(args.cfg.cls)) + ")");
  std::vector<std::string> header{"Benchmark", "Serial"};
  for (int th : args.threads)
    if (th > 0) header.push_back(std::to_string(th));
  t.set_header(header);

  struct Ratios {
    double serial_ratio = 0.0;
    double thread1_overhead = 0.0;
    bool structured = false;
  };
  std::map<std::string, Ratios> analysis;

  for (const auto& info : suite()) {
    RunConfig cfg = args.cfg;
    cfg.mode = Mode::Java;
    cfg.threads = 0;
    const double jser = benchutil::timed_run(info.fn, cfg, rp);
    std::vector<std::string> jrow{benchutil::label(info.name, args.cfg.cls) + " Java",
                                  Table::cell(jser)};
    double j1 = -1.0;
    for (int th : args.threads) {
      if (th <= 0) continue;
      cfg.threads = th;
      const double s = benchutil::timed_run(info.fn, cfg, rp);
      if (th == 1) j1 = s;
      jrow.push_back(Table::cell(s));
    }
    t.add_row(jrow);

    cfg.mode = Mode::Native;
    cfg.threads = 0;
    const double nser = benchutil::timed_run(info.fn, cfg, rp);
    std::vector<std::string> nrow{benchutil::label(info.name, args.cfg.cls) + " native",
                                  Table::cell(nser)};
    for (int th : args.threads) {
      if (th <= 0) continue;
      cfg.threads = th;
      nrow.push_back(Table::cell(benchutil::timed_run(info.fn, cfg, rp)));
    }
    t.add_row(nrow);
    t.add_separator();

    Ratios r;
    r.serial_ratio = (jser > 0 && nser > 0) ? jser / nser : 0.0;
    r.thread1_overhead = (jser > 0 && j1 > 0) ? (j1 - jser) / jser : 0.0;
    r.structured = info.structured_grid;
    analysis[info.name] = r;
    std::fprintf(stderr, "%s done\n", info.name);
  }
  std::fputs(t.render().c_str(), stdout);

  // Section 5.1: the structured/unstructured ratio split.
  double smin = 1e300, smax = 0, umin = 1e300, umax = 0;
  std::puts("\nSection 5.1 analysis - serial Java/native time ratio:");
  for (const auto& [name, r] : analysis) {
    if (r.serial_ratio <= 0) continue;
    std::printf("  %-3s %5.2f  (%s)\n", name.c_str(), r.serial_ratio,
                r.structured ? "structured grid" : "unstructured");
    auto& mn = r.structured ? smin : umin;
    auto& mx = r.structured ? smax : umax;
    mn = std::min(mn, r.serial_ratio);
    mx = std::max(mx, r.serial_ratio);
  }
  std::printf("  structured-grid group ratio range:   %.2f - %.2f (paper: 2.6-10)\n",
              smin, smax);
  std::printf("  unstructured group ratio range:      %.2f - %.2f (paper: 1.5-3.5)\n",
              umin, umax);

  // Section 5.2: multithreading overhead (1 worker thread vs plain serial).
  std::puts("\nSection 5.2 analysis - threading overhead (1 thread vs serial):");
  for (const auto& [name, r] : analysis)
    std::printf("  %-3s %+5.1f%%\n", name.c_str(), 100.0 * r.thread1_overhead);
  std::puts("  (paper: multithreading introduces an overhead of about 10%-20%)");

  benchutil::maybe_write_report(args, report);
  return 0;
}
