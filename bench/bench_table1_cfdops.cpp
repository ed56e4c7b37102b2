// Regenerates Table 1 of the paper: execution times of the five basic CFD
// operations, comparing the f77 stand-in (native mode) against the Java
// stand-in (java mode) serially and at increasing thread counts.
//
// Paper reference (SGI Origin2000, 81x81x100 grid):
//   Java serial is 3.3x (Assignment) to 12.4x (Second Order Stencil) slower
//   than f77; thread overhead <= 20%; 16-thread speedup 5-7.
//
// Flags: --threads=0,1,2,...   --reps=N   (grid fixed at the paper's size)

#include <cstdio>
#include <string_view>

#include "bench_util.hpp"
#include "cfdops/cfdops.hpp"
#include "common/table.hpp"
#include "npb/options.hpp"

namespace {

constexpr npb::CfdOp kOps[] = {npb::CfdOp::Assignment, npb::CfdOp::FirstOrderStencil,
                               npb::CfdOp::SecondOrderStencil, npb::CfdOp::MatVec,
                               npb::CfdOp::ReductionSum};

}  // namespace

int main(int argc, char** argv) {
  // --reps=N is this bench's own flag: take it out of argv before the shared
  // parser sees it, and report a bad value and ignore it like the others.
  int reps = 10;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--reps="))
      argv[kept++] = argv[i];
    else if (const auto n = npb::cli::parse_count(arg.substr(7)); n && *n > 0)
      reps = *n;
    else
      std::fprintf(stderr, "ignoring %s: expected a positive count\n", argv[i]);
  }
  npb::benchutil::Args defaults;
  defaults.threads = {0, 1, 2, 4};
  npb::benchutil::Args args = npb::benchutil::parse(kept, argv, defaults);

  npb::Table t(
      "Table 1. Execution times in seconds of the basic CFD operations\n"
      "(grid 81x81x100, 5x5 matrices, 5-D vectors; " +
      std::to_string(reps) + " repetitions per cell)");
  std::vector<std::string> header{"Operation", "f77", "vec", "Java serial"};
  for (int th : args.threads)
    if (th > 0) header.push_back(std::to_string(th) + "thr");
  header.push_back("Java/f77");
  header.push_back("f77/vec");
  t.set_header(header);

  for (npb::CfdOp op : kOps) {
    npb::CfdConfig cfg;
    cfg.reps = reps;
    cfg.mem = args.cfg.mem;
    cfg.warmup_spins = args.cfg.warmup_spins;
    cfg.mode = npb::Mode::Native;
    cfg.threads = 0;
    const double f77 = npb::run_cfd_op(op, cfg).seconds;

    cfg.mode = npb::Mode::Vec;
    const double vec = npb::run_cfd_op(op, cfg).seconds;

    cfg.mode = npb::Mode::Java;
    const double jser = npb::run_cfd_op(op, cfg).seconds;

    std::vector<std::string> row{npb::to_string(op), npb::Table::cell(f77, 3),
                                 npb::Table::cell(vec, 3),
                                 npb::Table::cell(jser, 3)};
    for (int th : args.threads) {
      if (th <= 0) continue;
      cfg.threads = th;
      row.push_back(npb::Table::cell(npb::run_cfd_op(op, cfg).seconds, 3));
    }
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.1f", jser / f77);
    row.push_back(ratio);
    std::snprintf(ratio, sizeof ratio, "%.2f", f77 / vec);
    row.push_back(ratio);
    t.add_row(row);
    std::fprintf(stderr, "%s done\n", npb::to_string(op));
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("\nPaper (Origin2000): Java/f77 ratios 3.3 (Assignment) .. 12.4 (2nd-order\n"
            "stencil); the computationally dense ops sit at the high end because\n"
            "bounds checks suppress regular-stride optimization.  The vec column\n"
            "is this repo's extra question: what explicit SIMD recovers beyond\n"
            "the autovectorized native kernels (f77/vec > 1 means vec is faster).");
  return 0;
}
