// The related-work comparison (paper section 6): the Westminster group
// implemented FT and IS over javampi (MPI bindings) rather than Java
// threads.  This bench runs both programming models on the same problems:
//   - shared memory: the paper's master-workers translation (run_ft/run_is);
//   - message passing: slab-decomposed FT with distributed transposes and
//     histogram-allreduce IS over the in-process MPI-style runtime.
// Both verify against the same frozen references, so the table compares
// communication models, not implementations.
//
// Flags: --class=S|W|A   --threads=1,2,4 (rank counts; must divide FT's n1/n2)

#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "cg/cg.hpp"
#include "ep/ep.hpp"
#include "ft/ft.hpp"
#include "is/is.hpp"
#include "msg/ep_cg_mpi.hpp"
#include "msg/ft_mpi.hpp"
#include "msg/is_mpi.hpp"

int main(int argc, char** argv) {
  using namespace npb;
  benchutil::Args defaults;
  defaults.threads = {1, 2, 4};
  const benchutil::Args args = benchutil::parse(argc, argv, defaults);

  Table t("Related work: Java-threads translation vs javampi-style message\n"
          "passing, FT/IS/EP/CG (class " +
          std::string(to_string(args.cfg.cls)) + ", seconds)");
  std::vector<std::string> header{"Benchmark/model"};
  for (int th : args.threads)
    if (th > 0) header.push_back(std::to_string(th));
  t.set_header(header);

  auto threads_row = [&](const char* name, RunResult (*fn)(const RunConfig&)) {
    std::vector<std::string> row{std::string(name) + " threads"};
    for (int th : args.threads) {
      if (th <= 0) continue;
      RunConfig cfg = args.cfg;
      cfg.mode = Mode::Native;
      cfg.threads = th;
      row.push_back(Table::cell(benchutil::timed_run(fn, cfg)));
    }
    t.add_row(row);
  };
  auto mpi_row = [&](const char* name, RunResult (*fn)(ProblemClass, int)) {
    std::vector<std::string> row{std::string(name) + " message-passing"};
    for (int th : args.threads) {
      if (th <= 0) continue;
      double secs = -1.0;
      try {
        const RunResult r = fn(args.cfg.cls, th);
        if (r.verified) {
          secs = r.seconds;
        } else {
          std::fprintf(stderr, "VERIFICATION FAILED: %s mpi ranks=%d\n%s\n", name,
                       th, r.verify_detail.c_str());
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s mpi ranks=%d skipped: %s\n", name, th, e.what());
      }
      row.push_back(Table::cell(secs));
    }
    t.add_row(row);
  };

  threads_row("FT", &run_ft);
  mpi_row("FT", &msg::run_ft_mpi);
  t.add_separator();
  threads_row("IS", &run_is);
  mpi_row("IS", &msg::run_is_mpi);
  t.add_separator();
  threads_row("EP", &run_ep);
  mpi_row("EP", &msg::run_ep_mpi);
  t.add_separator();
  threads_row("CG", &run_cg);
  mpi_row("CG", &msg::run_cg_mpi);

  std::fputs(t.render().c_str(), stdout);
  std::puts("\nMessage passing pays explicit pack/exchange/unpack (FT: two\n"
            "transposes per timestep; IS: a histogram allreduce per ranking)\n"
            "where the threaded translation reads shared arrays in place — the\n"
            "cost the javampi ports accepted for distributed-memory portability.");
  return 0;
}
