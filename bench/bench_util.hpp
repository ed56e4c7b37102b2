#pragma once

// Shared argument handling for the paper-table bench binaries.  Every table
// bench accepts:
//   --class=S|W|A|B|C        problem class (default S so the whole bench
//                            directory runs in minutes on a laptop; the
//                            paper reports class A — pass --class=A to
//                            regenerate at full size)
//   --threads=0,1,2,4        thread counts; 0 means the serial code path
//   --warmup                 enable the paper's CG thread warm-up fix
//   --schedule=SPEC          loop schedule for CG/IS/MG/EP threaded loops:
//                            static | dynamic[,CHUNK] | guided[,MIN_CHUNK]
//   --mem-align=BYTES        allocation alignment (power of two, K/M suffix)
//   --first-touch            initialize large arrays on the worker team
//   --huge-pages             2 MiB page hint for buffers that large
//   --obs-report=FILE        write an observability report of every run to
//                            FILE (JSON, or CSV when FILE ends in .csv)
// plus NPB_CLASS / NPB_THREADS environment variables as fallbacks.  A bad
// value or an unknown flag is reported on stderr and ignored.

#include <string>
#include <vector>

#include "npb/run.hpp"
#include "obs/report.hpp"

namespace npb::benchutil {

struct Args {
  /// What the run-option flags above set (class, warm-up, schedule, memory
  /// policy), through npbrun's own rows (npb/options.hpp).  Every table
  /// bench starts its runs from this config.
  RunConfig cfg;
  std::vector<int> threads{0, 1, 2};
  std::string obs_report;  ///< empty = no report
};

Args parse(int argc, char** argv, Args defaults = {});

/// "BT.A" style row label.
std::string label(const std::string& name, ProblemClass cls);

/// Runs one config and returns seconds, or -1 with a stderr note when the
/// run fails verification (so tables show "-" rather than silent bad data).
/// When `report` is non-null the run is instrumented and its region/team
/// snapshot is appended to the report.
double timed_run(RunResult (*fn)(const RunConfig&), const RunConfig& cfg,
                 obs::ObsReport* report = nullptr);

/// Writes `report` to args.obs_report if one was requested; prints the
/// destination to stderr so table output stays clean.
void maybe_write_report(const Args& args, const obs::ObsReport& report);

}  // namespace npb::benchutil
