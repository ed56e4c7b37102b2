// Command-line suite driver (the analogue of NPB's run scripts): runs any
// benchmark at any configuration and prints a paper-style result block.
//
// Argument parsing lives in src/npb/cli.{hpp,cpp} (so the test suite can
// fuzz it in-process); this file is the thin I/O shell.  Exit status follows
// the taxonomy in npb/cli.hpp: 0 all runs verified, 1 a run failed
// verification, 2 malformed argument (strictly validated, never a silent
// default), 3 a run could not be carried out or recovered, 4 interrupted by
// SIGINT/SIGTERM at a step boundary with the final checkpoint and a partial
// obs report flushed (resumable with --resume).

#include <csignal>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "fault/retry.hpp"
#include "irr/irr.hpp"
#include "mem/mem.hpp"
#include "msg/msg_suite.hpp"
#include "npb/registry.hpp"
#include "npb/cli.hpp"
#include "obs/report.hpp"

namespace {

// SIGINT/SIGTERM ask the step runner for a clean stop (final checkpoint,
// partial obs report, exit 4).  The handler then restores the default
// disposition, so a second signal kills immediately — the escape hatch when
// a step is wedged.
extern "C" void on_interrupt_signal(int sig) {
  npb::ckpt::request_interrupt();
  std::signal(sig, SIG_DFL);
}

void usage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
  std::fputs(npb::cli::usage_text().c_str(), stderr);
  std::fputs("benchmarks:", stderr);
  for (const auto& b : npb::suite()) std::fprintf(stderr, " %s", b.name);
  std::fputs("\nirregular workloads (run by name; excluded from \"all\"):",
             stderr);
  for (const auto& b : npb::irr_suite()) std::fprintf(stderr, " %s", b.name);
  std::fputs("\n", stderr);
}

int run_benchmarks(const npb::cli::CliOptions& opts) {
  // msg mode dispatches through its own registry (EP/CG/FT/IS only; the CLI
  // has already rejected anything else with exit 2).
  const bool msg_mode = opts.cfg.mode == npb::Mode::Msg;
  const auto& table = msg_mode ? npb::msg::msg_suite() : npb::suite();
  const auto find = msg_mode ? &npb::msg::find_msg_benchmark : &npb::find_benchmark;
  std::vector<const npb::BenchmarkInfo*> todo;
  if (opts.which == "all" || opts.which == "ALL") {
    // "all" stays the classic NPB sweep; irregular workloads run by name.
    for (const auto& b : table) todo.push_back(&b);
  } else {
    for (const auto& b : table)
      if (find(opts.which) == b.fn) todo.push_back(&b);
    if (todo.empty() && !msg_mode)
      for (const auto& b : npb::irr_suite())
        if (npb::find_irr_benchmark(opts.which) == b.fn) todo.push_back(&b);
  }

  // One arena per invocation: "all" runs reuse same-shape buffers across
  // benchmarks instead of round-tripping through the OS allocator.
  npb::mem::Arena arena;
  const npb::mem::ScopedArena arena_scope(&arena);

  std::signal(SIGINT, &on_interrupt_signal);
  std::signal(SIGTERM, &on_interrupt_signal);
  npb::ckpt::clear_interrupt();

  // Adds the interrupted/failed benchmark's obs counters (ckpt/saved and
  // friends) to the report so a partial report still explains what happened.
  const auto add_partial = [&](npb::obs::ObsReport& report,
                               const npb::BenchmarkInfo* b) {
    if (opts.obs_report.empty()) return;
    report.add_run(b->name, npb::to_string(opts.cfg.cls),
                   npb::to_string(opts.cfg.mode), opts.cfg.threads, 0.0,
                   npb::obs::ObsRegistry::instance().snapshot(), 0, {});
  };

  npb::obs::ObsReport report;
  int failures = 0;
  int exit_code = npb::cli::kExitOk;
  for (const auto* b : todo) {
    try {
      const npb::RunResult r = opts.obs_report.empty()
                                   ? b->fn(opts.cfg)
                                   : npb::run_instrumented(b->fn, opts.cfg);
      if (!opts.obs_report.empty())
        report.add_run(r.name, npb::to_string(r.cls), npb::to_string(r.mode),
                       r.threads, r.seconds, r.obs, r.procs, r.shards);
      char procs_buf[32] = "";
      if (r.procs > 0)
        std::snprintf(procs_buf, sizeof(procs_buf), " procs=%d", r.procs);
      std::printf(
          "%-3s class=%s mode=%-6s threads=%-2d%s  %8.3fs  %10.1f Mop/s  %s\n",
          r.name.c_str(), npb::to_string(r.cls), npb::to_string(r.mode),
          r.threads, procs_buf, r.seconds, r.mops,
          r.verified ? "VERIFICATION SUCCESSFUL" : "VERIFICATION FAILED");
      if (opts.verbose || !r.verified)
        std::fputs(r.verify_detail.c_str(), stdout);
      if (!r.verified) ++failures;
    } catch (const npb::ckpt::Interrupted& e) {
      std::fprintf(stderr, "%s: %s\n", b->name, e.what());
      add_partial(report, b);
      exit_code = npb::cli::kExitInterrupted;
      break;
    } catch (const npb::fault::RecoveryExhausted& e) {
      std::fprintf(stderr, "%s: recovery exhausted: %s\n", b->name, e.what());
      add_partial(report, b);
      exit_code = npb::cli::kExitUnrecoverable;
      break;
    } catch (const npb::ckpt::CkptError& e) {
      std::fprintf(stderr, "%s: checkpoint error: %s\n", b->name, e.what());
      add_partial(report, b);
      exit_code = npb::cli::kExitUnrecoverable;
      break;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", b->name, e.what());
      add_partial(report, b);
      exit_code = npb::cli::kExitUnrecoverable;
      break;
    }
  }
  if (!opts.obs_report.empty() && report.write(opts.obs_report))
    std::fprintf(stderr, "obs report (%zu runs%s) -> %s\n", report.size(),
                 exit_code == npb::cli::kExitOk ? "" : ", partial",
                 opts.obs_report.c_str());
  if (exit_code != npb::cli::kExitOk) return exit_code;
  return failures == 0 ? npb::cli::kExitOk : npb::cli::kExitVerifyFailed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto opts = npb::cli::parse_npbrun_args(argc, argv, &error);
  if (!opts) {
    usage(error);
    return npb::cli::kExitUsage;
  }
  return run_benchmarks(*opts);
}
