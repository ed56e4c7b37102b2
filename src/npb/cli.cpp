#include "npb/cli.hpp"

#include "irr/irr.hpp"
#include "npb/options.hpp"
#include "npb/registry.hpp"

namespace npb::cli {
namespace {

std::nullopt_t fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return std::nullopt;
}

}  // namespace

std::string usage_text() {
  return
      "usage: npbrun <benchmark|all> [--class=S|W|A|B|C]\n"
      "              [--mode=native|java|vec|msg] [--procs=P] [--transport=inproc|shm]\n"
      "              [--runtime=spmd|steal] [--threads=N]\n"
      "              [--barrier=condvar|spin] [--warmup] [--verbose]\n"
      "              [--schedule=static|dynamic[,CHUNK]|guided[,MIN_CHUNK]]\n"
      "              [--fused=on|off] [--mem-align=BYTES] [--first-touch]\n"
      "              [--huge-pages] [--fault-spec=SPEC] [--watchdog-ms=N]\n"
      "              [--max-retries=N] [--backoff-ms=N] [--no-degrade]\n"
      "              [--ckpt-dir=DIR] [--ckpt-every=N] [--resume[=PATH]]\n"
      "              [--obs-report=FILE]\n"
      "--mem-align takes a power of two (K/M suffixes allowed); --first-touch\n"
      "initializes large arrays on the worker team with the compute schedule;\n"
      "--huge-pages requests 2 MiB pages for buffers that large (Linux hint).\n"
      "--schedule picks the loop schedule for CG/IS/MG/EP threaded loops\n"
      "(pseudo-apps keep static slabs); dynamic/guided default CHUNK to\n"
      "n/(16*threads) and MIN_CHUNK to 1.\n"
      "--mode=msg runs the message-passing drivers (EP, CG, FT, IS only) as a\n"
      "hybrid P-shard x N-thread job: --procs=P (1..16) picks the shard count\n"
      "and --transport picks what carries them — inproc (default; ranks are\n"
      "threads of this process) or shm (ranks are forked worker processes over\n"
      "lock-free shared-memory rings, with per-shard obs merged into the\n"
      "report and dead shards blamed under fault/lost_shard before the run\n"
      "degrades to a narrower width).  Both flags require --mode=msg.\n"
      "--runtime picks the parallel personality of the team threads: spmd\n"
      "(default) is the chunk-queue SPMD translation, steal arms the\n"
      "work-stealing task runtime — which only changes execution for the\n"
      "irregular workloads (SORT, KNN, GETRF; run them by name); the regular\n"
      "NPBs accept either value and run identically.  steal results verify by\n"
      "invariants, not bit-identity, and are incompatible with --mode=msg.\n"
      "--fused=on (default) runs each time step as one fused SPMD region;\n"
      "--fused=off restores one fork/join per parallel loop (checksums are\n"
      "bit-identical either way for a fixed schedule and thread count).\n"
      "--fault-spec injects deterministic faults (repeatable, and one flag\n"
      "may carry several comma-separated SPECs); SPEC is\n"
      "SITE:KIND:STEP:RANK:SEED[:persist] with SITE one of\n"
      "barrier|region|collective|queue|reduce|alloc|proc|steal|ckpt|*, KIND\n"
      "one of throw|delay(MS)|nan-poison|alloc-fail|kill|corrupt, STEP/RANK a\n"
      "number or *, and SEED the 0-based crossing of the site the fault fires\n"
      "on (kill needs site proc; corrupt needs site ckpt or proc).  Recovery:\n"
      "--max-retries per-step retries from checkpoint (default 3) with\n"
      "--backoff-ms linear backoff (default 1), then team-shrink degradation\n"
      "unless --no-degrade.  --watchdog-ms aborts a barrier stuck longer than\n"
      "N ms so the step retries instead of hanging.\n"
      "--ckpt-dir enables durable checkpointing: every Nth step\n"
      "(--ckpt-every, default 1) the in-memory restart checkpoint is written\n"
      "to DIR/<BENCH>-<CLASS>.ckpt — CRC32C-sealed, fsynced, atomically\n"
      "renamed.  --resume (with --ckpt-dir, or --resume=PATH) validates the\n"
      "file end-to-end and continues the named benchmark from the saved step;\n"
      "the result must verify exactly as an uninterrupted run.  SIGINT or\n"
      "SIGTERM flushes a final checkpoint plus the partial obs report first.\n"
      "Exit codes: 0 verified, 1 verification failed, 2 usage error, 3 could\n"
      "not run or recover, 4 interrupted but checkpointed (resumable).\n";
}

std::optional<CliOptions> parse_npbrun_args(int argc, const char* const* argv,
                                            std::string* error) {
  if (error != nullptr) error->clear();
  if (argc < 2) return fail(error, "");
  CliOptions opts;
  opts.which = argv[1];
  if (opts.which != "all" && opts.which != "ALL" &&
      find_benchmark(opts.which) == nullptr &&
      find_irr_benchmark(opts.which) == nullptr)
    return fail(error, "unknown benchmark '" + opts.which + "'");
  GivenOptions given;
  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--verbose") {
      opts.verbose = true;
    } else if (a.starts_with("--obs-report=")) {
      opts.obs_report = a.substr(13);
    } else if (const RunOption* row = find_flag(a)) {
      if (const std::string err = apply_flag(*row, a, opts.cfg); !err.empty())
        return fail(error, err);
      given.push_back(row);
    } else {
      return fail(error, "unknown argument '" + std::string(a) + "'");
    }
  }
  if (const std::string err = check_run_config(opts.cfg, opts.which, given);
      !err.empty())
    return fail(error, err);
  return opts;
}

}  // namespace npb::cli
