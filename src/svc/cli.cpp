#include "svc/cli.hpp"

#include <cstring>

#include "irr/irr.hpp"
#include "npb/registry.hpp"
#include "svc/options.hpp"

namespace npb::svc {
namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// "1,2,2,3" -> {1,2,2,3}; widths 0..32 (0 = a serial slot).
bool parse_pool_widths(const char* s, std::vector<int>& out,
                       std::string* error) {
  out.clear();
  std::string tok;
  for (const char* p = s;; ++p) {
    if (*p != '\0' && *p != ',') {
      tok += *p;
      continue;
    }
    const auto w = parse_count(tok);
    if (!w || *w > 32)
      return fail(error,
                  "bad pool width '" + tok + "' (want 0..32, comma-separated)");
    out.push_back(*w);
    tok.clear();
    if (*p == '\0') break;
  }
  return !out.empty();
}

bool parse_serve_args(int argc, const char* const* argv, CliOptions& opts,
                      std::string* error) {
  opts.action = CliOptions::Action::Serve;
  const char* first = argv[1];
  if (std::strncmp(first, "--serve=", 8) == 0) opts.serve_input = first + 8;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--pool=", 7) == 0) {
      if (!parse_pool_widths(a + 7, opts.pool_widths, error)) {
        if (error != nullptr && error->empty())
          *error = "bad pool spec '" + std::string(a + 7) + "'";
        return false;
      }
    } else if (std::strncmp(a, "--queue-cap=", 12) == 0) {
      const auto v = parse_count(a + 12);
      if (!v || *v < 1)
        return fail(error, "bad queue capacity '" + std::string(a + 12) +
                               "' (want a number >= 1)");
      opts.queue_capacity = static_cast<std::size_t>(*v);
    } else if (std::strncmp(a, "--service-report=", 17) == 0) {
      opts.service_report = a + 17;
    } else if (std::strcmp(a, "--verbose") == 0) {
      opts.verbose = true;
    } else {
      return fail(error, "unknown --serve argument '" + std::string(a) + "'");
    }
  }
  return true;
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
      "       npbrun --serve[=JOBS.ndjson] [--pool=W,W,...] [--queue-cap=N]\n"
      "              [--service-report=FILE] [--verbose]\n"
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
      "not run or recover, 4 interrupted but checkpointed (resumable).\n"
      "--serve reads one JSON job spec per line (file or stdin), runs them\n"
      "concurrently on a pooled team runtime, and emits a service JSON\n"
      "(per-job results + latency/utilization aggregates).\n";
}

std::optional<CliOptions> parse_npbrun_args(int argc, const char* const* argv,
                                            std::string* error) {
  if (error != nullptr) error->clear();
  if (argc < 2) {
    fail(error, "");
    return std::nullopt;
  }
  CliOptions opts;

  if (std::strcmp(argv[1], "--serve") == 0 ||
      std::strncmp(argv[1], "--serve=", 8) == 0) {
    if (!parse_serve_args(argc, argv, opts, error)) return std::nullopt;
    return opts;
  }

  opts.which = argv[1];
  if (opts.which != "all" && opts.which != "ALL" &&
      find_benchmark(opts.which) == nullptr &&
      find_irr_benchmark(opts.which) == nullptr) {
    fail(error, "unknown benchmark '" + opts.which + "'");
    return std::nullopt;
  }
  GivenOptions given;
  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--verbose") {
      opts.verbose = true;
    } else if (a.starts_with("--obs-report=")) {
      opts.obs_report = a.substr(13);
    } else if (const RunOption* row = find_flag(a)) {
      if (const std::string err = apply_flag(*row, a, opts.cfg); !err.empty()) {
        fail(error, err);
        return std::nullopt;
      }
      given.push_back(row);
    } else {
      fail(error, "unknown argument '" + std::string(a) + "'");
      return std::nullopt;
    }
  }
  if (const std::string err = check_run_config(opts.cfg, opts.which, given);
      !err.empty()) {
    fail(error, err);
    return std::nullopt;
  }
  return opts;
}

}  // namespace npb::svc
