#include "npb/options.hpp"

#include <algorithm>

#include "common/classes.hpp"
#include "fault/options.hpp"
#include "irr/irr.hpp"
#include "mem/options.hpp"
#include "msg/msg_suite.hpp"
#include "msg/options.hpp"
#include "par/schedule.hpp"

namespace npb::cli {

std::optional<int> parse_count(std::string_view text) {
  if (text.empty() || text.size() > 9) return std::nullopt;
  int v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + (c - '0');
  }
  return v;
}

namespace {

using Text = std::string_view;

/// "" when `ok`, else the message for a rejected value: "bad WHAT 'TEXT'".
std::string unless_bad(bool ok, const char* what, Text text, Text hint = "") {
  if (ok) return {};
  return (std::string("bad ") + what + " '").append(text).append("'").append(
      hint);
}

/// "" for the bare switch `flag`; a value after it is refused.
std::string no_value(const char* flag, Text text) {
  return text.empty() ? "" : std::string(flag) + " takes no value";
}

const RunOption kRows[] = {
    {"--class",
     [](RunConfig& cfg, Text t) {
       const auto c = parse_class(t);
       if (c) cfg.cls = *c;
       return unless_bad(c.has_value(), "class", t);
     }},
    {"--mode",
     [](RunConfig& cfg, Text t) {
       const auto m = parse_mode(t);
       if (m) cfg.mode = *m;
       return unless_bad(m.has_value(), "mode", t,
                         " (want native, java, vec or msg)");
     }},
    {"--procs",
     [](RunConfig& cfg, Text t) {
       const auto v = parse_count(t);
       const bool ok = v && *v >= 1 && *v <= msg::kMaxShmProcs;
       if (ok) cfg.msg.procs = *v;
       return unless_bad(ok, "proc count", t,
                         " (want 1.." + std::to_string(msg::kMaxShmProcs) + ")");
     }},
    {"--transport",
     [](RunConfig& cfg, Text t) {
       const auto k = msg::parse_transport(t);
       if (k) cfg.msg.transport = *k;
       return unless_bad(k.has_value(), "transport", t,
                         " (want inproc or shm)");
     }},
    {"--runtime",
     [](RunConfig& cfg, Text t) {
       const auto rt = parse_runtime(t);
       if (rt) cfg.runtime = *rt;
       return unless_bad(rt.has_value(), "runtime", t, " (want spmd or steal)");
     }},
    {"--threads",
     [](RunConfig& cfg, Text t) {
       const auto v = parse_count(t);
       if (v) cfg.threads = *v;
       return unless_bad(v.has_value(), "thread count", t,
                         " (want a number >= 0)");
     }},
    {"--barrier",
     [](RunConfig& cfg, Text t) {
       const bool ok = t == "spin" || t == "condvar";
       if (ok) cfg.barrier = t == "spin" ? BarrierKind::SpinSense
                                        : BarrierKind::CondVar;
       return unless_bad(ok, "barrier", t, " (want condvar or spin)");
     }},
    {"--warmup",
     [](RunConfig& cfg, Text t) {
       if (t.empty()) cfg.warmup_spins = kWarmupSpins;
       return no_value("--warmup", t);
     }},
    {"--schedule",
     [](RunConfig& cfg, Text t) {
       const auto s = parse_schedule(t);
       if (s) cfg.schedule = *s;
       return unless_bad(s.has_value(), "schedule", t,
                         " (want static, dynamic[,CHUNK] or guided[,MIN_CHUNK])");
     }},
    {"--fused",
     [](RunConfig& cfg, Text t) {
       const bool ok = t == "on" || t == "off";
       if (ok) cfg.fused = t == "on";
       return unless_bad(ok, "fused value", t, " (want on or off)");
     }},
    {"--mem-align",
     [](RunConfig& cfg, Text t) {
       const auto al = mem::parse_alignment(t);
       if (al) cfg.mem.alignment = *al;
       return unless_bad(al.has_value(), "alignment", t,
                         " (want a power of two)");
     }},
    {"--first-touch",
     [](RunConfig& cfg, Text t) {
       if (t.empty()) cfg.mem.placement = mem::Placement::FirstTouch;
       return no_value("--first-touch", t);
     }},
    {"--huge-pages",
     [](RunConfig& cfg, Text t) {
       if (t.empty()) cfg.mem.huge_pages = true;
       return no_value("--huge-pages", t);
     }},
    // One spec, or a comma-separated list (a spec's own grammar is all
    // colons, so the comma is unambiguous).  Strict: any malformed entry,
    // including an empty one from a stray comma, rejects the whole value.
    {"--fault-spec",
     [](RunConfig& cfg, Text t) -> std::string {
       std::vector<fault::FaultSpec> specs;
       for (std::size_t start = 0, end = 0; end != Text::npos;
            start = end + 1) {
         end = t.find(',', start);
         const Text one = t.substr(start, end - start);
         const auto spec = fault::parse_fault_spec(one);
         if (!spec)
           return unless_bad(false, "fault spec", one,
                             "\n(want SITE:KIND:STEP:RANK:SEED[:persist], e.g. "
                             "region:throw:3:1:0 or barrier:delay(50):*:0:2;\n"
                             " nan-poison requires site reduce, alloc-fail site "
                             "alloc, kill site proc,\n corrupt site ckpt or "
                             "proc; several specs may be comma-separated)");
         specs.push_back(*spec);
       }
       cfg.fault.specs.insert(cfg.fault.specs.end(), specs.begin(),
                              specs.end());
       return {};
     }},
    {"--watchdog-ms",
     [](RunConfig& cfg, Text t) {
       const auto v = parse_count(t);
       if (v) cfg.fault.watchdog_ms = *v;
       return unless_bad(v.has_value(), "watchdog timeout", t,
                         " (want ms >= 0)");
     }},
    {"--max-retries",
     [](RunConfig& cfg, Text t) {
       const auto v = parse_count(t);
       if (v) cfg.fault.max_retries = *v;
       return unless_bad(v.has_value(), "retry count", t,
                         " (want a number >= 0)");
     }},
    {"--backoff-ms",
     [](RunConfig& cfg, Text t) {
       const auto v = parse_count(t);
       if (v) cfg.fault.backoff_ms = *v;
       return unless_bad(v.has_value(), "backoff", t, " (want ms >= 0)");
     }},
    {"--no-degrade",
     [](RunConfig& cfg, Text t) {
       if (t.empty()) cfg.fault.allow_degraded = false;
       return no_value("--no-degrade", t);
     }},
    {"--ckpt-dir",
     [](RunConfig& cfg, Text t) -> std::string {
       if (t.empty()) return "--ckpt-dir needs a directory path";
       cfg.ckpt.dir = t;
       return {};
     }},
    {"--ckpt-every",
     [](RunConfig& cfg, Text t) {
       const auto v = parse_count(t);
       const bool ok = v && *v >= 1;
       if (ok) cfg.ckpt.every = *v;
       return unless_bad(ok, "checkpoint cadence", t,
                         " (want a step count >= 1)");
     }},
    // Bare: resume from the file --ckpt-dir names; =PATH: from PATH.
    {"--resume",
     [](RunConfig& cfg, Text t) {
       cfg.ckpt.resume = true;
       if (!t.empty()) cfg.ckpt.resume_path = t;
       return std::string();
     }},
};

}  // namespace

std::span<const RunOption> run_options() { return kRows; }

const RunOption* find_flag(std::string_view arg) {
  for (const RunOption& row : kRows)
    if (arg.starts_with(row.flag) &&
        (arg.size() == row.flag.size() || arg[row.flag.size()] == '='))
      return &row;
  return nullptr;
}

std::string apply_flag(const RunOption& row, std::string_view arg,
                       RunConfig& cfg) {
  std::string_view text = arg.substr(row.flag.size());
  if (!text.empty()) {
    text.remove_prefix(1);  // the '='
    if (text.empty()) return std::string(row.flag) + "= needs a value";
  }
  return row.apply(cfg, text);
}

std::string check_run_config(const RunConfig& cfg, std::string_view which,
                             const GivenOptions& given) {
  const auto gave = [&](std::string_view flag) {
    return std::any_of(given.begin(), given.end(),
                       [&](const RunOption* row) { return row->flag == flag; });
  };
  const bool all = which == "all" || which == "ALL";
  if ((gave("--procs") || gave("--transport")) && cfg.mode != Mode::Msg)
    return "--procs/--transport require --mode=msg";
  // The msg drivers dispatch ranks through the Transport layer, which has no
  // task personality: a steal request there would silently run spmd.
  if (cfg.runtime == Runtime::Steal && cfg.mode == Mode::Msg)
    return "--runtime=steal is incompatible with --mode=msg (the "
           "message-passing drivers have no task runtime)";
  if (cfg.mode == Mode::Msg && !all && msg::find_msg_benchmark(which) == nullptr)
    return "benchmark '" + std::string(which) +
           "' has no message-passing driver (msg mode runs EP, CG, FT or IS)";

  // Durable checkpointing only exists where a StepRunner runs: a threaded
  // shared-memory NPB.  Reject the silent no-op combinations up front.
  const bool every = gave("--ckpt-every");
  if (cfg.ckpt.dir.empty() && !cfg.ckpt.resume && !every) return {};
  if (every && cfg.ckpt.dir.empty()) return "--ckpt-every requires --ckpt-dir";
  if (cfg.ckpt.resume && cfg.ckpt.resume_path.empty() && cfg.ckpt.dir.empty())
    return "--resume needs --ckpt-dir to locate the checkpoint (or an "
           "explicit --resume=PATH)";
  if (cfg.threads < 1)
    return "checkpointing requires a threaded run (--threads=N with N >= 1); "
           "the serial path has no step runner";
  if (cfg.mode == Mode::Msg)
    return "checkpointing is incompatible with --mode=msg (shards carry "
           "their state in per-process memory)";
  if (find_irr_benchmark(which) != nullptr)
    return "checkpointing is not supported for the irregular workloads (run "
           "one of the eight NPBs)";
  if (cfg.ckpt.resume && all)
    return "--resume needs a single named benchmark, not 'all' (one "
           "checkpoint file describes one run)";
  return {};
}

}  // namespace npb::cli
