#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "npb/options.hpp"
#include "npb/registry.hpp"

namespace npb::benchutil {
namespace {

std::vector<int> parse_threads(const char* spec) {
  std::vector<int> out;
  const char* p = spec;
  while (*p != '\0') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    out.push_back(static_cast<int>(v));
    p = *end == ',' ? end + 1 : end;
  }
  return out;
}

}  // namespace

Args parse(int argc, char** argv, Args defaults) {
  // The run-option rows the table benches take, out of npbrun's table.
  constexpr std::string_view kBenchFlags[] = {
      "--class",     "--warmup",      "--schedule",
      "--mem-align", "--first-touch", "--huge-pages"};
  Args a = defaults;
  if (const char* env = std::getenv("NPB_CLASS")) {
    if (const auto c = parse_class(env)) a.cfg.cls = *c;
  }
  if (const char* env = std::getenv("NPB_THREADS")) {
    const auto t = parse_threads(env);
    if (!t.empty()) a.threads = t;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const cli::RunOption* row = cli::find_flag(arg);
    if (arg.starts_with("--threads=")) {
      const auto t = parse_threads(argv[i] + 10);
      if (!t.empty()) a.threads = t;
    } else if (arg.starts_with("--obs-report=")) {
      a.obs_report = arg.substr(13);
    } else if (row != nullptr && std::find(std::begin(kBenchFlags),
                                           std::end(kBenchFlags),
                                           row->flag) != std::end(kBenchFlags)) {
      if (const std::string err = cli::apply_flag(*row, arg, a.cfg);
          !err.empty())
        std::fprintf(stderr, "ignoring %s: %s\n", argv[i], err.c_str());
    } else {
      std::fprintf(stderr, "ignoring unknown argument '%s'\n", argv[i]);
    }
  }
  return a;
}

std::string label(const std::string& name, ProblemClass cls) {
  return name + "." + to_string(cls);
}

double timed_run(RunResult (*fn)(const RunConfig&), const RunConfig& cfg,
                 obs::ObsReport* report) {
  const RunResult r =
      report != nullptr ? run_instrumented(fn, cfg) : fn(cfg);
  if (report != nullptr)
    report->add_run(r.name, to_string(r.cls), to_string(r.mode), r.threads,
                    r.seconds, r.obs);
  if (!r.verified) {
    std::fprintf(stderr, "VERIFICATION FAILED: %s.%s %s threads=%d\n%s\n",
                 r.name.c_str(), to_string(r.cls), to_string(r.mode), r.threads,
                 r.verify_detail.c_str());
    return -1.0;
  }
  return r.seconds;
}

void maybe_write_report(const Args& args, const obs::ObsReport& report) {
  if (args.obs_report.empty()) return;
  if (report.write(args.obs_report))
    std::fprintf(stderr, "obs report (%zu runs) -> %s\n", report.size(),
                 args.obs_report.c_str());
}

}  // namespace npb::benchutil
