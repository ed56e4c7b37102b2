#pragma once

// Job requests for the benchmark service: one JSON object per line
// (newline-delimited JSON), each naming a benchmark plus the run options
// npbrun's flags set.  The keys besides "id" and "benchmark" are the job
// keys of the run-option table (svc/options.hpp), which also names the JSON
// type each takes; the README's flag table lists them beside their flags.
// Parsing is strict: an unknown key, a wrong type, an invalid value or a
// combination npbrun would refuse is an error naming the problem, never a
// silently defaulted job.  Example:
//
//   {"id":"j7","benchmark":"mg","class":"S","threads":3,"schedule":"guided"}
//
// "id" defaults to "job-<line>"; "threads" 0 runs the serial path.

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "npb/run.hpp"

namespace npb::svc {

struct JobSpec {
  std::string id;
  std::string benchmark;  ///< registry name (case-insensitive, e.g. "cg")
  RunConfig cfg;          ///< cfg.team is assigned by the scheduler, not here
};

/// Parses one job object.  On failure returns nullopt and sets `error`.
std::optional<JobSpec> parse_job_spec(const json::Value& v, std::string* error);

/// Parses newline-delimited JSON job specs (blank lines and `#` comment
/// lines skipped).  All-or-nothing: any malformed line fails the whole batch
/// with an error naming the line number, so a service load file can never
/// half-run.
std::optional<std::vector<JobSpec>> parse_job_stream(const std::string& text,
                                                     std::string* error);

}  // namespace npb::svc
