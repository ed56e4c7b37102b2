#pragma once

// npbrun's argument parsing, as a library function so tests can hammer it
// in-process (the fuzz battery in test_cli feeds it random malformed flags
// and asserts it always rejects with a message, never crashes, and never
// returns a half-parsed config).  npbrun's main() is a thin shell over this.
// The run flags are the rows of the run-option table (npb/options.hpp).

#include <optional>
#include <string>

#include "npb/run.hpp"

namespace npb::cli {

/// npbrun's exit-code taxonomy, pinned by test_cli and documented in the
/// README.  Wrappers and CI distinguish "the numbers were wrong" (1) from
/// "the run could not be carried out" (3) from "interrupted but resumable"
/// (4); a usage error (2) never starts a run at all.
inline constexpr int kExitOk = 0;
inline constexpr int kExitVerifyFailed = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitUnrecoverable = 3;
inline constexpr int kExitInterrupted = 4;

struct CliOptions {
  std::string which;  ///< benchmark name or "all" (validated against suite())
  RunConfig cfg;
  bool verbose = false;
  std::string obs_report;
};

/// Usage text (the same block main() prints on error), without the trailing
/// benchmark list.
std::string usage_text();

/// Parses the full argv.  nullopt on any malformed input with `*error` set
/// to a one-line message (empty when the problem is just "no arguments").
/// Every flag value is validated strictly; there is no partial success.
std::optional<CliOptions> parse_npbrun_args(int argc, const char* const* argv,
                                            std::string* error);

}  // namespace npb::cli
