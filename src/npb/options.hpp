#pragma once

// The run options npbrun and the table benches share, as one table.  A row
// holds an option's npbrun flag and one apply() that parses, range-checks
// and stores a value.  parse_npbrun_args walks argv through the rows, and
// benchutil::parse applies the rows the table benches document.
// check_run_config holds the rules that span options.  Adding a run option
// is a RunConfig field plus one row (and its usage-text and README lines).

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "npb/run.hpp"

namespace npb::cli {

struct RunOption {
  /// npbrun spelling.  The bare "--flag" hands apply() "", and
  /// "--flag=VALUE" hands it VALUE, which is never empty.
  std::string_view flag;
  /// Parses `text`, range-checks it and stores it in `cfg`.  Returns "" on
  /// success, or a message naming the option, with `cfg` left as it was.
  std::string (*apply)(RunConfig& cfg, std::string_view text);
};

/// Every run option, one row each.
std::span<const RunOption> run_options();

/// The row whose flag `arg` spells ("--flag" or "--flag=..."), or nullptr.
const RunOption* find_flag(std::string_view arg);

/// Applies `arg`, which spells `row`'s flag, to `cfg`.  Returns "" or a
/// message; "--flag=" with nothing after the '=' is refused.
std::string apply_flag(const RunOption& row, std::string_view arg,
                       RunConfig& cfg);

/// The rows a front end applied.  The cross-field rules look at presence as
/// well as value: --procs=1 equals the default and still needs --mode=msg.
using GivenOptions = std::vector<const RunOption*>;

/// The rules that span options: the msg-only flags need --mode=msg, steal
/// is not allowed under msg, msg mode needs a benchmark with a msg driver,
/// and checkpointing needs a directory (or a resume file), a threaded
/// shared-memory NPB and, to resume, one named benchmark.  `which` is a
/// benchmark name or "all".  Returns "" or a message.
std::string check_run_config(const RunConfig& cfg, std::string_view which,
                             const GivenOptions& given);

/// Strict count: digits only, at most nine of them.  atoi-style silent
/// zeros ('--threads=two' -> 0) and overflow are refused.
std::optional<int> parse_count(std::string_view text);

}  // namespace npb::cli
