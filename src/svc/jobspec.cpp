#include "svc/jobspec.hpp"

#include "irr/irr.hpp"
#include "npb/registry.hpp"
#include "svc/options.hpp"

namespace npb::svc {
namespace {

/// Applies one job key's value through its row: checks the JSON type the
/// row names, then hands apply() the value's text form.  Returns "" or a
/// message naming the key.
std::string apply_key(const RunOption& row, const json::Value& v,
                      RunConfig& cfg) {
  const std::string key = "key \"" + std::string(row.key) + "\"";
  const auto apply = [&](std::string_view text) {
    const std::string err = row.apply(cfg, text);
    return err.empty() ? err : key + ": " + err;
  };
  switch (row.type) {
    case JsonType::String:
      if (!v.is_string()) return key + " must be a string";
      return apply(v.as_string());
    case JsonType::Integer:
      if (!v.is_int()) return key + " must be an integer";
      return apply(std::to_string(v.as_int()));
    case JsonType::OnOff:
      if (!v.is_bool()) return key + " must be a boolean";
      return apply(v.as_bool() ? "on" : "off");
    case JsonType::Switch:
      if (!v.is_bool()) return key + " must be a boolean";
      return v.as_bool() ? apply("") : std::string();
    case JsonType::StringList:
      if (!v.is_array()) return key + " must be an array of strings";
      for (const json::Value& item : v.items()) {
        // One value per item: the comma list is the flag's spelling only.
        if (!item.is_string() || item.as_string().find(',') != std::string::npos)
          return key + " must be an array of strings, one value each";
        if (const std::string err = apply(item.as_string()); !err.empty())
          return err;
      }
      return {};
  }
  return {};
}

/// Reads one job object into `spec`; returns "" or what is wrong with it.
std::string read_job_spec(const json::Value& v, JobSpec& spec) {
  if (!v.is_object()) return "job spec must be a JSON object";
  GivenOptions given;
  for (const auto& [key, val] : v.entries()) {
    if (key == "id" || key == "benchmark") {
      if (!val.is_string()) return "key \"" + key + "\" must be a string";
      (key == "id" ? spec.id : spec.benchmark) = val.as_string();
    } else if (const RunOption* row = find_key(key)) {
      if (std::string err = apply_key(*row, val, spec.cfg); !err.empty())
        return err;
      given.push_back(row);
    } else {
      return "unknown key \"" + key + "\"";
    }
  }
  if (v.find("benchmark") == nullptr)
    return "missing required key \"benchmark\"";
  if (find_benchmark(spec.benchmark) == nullptr &&
      find_irr_benchmark(spec.benchmark) == nullptr)
    return "unknown benchmark \"" + spec.benchmark + "\"";
  // The service's own rule: a job runs on pooled threads of this process.
  if (spec.cfg.mode == Mode::Msg)
    return "mode \"msg\" is not schedulable as a service job (it forks "
           "worker processes; run it via npbrun --mode=msg instead)";
  return check_run_config(spec.cfg, spec.benchmark, given);
}

}  // namespace

std::optional<JobSpec> parse_job_spec(const json::Value& v,
                                      std::string* error) {
  JobSpec spec;
  const std::string err = read_job_spec(v, spec);
  if (err.empty()) return spec;
  if (error != nullptr) *error = err;
  return std::nullopt;
}

std::optional<std::vector<JobSpec>> parse_job_stream(const std::string& text,
                                                     std::string* error) {
  std::vector<JobSpec> specs;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string line = text.substr(
        pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::string err;
    const auto doc = json::parse(line, &err);
    if (!doc) {
      if (error != nullptr)
        *error = "line " + std::to_string(line_no) + ": " + err;
      return std::nullopt;
    }
    auto spec = parse_job_spec(*doc, &err);
    if (!spec) {
      if (error != nullptr)
        *error = "line " + std::to_string(line_no) + ": " + err;
      return std::nullopt;
    }
    if (spec->id.empty()) spec->id = "job-" + std::to_string(line_no);
    specs.push_back(std::move(*spec));
  }
  return specs;
}

}  // namespace npb::svc
