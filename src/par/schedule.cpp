#include "par/schedule.hpp"

#include <cstdlib>

namespace npb {

const char* to_string(Schedule::Kind k) noexcept {
  switch (k) {
    case Schedule::Kind::Static: return "static";
    case Schedule::Kind::Dynamic: return "dynamic";
    case Schedule::Kind::Guided: return "guided";
  }
  return "static";
}

std::string to_string(const Schedule& s) {
  std::string out = to_string(s.kind);
  if (s.kind != Schedule::Kind::Static && s.chunk > 0) {
    out += ',';
    out += std::to_string(s.chunk);
  }
  return out;
}

std::optional<Schedule> parse_schedule(std::string_view spec) {
  std::string_view kind = spec;
  long chunk = 0;
  if (const auto comma = spec.find(','); comma != std::string_view::npos) {
    kind = spec.substr(0, comma);
    const std::string tail(spec.substr(comma + 1));
    char* end = nullptr;
    chunk = std::strtol(tail.c_str(), &end, 10);
    if (end == tail.c_str() || *end != '\0' || chunk <= 0) return std::nullopt;
  }
  if (kind == "static") {
    // A chunk makes no sense for the block partition.
    if (chunk > 0) return std::nullopt;
    return Schedule::static_();
  }
  if (kind == "dynamic") return Schedule::dynamic(chunk);
  if (kind == "guided") return Schedule::guided(chunk);
  return std::nullopt;
}

std::vector<Range> schedule_chunks(long lo, long hi, Schedule s, int nranks) {
  std::vector<Range> out;
  schedule_chunks_into(out, lo, hi, s, nranks);
  return out;
}

void schedule_chunks_into(std::vector<Range>& out, long lo, long hi,
                          Schedule s, int nranks) {
  out.clear();
  if (hi <= lo) return;
  if (nranks <= 0) nranks = 1;
  switch (s.kind) {
    case Schedule::Kind::Static:
      for (int r = 0; r < nranks; ++r) {
        const Range blk = partition(lo, hi, r, nranks);
        if (!blk.empty()) out.push_back(blk);
      }
      break;
    case Schedule::Kind::Dynamic: {
      const long chunk = resolved_chunk(s, hi - lo, nranks);
      for (long at = lo; at < hi; at += chunk)
        out.push_back({at, at + chunk < hi ? at + chunk : hi});
      break;
    }
    case Schedule::Kind::Guided: {
      const long min_chunk = resolved_chunk(s, hi - lo, nranks);
      for (long at = lo; at < hi;) {
        const long size = guided_next(hi - at, min_chunk, nranks);
        out.push_back({at, at + size});
        at += size;
      }
      break;
    }
  }
}

}  // namespace npb
