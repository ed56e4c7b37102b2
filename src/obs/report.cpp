#include "obs/report.hpp"

#include <cstdio>
#include <utility>

#include "common/json.hpp"

namespace npb::obs {
namespace {

template <class T>
json::Value array_of(const std::vector<T>& v) {
  return json::Value::Array(v.begin(), v.end());
}

json::Value counter_json(Unit unit, double value, std::uint64_t count,
                         const std::vector<double>& rank_value,
                         const std::vector<std::uint64_t>& rank_count) {
  return json::Value::Object{{"unit", unit_name(unit)},
                             {"value", value},
                             {"count", count},
                             {"rank_value", array_of(rank_value)},
                             {"rank_count", array_of(rank_count)}};
}

/// The snapshot part shared by a run entry and each of its shards.
json::Value snapshot_json(const Snapshot& s) {
  json::Value::Object counters;
  for (int id = 0; id < kReservedRegions; ++id) {
    const Counter& c = kCounters[id];
    const RankSlots& slots = s.slots(id);
    counters.emplace(c.path, counter_json(c.unit, s.*c.value, s.*c.count,
                                          slots.value, slots.count));
  }
  json::Value::Object regions;
  for (const RegionStats& st : s.regions)
    regions.emplace(st.name, counter_json(Unit::Seconds, st.seconds, st.count,
                                          st.rank_seconds, st.rank_count));
  return json::Value::Object{{"counters", std::move(counters)},
                             {"regions", std::move(regions)},
                             {"loop_imbalance", s.loop_imbalance()}};
}

}  // namespace

void ObsReport::add_run(std::string benchmark, std::string cls, std::string mode,
                        int threads, double seconds, Snapshot snap, int procs,
                        std::vector<ShardSnapshot> shards) {
  entries_.push_back(Entry{std::move(benchmark), std::move(cls), std::move(mode),
                           threads, seconds, std::move(snap), procs,
                           std::move(shards)});
}

std::string ObsReport::json() const {
  json::Value::Array runs;
  for (const Entry& en : entries_) {
    json::Value run = snapshot_json(en.snap);
    run["benchmark"] = en.benchmark;
    run["class"] = en.cls;
    run["mode"] = en.mode;
    run["threads"] = en.threads;
    run["seconds"] = en.seconds;
    if (en.procs > 0) run["procs"] = en.procs;
    if (!en.shards.empty()) {
      json::Value::Array shards;
      for (const ShardSnapshot& sh : en.shards) {
        json::Value shard = snapshot_json(sh.snap);
        shard["rank"] = sh.rank;
        shard["seconds"] = sh.seconds;
        shards.push_back(std::move(shard));
      }
      run["shards"] = std::move(shards);
    }
    runs.push_back(std::move(run));
  }
  return json::Value(json::Value::Object{{"schema_version", kSchemaVersion},
                                         {"runs", std::move(runs)}})
      .dump();
}

std::string ObsReport::csv() const {
  std::string out =
      "benchmark,class,mode,threads,run_seconds,region,unit,value,count\n";
  for (const Entry& en : entries_) {
    const std::string prefix = en.benchmark + ',' + en.cls + ',' + en.mode +
                               ',' + std::to_string(en.threads) + ',' +
                               json::number_to_string(en.seconds) + ',';
    auto row = [&](const std::string& region, std::string_view unit,
                   double value, std::uint64_t count) {
      out += prefix + region + ',';
      out += unit;
      out += ',' + json::number_to_string(value) + ',' +
             std::to_string(count) + '\n';
    };
    const Snapshot& s = en.snap;
    for (const Counter& c : kCounters)
      row(std::string(c.path), unit_name(c.unit), s.*c.value, s.*c.count);
    // Derived from team/loop_iters' per-rank slots, which the flat file
    // lacks, so schedule tables can read it here.
    row("team/loop_imbalance", "ratio", s.loop_imbalance(),
        s.loop_record_count);
    for (const RegionStats& st : s.regions)
      row(st.name, unit_name(Unit::Seconds), st.seconds, st.count);
    // One summary row per worker process of a hybrid run; the full per-shard
    // breakdown lives in the JSON emitter.
    for (const ShardSnapshot& sh : en.shards)
      row("shard/" + std::to_string(sh.rank), unit_name(Unit::Seconds),
          sh.seconds, 1);
  }
  return out;
}

bool ObsReport::write(const std::string& path) const {
  const bool as_csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  const std::string body = as_csv ? csv() : json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write report to '%s'\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "obs: short write to '%s'\n", path.c_str());
  return ok;
}

}  // namespace npb::obs
