#pragma once

// Machine-readable emitters for obs snapshots.  One ObsReport collects the
// snapshots of many benchmark runs (one per table row, typically) and
// serializes them as JSON ({"schema_version": 2, "runs": [...]}) or CSV (one
// line per counter and region per run).  Both emitters walk the kCounters
// table, so every reserved counter appears with its unit.  Always compiled —
// with NPB_OBS_DISABLED the snapshots it receives are simply empty.

#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace npb::obs {

/// Version of the JSON report layout; bumped on any incompatible change.
inline constexpr int kSchemaVersion = 2;

class ObsReport {
 public:
  /// Appends one run's snapshot, tagged the way bench tables tag rows.
  /// Hybrid shm runs additionally pass the shard count (`procs`) and the
  /// per-process snapshots shipped back over the result pipes; those merge
  /// into the same entry so one report row carries every process.
  void add_run(std::string benchmark, std::string cls, std::string mode,
               int threads, double seconds, Snapshot snap, int procs = 0,
               std::vector<ShardSnapshot> shards = {});

  /// {"schema_version":2,"runs":[{benchmark, class, mode, threads, seconds,
  ///     counters:{<kCounters path>:COUNTER}, regions:{<name>:COUNTER},
  ///     loop_imbalance}]}, where COUNTER is {unit, value, count,
  ///     rank_value, rank_count} and the rank arrays are slots (slot 0 the
  ///     master, slot r+1 rank r).  Hybrid entries also carry "procs" and a
  ///     "shards" array with one {rank, seconds, counters, regions,
  ///     loop_imbalance} per worker process.  Keys are sorted.
  std::string json() const;

  /// Header + one row per (run, counter or region), each with its unit, so
  /// the flat file is self-contained.
  std::string csv() const;

  /// Writes json() — or csv() when `path` ends in ".csv" — to `path`.
  /// Returns false (with a stderr note) when the file cannot be written.
  bool write(const std::string& path) const;

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::string benchmark, cls, mode;
    int threads = 0;
    double seconds = 0.0;
    Snapshot snap;
    int procs = 0;
    std::vector<ShardSnapshot> shards;
  };
  std::vector<Entry> entries_;
};

}  // namespace npb::obs
