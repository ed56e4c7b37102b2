#include "msg/shard.hpp"

#include <stdexcept>
#include <string>

#include "fault/fault.hpp"

namespace npb::msg {

HybridOutcome run_hybrid(const RunConfig& cfg,
                         const std::function<bool(int)>& width_ok,
                         const ShardBody& body) {
  int width = cfg.msg.procs;
  if (width < 1)
    throw std::invalid_argument("msg: procs must be >= 1");
  if (!width_ok(width))
    throw std::invalid_argument("msg: unsupported rank count " +
                                std::to_string(width));

  if (cfg.msg.transport == TransportKind::InProc) {
    // Thread-sharded: the original in-process world, with the fault session
    // installed once in the parent (ranks share the process injector, as
    // the run_*_mpi entry points always have).
    fault::ScopedFaultSession session(cfg.fault);
    // With several rank threads each acting as a team master, their team
    // counters would all land in the registry's master slot concurrently —
    // a data race on plain doubles.  Mute recording for the span of the
    // world; per-shard obs attribution is the shm transport's job (one
    // process per rank, snapshots merged in RunResult::shards).
    auto& reg = obs::ObsRegistry::instance();
    const bool mute_obs = width > 1 && reg.enabled();
    if (mute_obs) reg.set_enabled(false);
    HybridOutcome out;
    out.procs = width;
    out.payloads.resize(static_cast<std::size_t>(width));
    try {
      World world(width);
      world.run([&](Communicator& comm) {
        // Each rank writes only its own slot; no synchronization needed.
        out.payloads[static_cast<std::size_t>(comm.rank())] = body(comm);
      });
    } catch (...) {
      if (mute_obs) reg.set_enabled(true);
      throw;
    }
    if (mute_obs) reg.set_enabled(true);
    return out;
  }

  // Process-sharded with recovery: lose shards, blame them, shrink, retry.
  int lost_total = 0;
  for (;;) {
    ShmRunOutcome res = run_shm(width, cfg.fault, body);
    if (!res.crc_blamed.empty()) {
      // Detected wire corruption: record the blamed senders (msg/crc_fail,
      // 1 in each sender's rank slot) and fold them into the lost-shard
      // path below.  A rank whose bytes rot is as
      // untrustworthy as one that crashed; shrinking past it is the only
      // recovery that cannot re-admit the corruption.
      auto& reg = obs::ObsRegistry::instance();
      for (const int r : res.crc_blamed) {
        reg.record(obs::counter_id("msg/crc_fail"), r, 1.0);
        bool seen = false;
        for (const int l : res.lost_ranks) seen = seen || l == r;
        if (!seen) res.lost_ranks.push_back(r);
      }
    }
    if (!res.lost_ranks.empty()) {
      auto& reg = obs::ObsRegistry::instance();
      for (const int r : res.lost_ranks) {
        // 1 in the lost rank's slot: the per-rank slots name the shard.
        reg.record(obs::counter_id("fault/lost_shard"), r, 1.0);
        fault::current().note_failed(r);
      }
      lost_total += static_cast<int>(res.lost_ranks.size());
      if (!cfg.fault.allow_degraded)
        throw std::runtime_error("msg: lost " +
                                 std::to_string(res.lost_ranks.size()) +
                                 " shard(s) and degradation is disabled");
      int next = width - static_cast<int>(res.lost_ranks.size());
      while (next >= 1 && !width_ok(next)) --next;
      if (next < 1)
        throw std::runtime_error("msg: no viable width left after losing " +
                                 std::to_string(lost_total) + " shard(s)");
      width = next;
      fault::current().note_degraded(width);
      reg.record(obs::counter_id("fault/degraded_width"), -1,
                 static_cast<double>(width));
      continue;
    }
    if (!res.error.empty()) throw std::runtime_error(res.error);
    HybridOutcome out;
    out.procs = width;
    out.lost_shards = lost_total;
    out.payloads = std::move(res.payloads);
    out.shards = std::move(res.shards);
    return out;
  }
}

std::unique_ptr<WorkerTeam> make_shard_team(const RunConfig& cfg) {
  if (cfg.threads < 2) return nullptr;
  TeamOptions topts;
  topts.barrier = cfg.barrier;
  topts.warmup_spins = cfg.warmup_spins;
  topts.schedule = cfg.schedule;
  topts.fused = cfg.fused;
  topts.mode = Mode::Msg;
  return std::make_unique<WorkerTeam>(cfg.threads, topts);
}

}  // namespace npb::msg
