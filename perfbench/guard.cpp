#include "guard.hpp"

#include <fstream>
#include <iterator>
#include <vector>

#include "bt/bt.hpp"
#include "cg/cg.hpp"
#include "ft/ft.hpp"
#include "is/is.hpp"
#include "lu/lu.hpp"
#include "mg/mg.hpp"
#include "sp/sp.hpp"

namespace perfbench {

Recovery recovery_of(const npb::obs::Snapshot& snap) {
  return {snap.fault_retries_count, snap.degraded_width_count,
          snap.lost_shard_count};
}

Recovery recovery_of(const npb::RunResult& r) {
  Recovery rec = recovery_of(r.obs);
  for (const auto& shard : r.shards) {
    const Recovery s = recovery_of(shard.snap);
    rec.retries += s.retries;
    rec.degraded += s.degraded;
    rec.lost_shards += s.lost_shards;
  }
  return rec;
}

long last_step(std::string_view k, npb::ProblemClass cls) {
  if (k == "BT") return npb::bt_params(cls).iterations - 1;
  if (k == "SP") return npb::sp_params(cls).iterations - 1;
  if (k == "LU") return npb::lu_params(cls).iterations - 1;
  if (k == "FT") return npb::ft_params(cls).iterations;
  if (k == "IS") return npb::is_params(cls).iterations;
  if (k == "CG") return npb::cg_params(cls).niter;
  if (k == "MG") return npb::mg_params(cls).iterations;
  if (k == "EP") return 1;
  return -1;
}

std::string reject_reason(const npb::RunResult& r, const Expected& want,
                          const Evidence& ev) {
  if (!r.verified) return "not verified";
  if (!r.reference_checked) return "no frozen reference compared";
  if (r.cls != want.cls || r.mode != want.mode || r.threads != want.threads)
    return "ran another configuration";
  if (r.procs != want.procs)
    return "ran on " + std::to_string(r.procs) + " shards, not " +
           std::to_string(want.procs);
  if (ev.recovery.retries != 0) return "step retried";
  if (ev.recovery.degraded != 0) return "team width degraded";
  if (ev.recovery.lost_shards != 0) return "shard lost";
  if (!want.ckpt) return {};

  std::ifstream in(ev.ckpt_path, std::ios::binary);
  if (!in) return "no checkpoint at " + ev.ckpt_path;
  const std::vector<unsigned char> bytes{std::istreambuf_iterator<char>(in),
                                         std::istreambuf_iterator<char>()};
  try {
    const long step = npb::ckpt::decode(bytes, ev.ckpt_meta, nullptr);
    if (step != ev.last_step)
      return "checkpoint at step " + std::to_string(step) + ", not " +
             std::to_string(ev.last_step);
  } catch (const npb::ckpt::CkptError& e) {
    return std::string("checkpoint does not decode: ") + e.what();
  }
  return {};
}

}  // namespace perfbench
