#include "ep/ep.hpp"

#include <cmath>

#include "common/reference.hpp"
#include "common/verify.hpp"
#include "ep/ep_impl.hpp"
#include "fault/fault.hpp"
#include "mem/mem.hpp"

namespace npb {

EpParams ep_params(ProblemClass cls) noexcept {
  switch (cls) {
    case ProblemClass::S: return {24};
    case ProblemClass::W: return {25};
    case ProblemClass::A: return {28};
    case ProblemClass::B: return {30};
    case ProblemClass::C: return {32};
  }
  return {24};
}

RunResult run_ep(const RunConfig& cfg) {
  using namespace ep_detail;
  const EpParams p = ep_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  const ckpt::ScopedCkptSession ckpt_scope(ckpt_meta("EP", cfg), cfg.ckpt);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  // EP's hot loop is the branchy rejection-sampling kernel — nothing to lane-
  // parallelize — so --mode=vec runs the native instantiation (bit-identical;
  // the vec differential holds it to the Exact tier).
  const EpOutput o = cfg.mode == Mode::Java
                         ? ep_run<Checked>(p.log2_pairs, cfg.threads, topts)
                         : ep_run<Unchecked>(p.log2_pairs, cfg.threads, topts);

  RunResult r;
  r.name = "EP";
  r.cls = cfg.cls;
  r.mode = cfg.mode;
  r.threads = cfg.threads;
  r.seconds = o.seconds;
  const double npairs = std::ldexp(1.0, p.log2_pairs);
  r.mops = npairs / (o.seconds * 1.0e6);

  r.checksums = {o.sx, o.sy, o.accepted};
  r.checksums.insert(r.checksums.end(), o.q.begin(), o.q.end());

  // Intrinsic invariants: annuli tally the accepted pairs exactly, the
  // acceptance rate is pi/4 for uniform squares, and the Gaussian annulus
  // counts decrease monotonically.
  double qsum = 0.0;
  bool monotone = true;
  for (int l = 0; l < kAnnuli; ++l) {
    qsum += o.q[static_cast<std::size_t>(l)];
    if (l > 0 && o.q[static_cast<std::size_t>(l)] > o.q[static_cast<std::size_t>(l - 1)])
      monotone = false;
  }
  const double acceptance = o.accepted / npairs;
  const bool intrinsic = qsum == o.accepted && monotone &&
                         std::fabs(acceptance - 0.7853981633974483) < 5.0e-3;
  r.verify_detail = "intrinsic: qsum/accepted " + std::to_string(qsum) + "/" +
                    std::to_string(o.accepted) + ", acceptance " +
                    std::to_string(acceptance) + (monotone ? ", annuli monotone" : ", annuli NOT monotone") +
                    "\n";

  bool ref_ok = true;
  if (const auto ref = reference_checksums("EP", cfg.cls)) {
    const VerifyResult v = verify_checksums(r.checksums, *ref);
    ref_ok = v.passed;
    r.reference_checked = true;
    r.verify_detail += v.detail;
  }
  r.verified = intrinsic && ref_ok;
  return r;
}

}  // namespace npb
