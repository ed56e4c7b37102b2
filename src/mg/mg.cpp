#include "mg/mg.hpp"

#include <cmath>

#include "common/reference.hpp"
#include "common/verify.hpp"
#include "mg/mg_impl.hpp"
#include "fault/fault.hpp"
#include "mem/mem.hpp"

namespace npb {

MgParams mg_params(ProblemClass cls) noexcept {
  switch (cls) {
    case ProblemClass::S: return {5, 4};    // 32^3
    case ProblemClass::W: return {7, 4};    // 128^3
    case ProblemClass::A: return {8, 4};    // 256^3
    case ProblemClass::B: return {8, 20};   // 256^3, more cycles
    case ProblemClass::C: return {9, 20};   // 512^3
  }
  return {5, 4};
}

RunResult run_mg(const RunConfig& cfg) {
  using namespace mg_detail;
  const MgParams p = mg_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  const ckpt::ScopedCkptSession ckpt_scope(ckpt_meta("MG", cfg), cfg.ckpt);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  const MgOutput o = cfg.mode == Mode::Java
                         ? mg_run<Checked>(p, cfg.threads, topts)
                         : cfg.mode == Mode::Vec
                               ? mg_run<Unchecked, true>(p, cfg.threads, topts)
                               : mg_run<Unchecked>(p, cfg.threads, topts);

  RunResult r;
  r.name = "MG";
  r.cls = cfg.cls;
  r.mode = cfg.mode;
  r.threads = cfg.threads;
  r.seconds = o.seconds;
  // ~58 flops per point per V-cycle iteration at the finest level dominate
  // (resid x2 + smoother), coarser levels add a 1/7 geometric tail.
  const double points = std::ldexp(1.0, 3 * p.log2_n);
  r.mops = static_cast<double>(p.iterations) * 58.0 * points * (8.0 / 7.0) /
           (o.seconds * 1.0e6);

  r.checksums = {o.rnm2_final};

  // Intrinsic: nit V-cycles must contract the residual substantially — the
  // defining property of multigrid (roughly an order of magnitude per cycle;
  // we require two total as a loose floor).
  const bool contracted = o.rnm2_final < 1.0e-2 * o.rnm2_initial;
  const bool intrinsic = contracted && std::isfinite(o.rnm2_final);
  r.verify_detail = "intrinsic: rnm2 " + std::to_string(o.rnm2_initial) + " -> " +
                    std::to_string(o.rnm2_final) + " after " +
                    std::to_string(p.iterations) + " V-cycles\n";

  bool ref_ok = true;
  if (const auto ref = reference_checksums("MG", cfg.cls)) {
    const VerifyResult v = verify_checksums(r.checksums, *ref);
    ref_ok = v.passed;
    r.reference_checked = true;
    r.verify_detail += v.detail;
  }
  r.verified = intrinsic && ref_ok;
  return r;
}

}  // namespace npb
