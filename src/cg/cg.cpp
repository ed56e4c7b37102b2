#include "cg/cg.hpp"

#include <cmath>

#include "cg/cg_impl.hpp"
#include "fault/fault.hpp"
#include "mem/mem.hpp"
#include "common/reference.hpp"
#include "common/verify.hpp"

namespace npb {

CgParams cg_params(ProblemClass cls) noexcept {
  switch (cls) {
    case ProblemClass::S: return {1400, 15, 7, 10.0, 0.1, 25};
    case ProblemClass::W: return {7000, 15, 8, 12.0, 0.1, 25};
    case ProblemClass::A: return {14000, 15, 11, 20.0, 0.1, 25};
    case ProblemClass::B: return {75000, 75, 13, 60.0, 0.1, 25};
    case ProblemClass::C: return {150000, 75, 15, 110.0, 0.1, 25};
  }
  return {1400, 15, 7, 10.0, 0.1, 25};
}

RunResult run_cg(const RunConfig& cfg) {
  using namespace cg_detail;
  const CgParams p = cg_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  const ckpt::ScopedCkptSession ckpt_scope(ckpt_meta("CG", cfg), cfg.ckpt);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  const CgOutput o = cfg.mode == Mode::Java
                         ? cg_run<Checked>(p, cfg.threads, topts)
                         : cfg.mode == Mode::Vec
                               ? cg_run<Unchecked, true>(p, cfg.threads, topts)
                               : cg_run<Unchecked>(p, cfg.threads, topts);

  RunResult r;
  r.name = "CG";
  r.cls = cfg.cls;
  r.mode = cfg.mode;
  r.threads = cfg.threads;
  r.seconds = o.seconds;
  // Dominant cost: niter outer iterations x cg_iters sparse mat-vecs of
  // ~2 flops/nonzero plus the vector updates; we report the mat-vec flops.
  const double nnz_est = static_cast<double>(p.n) *
                         static_cast<double>((p.nonzer + 1) * (p.nonzer + 1));
  r.mops = static_cast<double>(p.niter) * static_cast<double>(p.cg_iters) * 2.0 *
           nnz_est / (o.seconds * 1.0e6);

  r.checksums = {o.zeta, o.rnorm, o.zeta_sum};

  // Intrinsics: the shifted matrix is positive definite (probe ratio is at
  // least rcond), the CG solve converged (tiny true residual against a
  // right-hand side of unit norm), and zeta landed below the shift (the
  // estimated eigenvalue of A - shift I is negative).
  const bool spd_ok = o.spd_probe > 0.0;
  const bool resid_ok = o.rnorm < 1.0e-8;
  const bool zeta_ok = std::isfinite(o.zeta) && o.zeta < p.shift && o.zeta > 0.0;
  const bool intrinsic = spd_ok && resid_ok && zeta_ok;
  r.verify_detail = "intrinsic: spd probe " + std::to_string(o.spd_probe) +
                    ", cg residual " + std::to_string(o.rnorm) + ", zeta " +
                    std::to_string(o.zeta) + "\n";

  bool ref_ok = true;
  if (const auto ref = reference_checksums("CG", cfg.cls)) {
    const VerifyResult v = verify_checksums(r.checksums, *ref);
    ref_ok = v.passed;
    r.reference_checked = true;
    r.verify_detail += v.detail;
  }
  r.verified = intrinsic && ref_ok;
  return r;
}

}  // namespace npb
