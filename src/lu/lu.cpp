#include "lu/lu.hpp"

#include "lu/lu_impl.hpp"
#include "fault/fault.hpp"
#include "mem/mem.hpp"

namespace npb {

pseudoapp::AppParams lu_params(ProblemClass cls) noexcept {
  // NPB grid sizes and iteration counts; the SSOR pseudo-timestep is large
  // (as in NPB, where LU uses dt an order above BT/SP).
  switch (cls) {
    case ProblemClass::S: return {12, 50, 0.5};
    case ProblemClass::W: return {33, 300, 0.5};
    case ProblemClass::A: return {64, 250, 0.5};
    case ProblemClass::B: return {102, 250, 0.5};
    case ProblemClass::C: return {162, 250, 0.5};
  }
  return {12, 50, 0.5};
}

RunResult run_lu(const RunConfig& cfg) {
  using namespace lu_detail;
  const AppParams p = lu_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  const ckpt::ScopedCkptSession ckpt_scope(ckpt_meta("LU", cfg), cfg.ckpt);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  // LU's SSOR sweeps carry a point-to-point dependence through every 5x5
  // block solve (wavefront order), so --mode=vec runs the native
  // instantiation (bit-identical; Exact tier).
  const AppOutput o = cfg.mode == Mode::Java
                          ? lu_run<Checked>(p, cfg.threads, topts)
                          : lu_run<Unchecked>(p, cfg.threads, topts);

  // Per point per iteration: RHS stencil (~500 flops) plus two relaxation
  // sweeps of ~600 flops each (block builds, couplings, factor, solve).
  const double pts = static_cast<double>((p.n - 2)) * static_cast<double>((p.n - 2)) *
                     static_cast<double>((p.n - 2));
  const double mops =
      static_cast<double>(p.iterations) * pts * 1700.0 / (o.seconds * 1.0e6);
  return pseudoapp::finish_app("LU", cfg, o, mops);
}

RunResult run_lu_hp(const RunConfig& cfg) {
  using namespace lu_detail;
  const AppParams p = lu_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  // Distinct checkpoint identity: LU-HP's hyperplane sweeps carry the same
  // u field but a different execution shape, so its files never collide
  // with run_lu's in a shared --ckpt-dir.
  const ckpt::ScopedCkptSession ckpt_scope(ckpt_meta("LU-HP", cfg), cfg.ckpt);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  const AppOutput o = cfg.mode == Mode::Java
                          ? lu_run_hp<Checked>(p, cfg.threads, topts)
                          : lu_run_hp<Unchecked>(p, cfg.threads, topts);

  const double pts = static_cast<double>((p.n - 2)) * static_cast<double>((p.n - 2)) *
                     static_cast<double>((p.n - 2));
  const double mops =
      static_cast<double>(p.iterations) * pts * 1700.0 / (o.seconds * 1.0e6);
  return pseudoapp::finish_app("LU", cfg, o, mops);
}

}  // namespace npb
