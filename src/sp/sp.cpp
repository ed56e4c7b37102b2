#include "sp/sp.hpp"

#include "sp/sp_impl.hpp"
#include "fault/fault.hpp"
#include "mem/mem.hpp"

namespace npb {

pseudoapp::AppParams sp_params(ProblemClass cls) noexcept {
  // NPB grid sizes and iteration counts; dt retuned for the synthetic
  // system's spectrum (see DESIGN.md section 2).
  switch (cls) {
    case ProblemClass::S: return {12, 100, 0.05};
    case ProblemClass::W: return {36, 400, 0.02};
    case ProblemClass::A: return {64, 400, 0.02};
    case ProblemClass::B: return {102, 400, 0.015};
    case ProblemClass::C: return {162, 400, 0.01};
  }
  return {12, 100, 0.05};
}

RunResult run_sp(const RunConfig& cfg) {
  using namespace sp_detail;
  const AppParams p = sp_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  const ckpt::ScopedCkptSession ckpt_scope(ckpt_meta("SP", cfg), cfg.ckpt);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  const AppOutput o = cfg.mode == Mode::Java
                          ? sp_run<Checked>(p, cfg.threads, topts)
                          : cfg.mode == Mode::Vec
                                ? sp_run<Unchecked, true>(p, cfg.threads, topts)
                                : sp_run<Unchecked>(p, cfg.threads, topts);

  // Per point per iteration: RHS stencil (~500 flops), six 5x5 transforms
  // (~330) and 15 pentadiagonal row eliminations (~300).
  const double pts = static_cast<double>((p.n - 2)) * static_cast<double>((p.n - 2)) *
                     static_cast<double>((p.n - 2));
  const double mops =
      static_cast<double>(p.iterations) * pts * 1130.0 / (o.seconds * 1.0e6);
  return pseudoapp::finish_app("SP", cfg, o, mops);
}

}  // namespace npb
