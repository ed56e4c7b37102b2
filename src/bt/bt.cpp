#include "bt/bt.hpp"

#include "bt/bt_impl.hpp"
#include "fault/fault.hpp"
#include "mem/mem.hpp"

namespace npb {

pseudoapp::AppParams bt_params(ProblemClass cls) noexcept {
  // NPB grid sizes and iteration counts; dt retuned for the synthetic
  // system's spectrum (see DESIGN.md section 2).
  switch (cls) {
    case ProblemClass::S: return {12, 60, 0.05};
    case ProblemClass::W: return {24, 200, 0.02};
    case ProblemClass::A: return {64, 200, 0.02};
    case ProblemClass::B: return {102, 200, 0.015};
    case ProblemClass::C: return {162, 200, 0.01};
  }
  return {12, 60, 0.05};
}

RunResult run_bt(const RunConfig& cfg) {
  using namespace bt_detail;
  const AppParams p = bt_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  const ckpt::ScopedCkptSession ckpt_scope(ckpt_meta("BT", cfg), cfg.ckpt);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  const AppOutput o = cfg.mode == Mode::Java
                          ? bt_run<Checked>(p, cfg.threads, topts)
                          : cfg.mode == Mode::Vec
                                ? bt_run<Unchecked, true>(p, cfg.threads, topts)
                                : bt_run<Unchecked>(p, cfg.threads, topts);

  // Per point per iteration: RHS stencil (~500 flops) plus three block-
  // tridiagonal line solves (~3 * 600 flops for the 5x5 block algebra).
  const double pts = static_cast<double>((p.n - 2)) * static_cast<double>((p.n - 2)) *
                     static_cast<double>((p.n - 2));
  const double mops =
      static_cast<double>(p.iterations) * pts * 2300.0 / (o.seconds * 1.0e6);
  return pseudoapp::finish_app("BT", cfg, o, mops);
}

}  // namespace npb
