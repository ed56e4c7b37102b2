#include "ft/ft.hpp"

#include <cmath>

#include "common/reference.hpp"
#include "common/verify.hpp"
#include "ft/ft_impl.hpp"
#include "fault/fault.hpp"
#include "mem/mem.hpp"

namespace npb {

FtParams ft_params(ProblemClass cls) noexcept {
  switch (cls) {
    case ProblemClass::S: return {64, 64, 64, 6, 1.0e-6};
    case ProblemClass::W: return {128, 128, 32, 6, 1.0e-6};
    case ProblemClass::A: return {256, 256, 128, 6, 1.0e-6};
    case ProblemClass::B: return {512, 256, 256, 20, 1.0e-6};
    case ProblemClass::C: return {512, 512, 512, 20, 1.0e-6};
  }
  return {64, 64, 64, 6, 1.0e-6};
}

RunResult run_ft(const RunConfig& cfg) {
  using namespace ft_detail;
  const FtParams p = ft_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  const ckpt::ScopedCkptSession ckpt_scope(ckpt_meta("FT", cfg), cfg.ckpt);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  // FT's butterflies are strided complex recurrences the wrapper's
  // contiguous double lanes don't map onto, so --mode=vec runs the native
  // instantiation (bit-identical; Exact tier).
  const FtOutput o = cfg.mode == Mode::Java
                         ? ft_run<Checked>(p, cfg.threads, topts)
                         : ft_run<Unchecked>(p, cfg.threads, topts);

  RunResult r;
  r.name = "FT";
  r.cls = cfg.cls;
  r.mode = cfg.mode;
  r.threads = cfg.threads;
  r.seconds = o.seconds;
  const double n = static_cast<double>(p.n1) * static_cast<double>(p.n2) *
                   static_cast<double>(p.n3);
  const double log2n = std::log2(n);
  r.mops = (static_cast<double>(p.iterations) + 1.0) * 5.0 * n * log2n /
           (o.seconds * 1.0e6);

  r.checksums = o.checksums;

  const bool intrinsic = o.parseval_err < 1.0e-10 && o.roundtrip_err < 1.0e-10;
  r.verify_detail = "intrinsic: parseval err " + std::to_string(o.parseval_err) +
                    ", fft round-trip err " + std::to_string(o.roundtrip_err) + "\n";

  bool ref_ok = true;
  if (const auto ref = reference_checksums("FT", cfg.cls)) {
    const VerifyResult v = verify_checksums(r.checksums, *ref);
    ref_ok = v.passed;
    r.reference_checked = true;
    r.verify_detail += v.detail;
  }
  r.verified = intrinsic && ref_ok;
  return r;
}

}  // namespace npb
