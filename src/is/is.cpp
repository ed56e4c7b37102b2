#include "is/is.hpp"

#include "common/reference.hpp"
#include "common/verify.hpp"
#include "is/is_impl.hpp"
#include "fault/fault.hpp"
#include "mem/mem.hpp"

namespace npb {

IsParams is_params(ProblemClass cls) noexcept {
  switch (cls) {
    case ProblemClass::S: return {1L << 16, 1L << 11, 10};
    case ProblemClass::W: return {1L << 20, 1L << 16, 10};
    case ProblemClass::A: return {1L << 23, 1L << 19, 10};
    case ProblemClass::B: return {1L << 25, 1L << 21, 10};
    case ProblemClass::C: return {1L << 27, 1L << 23, 10};
  }
  return {1L << 16, 1L << 11, 10};
}

RunResult run_is(const RunConfig& cfg) {
  using namespace is_detail;
  const IsParams p = is_params(cfg.cls);
  const TeamOptions topts = team_options(cfg);
  const fault::ScopedFaultSession fault_scope(cfg.fault);
  const ckpt::ScopedCkptSession ckpt_scope(ckpt_meta("IS", cfg), cfg.ckpt);
  const mem::ScopedMemConfig mem_scope(cfg.mem);

  // IS is integer bucket/counting work with no floating-point inner loop, so
  // --mode=vec runs the native instantiation (bit-identical; Exact tier).
  const IsOutput o =
      cfg.mode == Mode::Java
          ? is_run<Checked>(p.total_keys, p.max_key, p.iterations, cfg.threads, topts)
          : is_run<Unchecked>(p.total_keys, p.max_key, p.iterations, cfg.threads, topts);

  RunResult r;
  r.name = "IS";
  r.cls = cfg.cls;
  r.mode = cfg.mode;
  r.threads = cfg.threads;
  r.seconds = o.seconds;
  r.mops = static_cast<double>(p.iterations) * static_cast<double>(p.total_keys) /
           (o.seconds * 1.0e6);

  r.checksums = o.probe_sums;
  r.checksums.push_back(o.key_sum);

  const bool intrinsic = o.sorted_ok && o.permutation_ok;
  r.verify_detail = std::string("intrinsic: full sort ") +
                    (o.sorted_ok ? "sorted" : "NOT SORTED") + ", permutation " +
                    (o.permutation_ok ? "preserved" : "BROKEN") + "\n";

  bool ref_ok = true;
  if (const auto ref = reference_checksums("IS", cfg.cls)) {
    const VerifyResult v = verify_checksums(r.checksums, *ref);
    ref_ok = v.passed;
    r.reference_checked = true;
    r.verify_detail += v.detail;
  }
  r.verified = intrinsic && ref_ok;
  return r;
}

}  // namespace npb
