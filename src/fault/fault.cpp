#include "fault/fault.hpp"

#include <bit>
#include <cctype>
#include <chrono>
#include <csignal>
#include <limits>
#include <thread>

namespace npb::fault {
namespace {

bool parse_long(std::string_view s, long& out) {
  if (s.empty() || s.size() > 12) return false;
  long v = 0;
  for (const char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    v = v * 10 + (c - '0');
  }
  out = v;
  return true;
}

std::string_view next_field(std::string_view& rest) {
  const std::size_t colon = rest.find(':');
  std::string_view field = rest.substr(0, colon);
  rest = colon == std::string_view::npos ? std::string_view{}
                                         : rest.substr(colon + 1);
  return field;
}

}  // namespace

const char* to_string(Site s) noexcept {
  switch (s) {
    case Site::Barrier: return "barrier";
    case Site::Region: return "region";
    case Site::Collective: return "collective";
    case Site::Queue: return "queue";
    case Site::Reduce: return "reduce";
    case Site::Alloc: return "alloc";
    case Site::Proc: return "proc";
    case Site::Steal: return "steal";
    case Site::Ckpt: return "ckpt";
  }
  return "?";
}

const char* to_string(Kind k) noexcept {
  switch (k) {
    case Kind::Throw: return "throw";
    case Kind::Delay: return "delay";
    case Kind::NanPoison: return "nan-poison";
    case Kind::AllocFail: return "alloc-fail";
    case Kind::Kill: return "kill";
    case Kind::Corrupt: return "corrupt";
  }
  return "?";
}

std::string to_string(const FaultSpec& spec) {
  std::string out = spec.any_site ? "*" : to_string(spec.site);
  out += ':';
  if (spec.kind == Kind::Delay) {
    out += "delay(" + std::to_string(spec.delay_ms) + ")";
  } else {
    out += to_string(spec.kind);
  }
  out += ':';
  out += spec.step == kAnyStep ? "*" : std::to_string(spec.step);
  out += ':';
  out += spec.rank == kAnyRank ? "*" : std::to_string(spec.rank);
  out += ':' + std::to_string(spec.seed);
  if (spec.persist) out += ":persist";
  return out;
}

std::optional<FaultSpec> parse_fault_spec(std::string_view text) {
  FaultSpec spec;
  std::string_view rest = text;

  const std::string_view site = next_field(rest);
  if (site == "*") {
    spec.any_site = true;
  } else if (site == "barrier") {
    spec.site = Site::Barrier;
  } else if (site == "region") {
    spec.site = Site::Region;
  } else if (site == "collective") {
    spec.site = Site::Collective;
  } else if (site == "queue") {
    spec.site = Site::Queue;
  } else if (site == "reduce") {
    spec.site = Site::Reduce;
  } else if (site == "alloc") {
    spec.site = Site::Alloc;
  } else if (site == "proc") {
    spec.site = Site::Proc;
  } else if (site == "steal") {
    spec.site = Site::Steal;
  } else if (site == "ckpt") {
    spec.site = Site::Ckpt;
  } else {
    return std::nullopt;
  }

  const std::string_view kind = next_field(rest);
  if (kind == "throw") {
    spec.kind = Kind::Throw;
  } else if (kind == "nan-poison") {
    spec.kind = Kind::NanPoison;
  } else if (kind == "alloc-fail") {
    spec.kind = Kind::AllocFail;
  } else if (kind == "kill") {
    spec.kind = Kind::Kill;
  } else if (kind == "corrupt") {
    spec.kind = Kind::Corrupt;
  } else if (kind.size() > 7 && kind.substr(0, 6) == "delay(" &&
             kind.back() == ')') {
    spec.kind = Kind::Delay;
    if (!parse_long(kind.substr(6, kind.size() - 7), spec.delay_ms))
      return std::nullopt;
  } else {
    return std::nullopt;
  }
  // The value-level kinds are tied to the only sites that can express them.
  if (spec.kind == Kind::NanPoison && (spec.any_site || spec.site != Site::Reduce))
    return std::nullopt;
  if (spec.kind == Kind::AllocFail && (spec.any_site || spec.site != Site::Alloc))
    return std::nullopt;
  // kill SIGKILLs the calling process; pinning it to Site::Proc (crossed
  // only inside forked shm workers) keeps an in-process run from shooting
  // the test binary itself.
  if (spec.kind == Kind::Kill && (spec.any_site || spec.site != Site::Proc))
    return std::nullopt;
  // corrupt flips a bit at an integrity choke point, of which there are
  // exactly two: the durable checkpoint flush (ckpt) and the shm message
  // frame (proc).  Conversely the ckpt site expresses nothing else.
  if (spec.kind == Kind::Corrupt &&
      (spec.any_site || (spec.site != Site::Ckpt && spec.site != Site::Proc)))
    return std::nullopt;
  if (spec.site == Site::Ckpt && spec.kind != Kind::Corrupt)
    return std::nullopt;

  const std::string_view step = next_field(rest);
  if (step == "*") {
    spec.step = kAnyStep;
  } else if (!parse_long(step, spec.step)) {
    return std::nullopt;
  }

  const std::string_view rank = next_field(rest);
  if (rank == "*") {
    spec.rank = kAnyRank;
  } else {
    long r = 0;
    if (!parse_long(rank, r) || r > std::numeric_limits<int>::max())
      return std::nullopt;
    spec.rank = static_cast<int>(r);
  }

  const std::string_view seed = next_field(rest);
  long s = 0;
  if (!parse_long(seed, s)) return std::nullopt;
  spec.seed = static_cast<unsigned long>(s);

  if (!rest.empty()) {
    if (next_field(rest) != "persist" || !rest.empty()) return std::nullopt;
    spec.persist = true;
  }
  return spec;
}

Injector& Injector::instance() noexcept {
  static Injector inj;  // leaked like ObsRegistry: outlives worker threads
  return inj;
}

void Injector::install(const std::vector<FaultSpec>& specs) {
  clear();
  for (const FaultSpec& s : specs) specs_.push_back(new CompiledSpec(s));
  step_.store(-1, std::memory_order_relaxed);
  failed_mask_.store(0, std::memory_order_relaxed);
  injected_.store(0, std::memory_order_relaxed);
  degraded_width_.store(0, std::memory_order_relaxed);
  armed_.store(!specs_.empty(), std::memory_order_release);
}

void Injector::clear() {
  armed_.store(false, std::memory_order_release);
  step_.store(-1, std::memory_order_relaxed);
  for (CompiledSpec* cs : specs_) delete cs;
  specs_.clear();
}

void Injector::set_retry_policy(int max_retries, int backoff_ms,
                                bool allow_degraded) noexcept {
  max_retries_ = max_retries;
  backoff_ms_ = backoff_ms;
  allow_degraded_ = allow_degraded;
}

void Injector::note_failed(int rank) noexcept {
  if (rank < 0 || rank >= 32) return;
  failed_mask_.fetch_or(1u << rank, std::memory_order_relaxed);
}

int Injector::failed_ranks() const noexcept {
  return std::popcount(failed_mask_.load(std::memory_order_relaxed));
}

void Injector::clear_failed() noexcept {
  failed_mask_.store(0, std::memory_order_relaxed);
}

bool Injector::matches(const CompiledSpec& cs, Site site,
                       int rank) const noexcept {
  if (!cs.spec.any_site && cs.spec.site != site) return false;
  if (cs.spec.rank != kAnyRank && cs.spec.rank != rank) return false;
  if (cs.spec.step != kAnyStep &&
      cs.spec.step != step_.load(std::memory_order_acquire))
    return false;
  return true;
}

bool Injector::crossed(CompiledSpec& cs) noexcept {
  const unsigned long occ =
      cs.occurrence.fetch_add(1, std::memory_order_relaxed);
  if (occ < cs.spec.seed) return false;
  if (cs.spec.persist) return true;
  // One-shot: exactly one crossing wins, retries after it stay clean.
  return !cs.fired.exchange(true, std::memory_order_relaxed);
}

void Injector::record_injected(int rank) noexcept {
  injected_.fetch_add(1, std::memory_order_relaxed);
  obs::ObsRegistry::instance().record(obs::counter_id("fault/injected"), rank,
                                      1.0);
}

void Injector::on_site_slow(Site site, int rank) {
  // Steps gate every spec: between steps (step == -1) pinned-step specs
  // cannot match and wildcard-step specs must not fire either, so setup,
  // warm-up and verification phases stay injection-free.
  if (step_.load(std::memory_order_acquire) < 0) return;
  for (CompiledSpec* cs : specs_) {
    if (cs->spec.kind != Kind::Throw && cs->spec.kind != Kind::Delay &&
        cs->spec.kind != Kind::Kill)
      continue;
    if (!matches(*cs, site, rank)) continue;
    if (!crossed(*cs)) continue;
    record_injected(rank);
    if (cs->spec.kind == Kind::Kill) {
      // Die the way a crashed shard dies: no unwinding, no atexit, no
      // flushed buffers.  The parent's waitpid/heartbeat machinery must do
      // the detection — that is exactly what this fault exists to exercise.
      raise(SIGKILL);
      continue;  // not reached; keeps the control flow obvious
    }
    if (cs->spec.kind == Kind::Delay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(cs->spec.delay_ms));
      continue;  // jitter only; the step completes unless a watchdog aborts
    }
    note_failed(rank);
    throw InjectedFault("injected fault at " + std::string(to_string(site)) +
                        " (rank " + std::to_string(rank) + ", step " +
                        std::to_string(step()) + ")");
  }
}

double Injector::poison_slow(int rank, double value) {
  if (step_.load(std::memory_order_acquire) < 0) return value;
  for (CompiledSpec* cs : specs_) {
    if (cs->spec.kind != Kind::NanPoison) continue;
    if (!matches(*cs, Site::Reduce, rank)) continue;
    if (!crossed(*cs)) continue;
    record_injected(rank);
    note_failed(rank);
    return std::numeric_limits<double>::quiet_NaN();
  }
  return value;
}

bool Injector::alloc_slow() {
  if (step_.load(std::memory_order_acquire) < 0) return false;
  const int rank = obs::kActive ? obs::thread_rank() : -1;
  for (CompiledSpec* cs : specs_) {
    if (cs->spec.kind != Kind::AllocFail) continue;
    if (!matches(*cs, Site::Alloc, rank)) continue;
    if (!crossed(*cs)) continue;
    record_injected(rank);
    if (rank >= 0) note_failed(rank);
    return true;
  }
  return false;
}

bool Injector::corrupt_slow(Site site, int rank) {
  if (step_.load(std::memory_order_acquire) < 0) return false;
  for (CompiledSpec* cs : specs_) {
    if (cs->spec.kind != Kind::Corrupt) continue;
    if (!matches(*cs, site, rank)) continue;
    if (!crossed(*cs)) continue;
    record_injected(rank);
    // No note_failed here: the corruption is not yet a failure — the CRC
    // machinery downstream must turn it into a detected one (and blames
    // the rank itself for the shm frame case).
    return true;
  }
  return false;
}

}  // namespace npb::fault
