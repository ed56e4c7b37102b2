#include "mem/mem.hpp"

#include <cctype>
#include <cstdlib>
#include <new>

#include "common/threadctx.hpp"
#include "fault/fault.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace npb::mem {
namespace {

// Each thread that installs a scoped config owns its own context storage and
// publishes its address through the threadctx slot; team workers inherit the
// dispatching master's slot, so they see the job's context rather than a
// process-wide one.  Threads with an empty slot (nothing ever installed) read
// their default-constructed local context — the old global-default behavior.
thread_local detail::Context t_context;

bool is_pow2(std::size_t v) noexcept { return v != 0 && (v & (v - 1)) == 0; }

std::size_t round_up(std::size_t v, std::size_t to) noexcept {
  return (v + to - 1) / to * to;
}

}  // namespace

const char* to_string(Placement p) noexcept {
  return p == Placement::FirstTouch ? "first_touch" : "serial";
}

std::string to_string(const MemOptions& o) {
  std::string out = to_string(o.placement);
  out += ",align=" + std::to_string(o.alignment);
  if (o.huge_pages) out += ",huge";
  return out;
}

std::optional<std::size_t> parse_alignment(std::string_view spec) {
  if (spec.empty()) return std::nullopt;
  std::size_t mult = 1;
  const char last = spec.back();
  if (last == 'K' || last == 'k') {
    mult = 1024;
    spec.remove_suffix(1);
  } else if (last == 'M' || last == 'm') {
    mult = 1024 * 1024;
    spec.remove_suffix(1);
  }
  if (spec.empty() || spec.size() > 9) return std::nullopt;
  std::size_t v = 0;
  for (const char c : spec) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  v *= mult;
  if (!is_pow2(v)) return std::nullopt;
  return v;
}

namespace detail {

void* raw_alloc(std::size_t bytes, std::size_t alignment, bool huge) {
  if (bytes == 0) return nullptr;
  if (!is_pow2(alignment)) alignment = alignof(std::max_align_t);
  if (alignment < alignof(void*)) alignment = alignof(void*);
  const bool want_huge = huge && bytes >= kHugePageBytes;
  if (want_huge && alignment < kHugePageBytes) alignment = kHugePageBytes;
  // posix_memalign (not std::aligned_alloc) because the latter's size must
  // be an alignment multiple, which a 2 MiB alignment would inflate absurdly.
  void* p = nullptr;
  if (posix_memalign(&p, alignment, bytes) != 0) return nullptr;
#if defined(__linux__)
  if (want_huge) madvise(p, bytes, MADV_HUGEPAGE);  // best-effort hint
#endif
  return p;
}

void raw_free(void* p) noexcept { std::free(p); }

const Context& context() noexcept {
  const void* p = threadctx::current().mem_context;
  return p != nullptr ? *static_cast<const Context*>(p) : t_context;
}

Context exchange_context(const Context& next) noexcept {
  Context prev = context();
  t_context = next;
  threadctx::Slots slots = threadctx::current();
  slots.mem_context = &t_context;
  threadctx::exchange(slots);
  return prev;
}

void note_fresh(std::size_t bytes) noexcept {
  obs::ObsRegistry::instance().record(obs::counter_id("mem/bytes"),
                                      obs::thread_rank(),
                                      static_cast<double>(bytes));
}

void note_hit(std::size_t bytes) noexcept {
  obs::ObsRegistry::instance().record(obs::counter_id("mem/arena_hit"),
                                      obs::thread_rank(),
                                      static_cast<double>(bytes));
}

void note_first_touch(double seconds) noexcept {
  obs::ObsRegistry::instance().record(obs::counter_id("mem/first_touch"),
                                      obs::thread_rank(), seconds);
}

}  // namespace detail

Arena::~Arena() {
  // Live blocks at destruction would mean a buffer outlived its arena; free
  // everything regardless so the process does not leak under test failures.
  std::lock_guard<std::mutex> lk(m_);
  for (Block& b : blocks_) detail::raw_free(b.p);
  blocks_.clear();
}

void* Arena::acquire(std::size_t bytes, std::size_t alignment, bool huge) {
  if (bytes == 0) return nullptr;
  {
    std::lock_guard<std::mutex> lk(m_);
    Block* best = nullptr;
    for (Block& b : blocks_) {
      if (b.live || b.bytes != bytes || b.alignment != alignment ||
          b.huge != huge)
        continue;
      if (best == nullptr || b.released_at > best->released_at) best = &b;
    }
    if (best != nullptr) {
      best->live = true;
      ++hits_;
      detail::note_hit(bytes);
      return best->p;
    }
    ++misses_;
  }
  // Allocate outside the lock: workers may acquire scratch concurrently.
  void* p = detail::raw_alloc(bytes, alignment, huge);
  if (p == nullptr) return nullptr;
  detail::note_fresh(bytes);
  std::lock_guard<std::mutex> lk(m_);
  blocks_.push_back(Block{p, bytes, alignment, huge, /*live=*/true, 0});
  return p;
}

void Arena::release(void* p) noexcept {
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lk(m_);
  for (Block& b : blocks_) {
    if (b.p == p) {
      b.live = false;
      b.released_at = ++release_clock_;
      return;
    }
  }
}

void Arena::purge() noexcept {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].live) {
      blocks_[kept++] = blocks_[i];
    } else {
      detail::raw_free(blocks_[i].p);
    }
  }
  blocks_.resize(kept);
}

std::uint64_t Arena::hits() const noexcept {
  std::lock_guard<std::mutex> lk(m_);
  return hits_;
}

std::uint64_t Arena::misses() const noexcept {
  std::lock_guard<std::mutex> lk(m_);
  return misses_;
}

std::size_t Arena::live_blocks() const noexcept {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t n = 0;
  for (const Block& b : blocks_) n += b.live ? 1 : 0;
  return n;
}

std::size_t Arena::pooled_blocks() const noexcept {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t n = 0;
  for (const Block& b : blocks_) n += b.live ? 0 : 1;
  return n;
}

Allocation acquire(std::size_t bytes, std::size_t min_alignment) {
  if (bytes == 0) return {};
  // The Alloc injection site: an alloc-fail spec makes this acquire behave
  // exactly like memory exhaustion, so retry paths prove they survive
  // bad_alloc mid-step (arena shape reuse keeps the retry allocation-free).
  if (fault::should_fail_alloc()) throw std::bad_alloc{};
  const detail::Context& c = detail::context();
  std::size_t alignment = c.options.alignment;
  if (alignment < min_alignment) alignment = min_alignment;
  if (!is_pow2(alignment)) alignment = 64;
  const bool huge = c.options.huge_pages;
  Allocation a;
  a.bytes = bytes;
  if (c.arena != nullptr) {
    a.arena = c.arena;
    a.p = c.arena->acquire(bytes, alignment, huge);
  } else {
    a.p = detail::raw_alloc(bytes, alignment, huge);
    if (a.p != nullptr) detail::note_fresh(bytes);
  }
  if (a.p == nullptr && bytes > 0) throw std::bad_alloc{};
  return a;
}

void release(const Allocation& a) noexcept {
  if (a.p == nullptr) return;
  if (a.arena != nullptr) {
    a.arena->release(a.p);
  } else {
    detail::raw_free(a.p);
  }
}

ScopedMemConfig::ScopedMemConfig(const MemOptions& options)
    : saved_(detail::context()) {
  detail::Context next = saved_;
  next.options = options;
  detail::exchange_context(next);
}

ScopedMemConfig::ScopedMemConfig(const MemOptions& options, Arena* arena)
    : saved_(detail::context()) {
  detail::Context next = saved_;
  next.options = options;
  next.arena = arena;
  detail::exchange_context(next);
}

ScopedMemConfig::~ScopedMemConfig() { detail::exchange_context(saved_); }

ScopedArena::ScopedArena(Arena* arena) : saved_(detail::context()) {
  detail::Context next = saved_;
  next.arena = arena;
  detail::exchange_context(next);
}

ScopedArena::~ScopedArena() { detail::exchange_context(saved_); }

ScopedTeamPlacement::ScopedTeamPlacement(WorkerTeam* team, Schedule schedule)
    : saved_(detail::context()) {
  detail::Context next = saved_;
  next.team = team;
  next.schedule = schedule;
  detail::exchange_context(next);
}

ScopedTeamPlacement::~ScopedTeamPlacement() {
  detail::exchange_context(saved_);
}

}  // namespace npb::mem
