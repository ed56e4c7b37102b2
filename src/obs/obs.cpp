#include "obs/obs.hpp"

#ifndef NPB_OBS_DISABLED

#include <atomic>
#include <map>
#include <mutex>

namespace npb::obs {
inline namespace enabled {
namespace {

thread_local int t_team_rank = -1;

}  // namespace

void set_thread_rank(int rank) noexcept { t_team_rank = rank; }
int thread_rank() noexcept { return t_team_rank; }

struct ObsRegistry::Impl {
  mutable std::mutex m;
  std::vector<std::string> names;                 // by id
  std::map<std::string, RegionId, std::less<>> ids;
  std::atomic<int> n_regions{0};
  std::atomic<bool> enabled{true};
};

ObsRegistry::ObsRegistry()
    : impl_(new Impl),
      cells_(new Cell[static_cast<std::size_t>(kMaxRegions) * kSlots]) {
  // The reserved counters occupy fixed ids so the runtime layers can
  // record without a lookup.
  for (const Counter& c : kCounters) intern(c.path);
}

ObsRegistry& ObsRegistry::instance() {
  static ObsRegistry r;  // leaked cells/impl: must outlive worker threads
  return r;
}

bool ObsRegistry::enabled_relaxed() const noexcept {
  return impl_->enabled.load(std::memory_order_relaxed);
}

int ObsRegistry::n_regions_hint() const noexcept {
  return impl_->n_regions.load(std::memory_order_acquire);
}

RegionId ObsRegistry::intern(std::string_view path) {
  std::lock_guard<std::mutex> lk(impl_->m);
  if (const auto it = impl_->ids.find(path); it != impl_->ids.end())
    return it->second;
  const int id = impl_->n_regions.load(std::memory_order_relaxed);
  if (id >= kMaxRegions) return -1;
  impl_->names.emplace_back(path);
  impl_->ids.emplace(std::string(path), id);
  // Release so a recording thread that sees the new count also sees the
  // zero-initialized cells.
  impl_->n_regions.store(id + 1, std::memory_order_release);
  return id;
}

void ObsRegistry::set_enabled(bool on) noexcept {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

void ObsRegistry::reset() noexcept {
  const int n = n_regions_hint();
  for (std::size_t i = 0; i < static_cast<std::size_t>(n) * kSlots; ++i)
    cells_[i] = Cell{};
}

Snapshot ObsRegistry::snapshot() const {
  Snapshot snap;
  snap.rank_slots.resize(kReservedRegions);
  std::lock_guard<std::mutex> lk(impl_->m);
  const int n = impl_->n_regions.load(std::memory_order_relaxed);
  for (int id = 0; id < n; ++id) {
    const Cell* row = cells_ + static_cast<std::size_t>(id) * kSlots;
    RegionStats st;
    st.name = impl_->names[static_cast<std::size_t>(id)];
    std::size_t top = 0;  // one past the highest slot that recorded
    for (std::size_t s = 0; s < kSlots; ++s) {
      if (row[s].count == 0 && row[s].seconds == 0.0) continue;
      st.seconds += row[s].seconds;
      st.count += row[s].count;
      top = s + 1;
    }
    if (top == 0) continue;  // nothing recorded this run
    st.rank_seconds.resize(top);
    st.rank_count.resize(top);
    for (std::size_t s = 0; s < top; ++s) {
      st.rank_seconds[s] = row[s].seconds;
      st.rank_count[s] = row[s].count;
    }
    if (id >= kReservedRegions) {
      snap.regions.push_back(std::move(st));
      continue;
    }
    const Counter& c = kCounters[id];
    snap.*c.value = st.seconds;
    snap.*c.count = st.count;
    snap.rank_slots[static_cast<std::size_t>(id)] = {std::move(st.rank_seconds),
                                                     std::move(st.rank_count)};
  }
  return snap;
}

}  // inline namespace enabled
}  // namespace npb::obs

#endif  // NPB_OBS_DISABLED
