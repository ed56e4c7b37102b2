#include "obs/snapshot_io.hpp"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace npb::obs {
namespace {

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  unsigned char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  out.insert(out.end(), b, b + sizeof v);
}

void put_f64(std::vector<unsigned char>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

std::uint64_t get_u64(const std::vector<unsigned char>& bytes, std::size_t& at) {
  if (bytes.size() - at < sizeof(std::uint64_t) || at > bytes.size())
    throw std::runtime_error("snapshot_io: truncated buffer");
  std::uint64_t v;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  at += sizeof v;
  return v;
}

double get_f64(const std::vector<unsigned char>& bytes, std::size_t& at) {
  const std::uint64_t bits = get_u64(bytes, at);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t get_len(const std::vector<unsigned char>& bytes, std::size_t& at) {
  const std::uint64_t n = get_u64(bytes, at);
  if (n > kMaxLen) throw std::runtime_error("snapshot_io: implausible length");
  return n;
}

/// One counter or region body: value, count, then its two slot vectors.
void put_stat(std::vector<unsigned char>& out, double value,
              std::uint64_t count, const std::vector<double>& rank_value,
              const std::vector<std::uint64_t>& rank_count) {
  put_f64(out, value);
  put_u64(out, count);
  put_u64(out, rank_value.size());
  for (const double v : rank_value) put_f64(out, v);
  put_u64(out, rank_count.size());
  for (const std::uint64_t v : rank_count) put_u64(out, v);
}

void get_stat(const std::vector<unsigned char>& bytes, std::size_t& at,
              double& value, std::uint64_t& count,
              std::vector<double>& rank_value,
              std::vector<std::uint64_t>& rank_count) {
  value = get_f64(bytes, at);
  count = get_u64(bytes, at);
  rank_value.resize(get_len(bytes, at));
  for (double& v : rank_value) v = get_f64(bytes, at);
  rank_count.resize(get_len(bytes, at));
  for (std::uint64_t& v : rank_count) v = get_u64(bytes, at);
}

}  // namespace

void serialize_snapshot(const Snapshot& snap, std::vector<unsigned char>& out) {
  for (int id = 0; id < kReservedRegions; ++id) {
    const Counter& c = kCounters[id];
    const RankSlots& slots = snap.slots(id);
    put_stat(out, snap.*c.value, snap.*c.count, slots.value, slots.count);
  }
  put_u64(out, snap.regions.size());
  for (const RegionStats& st : snap.regions) {
    put_u64(out, st.name.size());
    out.insert(out.end(), st.name.begin(), st.name.end());
    put_stat(out, st.seconds, st.count, st.rank_seconds, st.rank_count);
  }
}

Snapshot deserialize_snapshot(const std::vector<unsigned char>& bytes,
                              std::size_t& at) {
  Snapshot snap;
  snap.rank_slots.resize(kReservedRegions);
  for (int id = 0; id < kReservedRegions; ++id) {
    const Counter& c = kCounters[id];
    RankSlots& slots = snap.rank_slots[static_cast<std::size_t>(id)];
    get_stat(bytes, at, snap.*c.value, snap.*c.count, slots.value, slots.count);
  }
  snap.regions.resize(get_len(bytes, at));
  for (RegionStats& st : snap.regions) {
    const std::uint64_t namelen = get_len(bytes, at);
    if (bytes.size() - at < namelen)
      throw std::runtime_error("snapshot_io: truncated buffer");
    st.name.assign(reinterpret_cast<const char*>(bytes.data() + at), namelen);
    at += namelen;
    get_stat(bytes, at, st.seconds, st.count, st.rank_seconds, st.rank_count);
  }
  return snap;
}

}  // namespace npb::obs
