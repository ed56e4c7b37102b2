#include "msg/communicator.hpp"

#include <cmath>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace npb::msg {

void Communicator::send(int dst, int tag, std::span<const double> data) {
  if (dst < 0 || dst >= size_) throw std::out_of_range("send: bad rank");
  transport_->send(rank_, dst, tag, data);
}

void Communicator::recv(int src, int tag, std::span<double> out) {
  if (src < 0 || src >= size_) throw std::out_of_range("recv: bad rank");
  const std::vector<double> msg = transport_->recv(rank_, src, tag);
  if (msg.size() != out.size())
    throw std::length_error("recv: message size " + std::to_string(msg.size()) +
                            " != buffer size " + std::to_string(out.size()));
  std::memcpy(out.data(), msg.data(), msg.size() * sizeof(double));
}

void Communicator::barrier() { transport_->barrier(rank_); }

std::size_t Communicator::checked_count(double c) {
  // 1e15 < 2^53, so every admitted value survives the double->size_t
  // round-trip exactly; it is also far beyond any real message (doubles at
  // that count would be 8 PB).
  if (!(c >= 0.0) || c != std::floor(c) || c > 1e15)
    throw std::length_error("alltoallv: invalid wire count " + std::to_string(c));
  return static_cast<std::size_t>(c);
}

namespace {
constexpr int kTagReduce = -101;
constexpr int kTagBcast = -102;
constexpr int kTagAlltoall = -103;
constexpr int kTagAlltoallv = -104;
}  // namespace

double Communicator::allreduce_sum(double value) {
  double v = value;
  allreduce_sum(std::span<double>(&v, 1));
  return v;
}

void Communicator::allreduce_sum(std::span<double> values) {
  // Gather to rank 0 in rank order (deterministic association), then
  // broadcast the result.  No send/recv cycle: non-roots send one message
  // and park in recv; rank 0 drains then fans out.
  if (rank_ == 0) {
    std::vector<double> incoming(values.size());
    for (int src = 1; src < size_; ++src) {
      recv(src, kTagReduce, incoming);
      for (std::size_t i = 0; i < values.size(); ++i) values[i] += incoming[i];
    }
  } else {
    send(0, kTagReduce, values);
  }
  broadcast(0, values);
}

void Communicator::broadcast(int root, std::span<double> data) {
  if (rank_ == root) {
    for (int dst = 0; dst < size_; ++dst)
      if (dst != root) send(dst, kTagBcast, data);
  } else {
    recv(root, kTagBcast, data);
  }
}

// The dense exchanges below run a shifted pairwise schedule: at step s every
// rank sends to (rank + s) % size while receiving from (rank - s) % size.
// Under a bounded transport (the shm rings) that alone is not deadlock-free:
// at size 2 (or any step where peers are symmetric) both ranks send first,
// and once a message exceeds ring capacity both block full with nobody
// receiving.  exchange() closes the hole by splitting each step into
// lock-step rounds no larger than the transport's eager limit — a chunk
// that size always fits in a drained ring, so a rank blocked in send implies
// its consumer sits at a strictly earlier round, and a wait cycle would need
// rounds to decrease forever.  Chunks land at their natural offsets, so the
// same bytes reach the same places and results are unchanged.

void Communicator::exchange(int dst, int src, int tag,
                            std::span<const double> out, std::span<double> in) {
  const std::size_t limit = transport_->eager_limit();
  const auto rounds_for = [limit](std::size_t n) {
    return n <= limit ? std::size_t{1} : (n + limit - 1) / limit;
  };
  const std::size_t out_rounds = rounds_for(out.size());
  const std::size_t in_rounds = rounds_for(in.size());
  const std::size_t rounds = std::max(out_rounds, in_rounds);
  for (std::size_t k = 0; k < rounds; ++k) {
    if (k < out_rounds) {
      const std::size_t at = k * limit;
      send(dst, tag, out.subspan(at, std::min(limit, out.size() - at)));
    }
    if (k < in_rounds) {
      const std::size_t at = k * limit;
      recv(src, tag, in.subspan(at, std::min(limit, in.size() - at)));
    }
  }
}

void Communicator::alltoall(std::span<const double> sendbuf, std::span<double> recvbuf,
                            std::size_t block) {
  if (sendbuf.size() != block * static_cast<std::size_t>(size_) ||
      recvbuf.size() != block * static_cast<std::size_t>(size_))
    throw std::length_error("alltoall: buffer/block mismatch");
  std::memcpy(recvbuf.data() + static_cast<std::size_t>(rank_) * block,
              sendbuf.data() + static_cast<std::size_t>(rank_) * block,
              block * sizeof(double));
  for (int s = 1; s < size_; ++s) {
    const int to = (rank_ + s) % size_;
    const int from = (rank_ - s + size_) % size_;
    exchange(to, from, kTagAlltoall,
             sendbuf.subspan(static_cast<std::size_t>(to) * block, block),
             recvbuf.subspan(static_cast<std::size_t>(from) * block, block));
  }
}

std::vector<double> Communicator::alltoallv(
    const std::vector<std::vector<double>>& outgoing) {
  if (outgoing.size() != static_cast<std::size_t>(size_))
    throw std::length_error("alltoallv: need one outgoing vector per rank");
  // Counts first (as one-double messages), then payloads; both legs run the
  // shifted schedule.  Counts arrive over the wire, so they are validated
  // before they size any allocation.
  std::vector<std::size_t> counts(static_cast<std::size_t>(size_));
  counts[static_cast<std::size_t>(rank_)] = outgoing[static_cast<std::size_t>(rank_)].size();
  for (int s = 1; s < size_; ++s) {
    const int to = (rank_ + s) % size_;
    const int from = (rank_ - s + size_) % size_;
    const double c = static_cast<double>(outgoing[static_cast<std::size_t>(to)].size());
    send(to, kTagAlltoallv, std::span<const double>(&c, 1));
    double in = 0.0;
    recv(from, kTagAlltoallv, std::span<double>(&in, 1));
    counts[static_cast<std::size_t>(from)] = checked_count(in);
  }
  std::vector<std::size_t> offsets(static_cast<std::size_t>(size_) + 1, 0);
  for (int peer = 0; peer < size_; ++peer)
    offsets[static_cast<std::size_t>(peer) + 1] =
        offsets[static_cast<std::size_t>(peer)] + counts[static_cast<std::size_t>(peer)];
  std::vector<double> merged(offsets.back());
  // An empty slice may come with null data(), which memcpy must not see.
  if (counts[static_cast<std::size_t>(rank_)] > 0)
    std::memcpy(merged.data() + offsets[static_cast<std::size_t>(rank_)],
                outgoing[static_cast<std::size_t>(rank_)].data(),
                counts[static_cast<std::size_t>(rank_)] * sizeof(double));
  for (int s = 1; s < size_; ++s) {
    const int to = (rank_ + s) % size_;
    const int from = (rank_ - s + size_) % size_;
    const std::size_t n = counts[static_cast<std::size_t>(from)];
    exchange(to, from, kTagAlltoallv, outgoing[static_cast<std::size_t>(to)],
             std::span<double>(merged.data() + offsets[static_cast<std::size_t>(from)], n));
  }
  return merged;
}

void Communicator::allgatherv(std::span<const double> local, std::span<double> full,
                              const std::vector<std::size_t>& offsets) {
  if (offsets.size() != static_cast<std::size_t>(size_) + 1)
    throw std::length_error("allgatherv: offsets must have size+1 entries");
  constexpr int kTagGather = -105;
  if (!local.empty())
    std::memcpy(full.data() + offsets[static_cast<std::size_t>(rank_)],
                local.data(), local.size() * sizeof(double));
  for (int s = 1; s < size_; ++s) {
    const int to = (rank_ + s) % size_;
    const int from = (rank_ - s + size_) % size_;
    const std::size_t at = offsets[static_cast<std::size_t>(from)];
    const std::size_t len = offsets[static_cast<std::size_t>(from) + 1] - at;
    exchange(to, from, kTagGather, local, full.subspan(at, len));
  }
}

void World::run(const std::function<void(Communicator&)>& fn) {
  std::vector<std::thread> threads;
  const int n = transport_.size();
  threads.reserve(static_cast<std::size_t>(n));
  std::mutex err_mutex;
  std::exception_ptr first_error;
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      Communicator comm(transport_, r);
      try {
        fn(comm);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace npb::msg
