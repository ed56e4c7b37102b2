#include "msg/shm.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <new>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <ctime>
#endif

#include "common/crc32c.hpp"
#include "fault/fault.hpp"
#include "msg/transport.hpp"
#include "obs/snapshot_io.hpp"

namespace npb::msg {
namespace {

/// Upper bound on a parked wait before re-checking the abort flag; also the
/// worst case cost of a missed futex wakeup (the waiting-flag handshake is
/// an optimization, not the correctness story).
constexpr long kParkMs = 50;

/// `pause` iterations a waiter spins before it parks on the futex: about
/// 30 µs where one pause takes ~30 ns (a 4-vCPU Xeon KVM guest, family 6
/// model 143), a few µs on cores with a short pause.  A peer that answers
/// within the spin — a ping-pong partner, a collective's lock-step
/// neighbour, a barrier straggler — then costs neither side a futex park
/// and wake; on that guest the spin took a one-way 28 KB message from 26 to
/// 18 µs.  A peer that takes longer costs the waiter only the spin.
constexpr int kSpinPauses = 1 << 10;

/// A wire count beyond this is corruption, not a message (2^40 doubles = 8 TiB).
constexpr std::uint64_t kMaxWireDoubles = std::uint64_t{1} << 40;

#if defined(__linux__)

/// Raw futex, deliberately WITHOUT FUTEX_PRIVATE_FLAG: these words live in a
/// MAP_SHARED segment and must wake across processes (libstdc++'s
/// atomic::wait uses private futexes and would not).
void futex_wait_ms(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                   long ms) {
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = (ms % 1000) * 1000000L;
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), FUTEX_WAIT,
          expected, &ts, nullptr, 0);
}

void futex_wake_all(std::atomic<std::uint32_t>& word) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), FUTEX_WAKE,
          std::numeric_limits<int>::max(), nullptr, nullptr, 0);
}

#else  // portable fallback: short sleep instead of a kernel park

void futex_wait_ms(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                   long /*ms*/) {
  if (word.load(std::memory_order_acquire) == expected)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void futex_wake_all(std::atomic<std::uint32_t>&) {}

#endif

/// One spin-wait hint: hands pipeline resources to a sibling hyperthread
/// and spares the memory-order flush when the awaited store lands.
void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins up to kSpinPauses for `word` to leave `seen`; true if it did, in
/// which case the caller skips the park.
bool spin_until_changed(const std::atomic<std::uint32_t>& word,
                        std::uint32_t seen) noexcept {
  for (int i = 0; i < kSpinPauses; ++i) {
    if (word.load(std::memory_order_acquire) != seen) return true;
    cpu_relax();
  }
  return false;
}

static_assert(std::atomic<std::uint32_t>::is_always_lock_free &&
                  std::atomic<std::uint64_t>::is_always_lock_free,
              "shm transport needs lock-free atomics in shared memory");
static_assert((kShmRingBytes & (kShmRingBytes - 1)) == 0,
              "free-running 32-bit cursors require a power-of-two capacity");

/// One directed byte ring, single producer (src) / single consumer (dst).
/// head/tail are free-running 32-bit cursors: used = tail - head is exact
/// under wraparound because 2^32 is a multiple of the capacity.  The
/// waiting flags save a futex syscall on the fast path; a missed wakeup is
/// bounded by kParkMs.
struct alignas(64) Ring {
  alignas(64) std::atomic<std::uint32_t> head{0};  ///< consumer cursor
  alignas(64) std::atomic<std::uint32_t> tail{0};  ///< producer cursor
  alignas(64) std::atomic<std::uint32_t> prod_waiting{0};
  alignas(64) std::atomic<std::uint32_t> cons_waiting{0};
  alignas(64) unsigned char buf[kShmRingBytes];
};

struct alignas(64) Header {
  int nprocs = 0;
  alignas(64) std::atomic<std::uint32_t> abort_flag{0};
  alignas(64) std::atomic<std::uint32_t> bar_seq{0};
  alignas(64) std::atomic<std::uint32_t> bar_count{0};
  alignas(64) std::atomic<std::uint64_t> heartbeat[kMaxShmProcs]{};
};

void check_abort(const Header& hdr) {
  if (hdr.abort_flag.load(std::memory_order_acquire) != 0)
    throw std::runtime_error("shm: run aborted");
}

/// Streams `len` bytes into the ring, blocking on a full ring.  Chunked, so
/// messages larger than the ring flow through it; safe because exactly one
/// process writes this ring.
void ring_write(Ring& r, const Header& hdr, const unsigned char* data,
                std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const std::uint32_t tail = r.tail.load(std::memory_order_relaxed);
    const std::uint32_t head = r.head.load(std::memory_order_acquire);
    const std::size_t space = kShmRingBytes - static_cast<std::uint32_t>(tail - head);
    if (space == 0) {
      if (spin_until_changed(r.head, head)) continue;
      r.prod_waiting.store(1, std::memory_order_seq_cst);
      futex_wait_ms(r.head, head, kParkMs);
      r.prod_waiting.store(0, std::memory_order_relaxed);
      check_abort(hdr);
      continue;
    }
    const std::size_t pos = tail & (kShmRingBytes - 1);
    const std::size_t chunk = std::min(std::min(len - done, space), kShmRingBytes - pos);
    std::memcpy(r.buf + pos, data + done, chunk);
    done += chunk;
    r.tail.store(tail + static_cast<std::uint32_t>(chunk), std::memory_order_release);
    if (r.cons_waiting.load(std::memory_order_seq_cst) != 0) futex_wake_all(r.tail);
  }
}

/// Streams `len` bytes out of the ring, blocking on an empty ring.
void ring_read(Ring& r, const Header& hdr, unsigned char* out, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const std::uint32_t head = r.head.load(std::memory_order_relaxed);
    const std::uint32_t tail = r.tail.load(std::memory_order_acquire);
    const std::size_t avail = static_cast<std::uint32_t>(tail - head);
    if (avail == 0) {
      if (spin_until_changed(r.tail, tail)) continue;
      r.cons_waiting.store(1, std::memory_order_seq_cst);
      futex_wait_ms(r.tail, tail, kParkMs);
      r.cons_waiting.store(0, std::memory_order_relaxed);
      check_abort(hdr);
      continue;
    }
    const std::size_t pos = head & (kShmRingBytes - 1);
    const std::size_t chunk = std::min(std::min(len - done, avail), kShmRingBytes - pos);
    std::memcpy(out + done, r.buf + pos, chunk);
    done += chunk;
    r.head.store(head + static_cast<std::uint32_t>(chunk), std::memory_order_release);
    if (r.prod_waiting.load(std::memory_order_seq_cst) != 0) futex_wake_all(r.head);
  }
}

/// Wire framing ahead of each message's doubles.  Both CRCs are CRC32C:
/// payload_crc covers the count doubles that follow the frame, header_crc
/// covers everything before itself — so neither a garbled frame nor a
/// garbled payload can be consumed as data.
struct MsgFrame {
  std::int64_t tag;
  std::uint64_t count;
  std::uint32_t payload_crc;
  std::uint32_t header_crc;
};

/// A received frame or payload failed CRC verification.  Carries the sender
/// rank (the ring names it) so the supervisor can blame the corrupt source
/// rather than the honest receiver that detected it.
struct FrameCrcError : std::runtime_error {
  int src;
  explicit FrameCrcError(int src_rank)
      : std::runtime_error("shm: message from rank " +
                           std::to_string(src_rank) +
                           " failed CRC verification"),
        src(src_rank) {}
};

/// The forked-process transport: rank r's endpoint over the segment's rings.
/// Each instance lives inside exactly one worker process.  send/barrier
/// cross the fault layer's Proc site — the only site reachable from a
/// forked worker and never from an in-process rank, which is what makes
/// `proc:kill` specs safe to parse at all.
class ShmTransport final : public Transport {
 public:
  ShmTransport(Header* hdr, Ring* rings, int rank)
      : hdr_(hdr), rings_(rings), rank_(rank), n_(hdr->nprocs),
        pending_(static_cast<std::size_t>(hdr->nprocs)) {}

  int size() const noexcept override { return n_; }

  /// Half a ring minus the frame: a chunk this size always fits in an
  /// empty ring, and a sender running one lock-step round ahead of its
  /// consumer can park at most transiently (the consumer is at most one
  /// round behind and will drain).  Guarantees the pairwise collectives
  /// cannot assemble a cycle of full-ring blocked senders — the failure
  /// mode of a symmetric exchange whose messages exceed ring capacity.
  std::size_t eager_limit() const noexcept override {
    return (kShmRingBytes / 2 - sizeof(MsgFrame)) / sizeof(double);
  }

  void send(int src, int dst, int tag, std::span<const double> data) override {
    beat();
    fault::on_site(fault::Site::Proc, rank_);
    Ring& r = ring(src, dst);
    MsgFrame frame{tag, data.size(), 0, 0};
    frame.payload_crc = crc::crc32c(data.data(), data.size() * sizeof(double));
    frame.header_crc = crc::crc32c(&frame, offsetof(MsgFrame, header_crc));
    // A proc:corrupt spec models bit rot between CRC stamping and the ring
    // write: one bit flips in what actually hits the wire, the CRCs stay
    // stale, and the receiver must detect the mismatch and blame this rank.
    if (fault::should_corrupt(fault::Site::Proc, rank_)) {
      if (data.empty()) {
        frame.payload_crc ^= 0x10;  // header_crc no longer matches
      } else {
        std::vector<double> tainted(data.begin(), data.end());
        auto* bytes = reinterpret_cast<unsigned char*>(tainted.data());
        bytes[tainted.size() * sizeof(double) / 2] ^= 0x10;
        ring_write(r, *hdr_, reinterpret_cast<const unsigned char*>(&frame),
                   sizeof frame);
        ring_write(r, *hdr_, bytes, tainted.size() * sizeof(double));
        return;
      }
    }
    ring_write(r, *hdr_, reinterpret_cast<const unsigned char*>(&frame), sizeof frame);
    ring_write(r, *hdr_, reinterpret_cast<const unsigned char*>(data.data()),
               data.size() * sizeof(double));
  }

  std::vector<double> recv(int dst, int src, int tag) override {
    beat();
    auto& by_tag = pending_[static_cast<std::size_t>(src)];
    if (const auto it = by_tag.find(tag); it != by_tag.end() && !it->second.empty()) {
      std::vector<double> out = std::move(it->second.front());
      it->second.pop_front();
      return out;
    }
    // Drain the ring until the wanted tag shows up; other tags from the same
    // source are parked in arrival order so per-(src, tag) FIFO holds.
    Ring& r = ring(src, dst);
    for (;;) {
      MsgFrame frame;
      ring_read(r, *hdr_, reinterpret_cast<unsigned char*>(&frame), sizeof frame);
      // Header first: a garbled count must never drive the payload read.
      if (crc::crc32c(&frame, offsetof(MsgFrame, header_crc)) != frame.header_crc)
        throw FrameCrcError(src);
      if (frame.count > kMaxWireDoubles)
        throw std::runtime_error("shm: corrupt message frame");
      std::vector<double> payload(frame.count);
      ring_read(r, *hdr_, reinterpret_cast<unsigned char*>(payload.data()),
                payload.size() * sizeof(double));
      if (crc::crc32c(payload.data(), payload.size() * sizeof(double)) !=
          frame.payload_crc)
        throw FrameCrcError(src);
      if (frame.tag == tag) return payload;
      by_tag[static_cast<int>(frame.tag)].push_back(std::move(payload));
    }
  }

  void barrier(int /*rank*/) override {
    beat();
    fault::on_site(fault::Site::Proc, rank_);
    // Central futex barrier: the last arriver resets the count and bumps the
    // sequence; everyone else spins, then parks, on the sequence word.
    const std::uint32_t seq = hdr_->bar_seq.load(std::memory_order_acquire);
    if (hdr_->bar_count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        static_cast<std::uint32_t>(n_)) {
      hdr_->bar_count.store(0, std::memory_order_relaxed);
      hdr_->bar_seq.store(seq + 1, std::memory_order_release);
      futex_wake_all(hdr_->bar_seq);
    } else if (!spin_until_changed(hdr_->bar_seq, seq)) {
      while (hdr_->bar_seq.load(std::memory_order_acquire) == seq) {
        futex_wait_ms(hdr_->bar_seq, seq, kParkMs);
        check_abort(*hdr_);
      }
    }
  }

 private:
  Ring& ring(int src, int dst) noexcept {
    return rings_[static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(dst)];
  }

  /// Liveness signal for the parent's watchdog: bumped on every transport
  /// call, so "stale heartbeat" means "not communicating", which for these
  /// benchmarks' communication cadence means stuck.
  void beat() noexcept {
    hdr_->heartbeat[static_cast<std::size_t>(rank_)].fetch_add(
        1, std::memory_order_relaxed);
  }

  Header* hdr_;
  Ring* rings_;
  int rank_;
  int n_;
  /// Per-source parking lot for messages read off the ring while looking
  /// for a different tag.
  std::vector<std::unordered_map<int, std::deque<std::vector<double>>>> pending_;
};

// ---- result plane: one pipe per worker, a small framed blob each ----------

constexpr std::uint32_t kBlobMagic = 0x4e504253;  // "NPBS"

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  unsigned char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  out.insert(out.end(), b, b + sizeof v);
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  unsigned char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  out.insert(out.end(), b, b + sizeof v);
}

bool get_u32(const std::vector<unsigned char>& in, std::size_t& at, std::uint32_t& v) {
  if (in.size() - at < sizeof v || at > in.size()) return false;
  std::memcpy(&v, in.data() + at, sizeof v);
  at += sizeof v;
  return true;
}

bool get_u64(const std::vector<unsigned char>& in, std::size_t& at, std::uint64_t& v) {
  if (in.size() - at < sizeof v || at > in.size()) return false;
  std::memcpy(&v, in.data() + at, sizeof v);
  at += sizeof v;
  return true;
}

void write_all(int fd, const std::vector<unsigned char>& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // parent is gone; nothing useful left to do
    }
    done += static_cast<std::size_t>(n);
  }
}

/// Worker-process main.  Exits 0 with an ok blob, 3 with an error blob;
/// anything else (a signal, an unexpected exit code) means the worker died
/// and the parent charges a lost shard.  _exit, not exit: a fork twin must
/// not run the parent's atexit handlers or flush its inherited buffers.
[[noreturn]] void child_main(int fd, Header* hdr, Ring* rings, int rank,
                             const fault::FaultOptions& fault_opts,
                             const ShardBody& body) {
  // The fork twin inherits the parent's accumulated counters; this shard's
  // snapshot must cover only its own run.
  obs::ObsRegistry::instance().reset();
  std::vector<unsigned char> blob;
  try {
    std::vector<double> payload;
    {
      // A fresh process, so spec occurrence counters start from zero in
      // every attempt — persist-like behavior for degraded re-runs.
      fault::ScopedFaultSession session(fault_opts);
      ShmTransport transport(hdr, rings, rank);
      Communicator comm(transport, rank);
      payload = body(comm);
    }
    const obs::Snapshot snap = obs::ObsRegistry::instance().snapshot();
    put_u32(blob, kBlobMagic);
    put_u32(blob, 0);
    put_u64(blob, payload.size());
    for (const double v : payload) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      put_u64(blob, bits);
    }
    std::vector<unsigned char> snap_bytes;
    obs::serialize_snapshot(snap, snap_bytes);
    put_u64(blob, snap_bytes.size());
    blob.insert(blob.end(), snap_bytes.begin(), snap_bytes.end());
    write_all(fd, blob);
    _exit(0);
  } catch (const FrameCrcError& e) {
    // Status-2 blob: corrupt bytes detected on the wire.  The parent blames
    // the *sender* rank carried here, not this (honest) receiver.
    blob.clear();
    put_u32(blob, kBlobMagic);
    put_u32(blob, 2);
    put_u32(blob, static_cast<std::uint32_t>(e.src));
    write_all(fd, blob);
    _exit(3);
  } catch (const std::exception& e) {
    blob.clear();
    put_u32(blob, kBlobMagic);
    put_u32(blob, 1);
    const std::string what = e.what();
    put_u64(blob, what.size());
    blob.insert(blob.end(), what.begin(), what.end());
    write_all(fd, blob);
    _exit(3);
  } catch (...) {
    _exit(3);
  }
}

constexpr std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) & ~(a - 1);
}

}  // namespace

ShmRunOutcome run_shm(int nprocs, const fault::FaultOptions& fault_opts,
                      const ShardBody& body) {
  if (nprocs < 1 || nprocs > kMaxShmProcs)
    throw std::invalid_argument("run_shm: procs must be in [1, " +
                                std::to_string(kMaxShmProcs) + "]");

  const std::size_t ring_off = align_up(sizeof(Header), alignof(Ring));
  const std::size_t total =
      ring_off + static_cast<std::size_t>(nprocs) * static_cast<std::size_t>(nprocs) *
                     sizeof(Ring);
  void* mem = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("run_shm: mmap failed");
  Header* hdr = new (mem) Header;
  hdr->nprocs = nprocs;
  Ring* rings = reinterpret_cast<Ring*>(static_cast<unsigned char*>(mem) + ring_off);
  for (int i = 0; i < nprocs * nprocs; ++i) new (rings + i) Ring;

  struct Child {
    pid_t pid = -1;
    int fd = -1;
    std::vector<unsigned char> blob;
    bool exited = false;
    bool eof = false;
    bool killed_by_us = false;
    int status = 0;
    std::uint64_t hb = 0;
    std::chrono::steady_clock::time_point hb_at;
  };
  std::vector<Child> kids(static_cast<std::size_t>(nprocs));
  ShmRunOutcome out;
  out.payloads.resize(static_cast<std::size_t>(nprocs));

  auto kill_started = [&] {
    for (Child& k : kids) {
      if (k.pid > 0 && !k.exited) {
        ::kill(k.pid, SIGKILL);
        ::waitpid(k.pid, nullptr, 0);
        k.exited = true;
      }
      if (k.fd >= 0) {
        ::close(k.fd);
        k.fd = -1;
      }
    }
  };

  for (int r = 0; r < nprocs; ++r) {
    int fds[2];
    if (::pipe(fds) != 0) {
      kill_started();
      ::munmap(mem, total);
      throw std::runtime_error("run_shm: pipe failed");
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      for (int q = 0; q < r; ++q)
        if (kids[static_cast<std::size_t>(q)].fd >= 0)
          ::close(kids[static_cast<std::size_t>(q)].fd);
      ::close(fds[0]);
      child_main(fds[1], hdr, rings, r, fault_opts, body);
    }
    ::close(fds[1]);
    if (pid < 0) {
      ::close(fds[0]);
      kill_started();
      ::munmap(mem, total);
      throw std::runtime_error("run_shm: fork failed");
    }
    Child& k = kids[static_cast<std::size_t>(r)];
    k.pid = pid;
    k.fd = fds[0];
    k.hb_at = std::chrono::steady_clock::now();
  }

  // SIGKILL every live worker and poison the segment.  Workers parked in a
  // futex don't need a wake — the kill lands regardless; the flag covers a
  // worker mid-park on a non-Linux sleep loop and any future reader.
  auto abort_all = [&] {
    hdr->abort_flag.store(1, std::memory_order_seq_cst);
    for (Child& k : kids) {
      if (!k.exited && k.pid > 0 && !k.killed_by_us) {
        ::kill(k.pid, SIGKILL);
        k.killed_by_us = true;
      }
    }
  };

  auto mark_lost = [&](int rank) {
    for (const int l : out.lost_ranks)
      if (l == rank) return;
    out.lost_ranks.push_back(rank);
  };

  // Supervision loop: drain result pipes, reap exits, watch heartbeats.
  // Terminates unconditionally — every child either reports and exits, dies
  // (waitpid sees it), or goes silent past the watchdog (we kill it).
  for (;;) {
    bool all_done = true;
    for (const Child& k : kids) all_done = all_done && k.exited && k.eof;
    if (all_done) break;

    std::vector<pollfd> pfds;
    std::vector<int> pfd_rank;
    for (int r = 0; r < nprocs; ++r) {
      if (!kids[static_cast<std::size_t>(r)].eof) {
        pfds.push_back(pollfd{kids[static_cast<std::size_t>(r)].fd, POLLIN, 0});
        pfd_rank.push_back(r);
      }
    }
    if (pfds.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } else {
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 20);
      for (std::size_t i = 0; i < pfds.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Child& k = kids[static_cast<std::size_t>(pfd_rank[i])];
        unsigned char buf[4096];
        const ssize_t n = ::read(k.fd, buf, sizeof buf);
        if (n > 0) {
          k.blob.insert(k.blob.end(), buf, buf + n);
        } else if (n == 0 || (n < 0 && errno != EINTR)) {
          k.eof = true;
          ::close(k.fd);
          k.fd = -1;
        }
      }
    }

    for (int r = 0; r < nprocs; ++r) {
      Child& k = kids[static_cast<std::size_t>(r)];
      if (k.exited) continue;
      int st = 0;
      const pid_t got = ::waitpid(k.pid, &st, WNOHANG);
      if (got != k.pid) continue;
      k.exited = true;
      k.status = st;
      const bool reported = WIFEXITED(st) && (WEXITSTATUS(st) == 0 || WEXITSTATUS(st) == 3);
      if (k.killed_by_us) continue;
      if (!reported) {
        // Crashed or killed from outside: a lost shard.
        mark_lost(r);
        abort_all();
      } else if (WEXITSTATUS(st) == 3) {
        // The body threw and the worker reported it; its peers may now be
        // waiting on messages that will never come, so the run is over.
        abort_all();
      }
    }

    if (fault_opts.watchdog_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      for (int r = 0; r < nprocs; ++r) {
        Child& k = kids[static_cast<std::size_t>(r)];
        if (k.exited || k.killed_by_us) continue;
        const std::uint64_t cur =
            hdr->heartbeat[static_cast<std::size_t>(r)].load(std::memory_order_relaxed);
        if (cur != k.hb) {
          k.hb = cur;
          k.hb_at = now;
        } else if (std::chrono::duration_cast<std::chrono::milliseconds>(now - k.hb_at)
                       .count() > fault_opts.watchdog_ms) {
          // Alive but silent past the watchdog: charge it as lost and put it
          // down; stale-heartbeat hangs must degrade exactly like crashes.
          mark_lost(r);
          ::kill(k.pid, SIGKILL);
          k.killed_by_us = true;
          abort_all();
        }
      }
    }
  }

  // Decode the result blobs.  Workers we killed while tearing the run down
  // are skipped — their half-written blobs carry no blame.
  for (int r = 0; r < nprocs; ++r) {
    Child& k = kids[static_cast<std::size_t>(r)];
    if (k.fd >= 0) {
      ::close(k.fd);
      k.fd = -1;
    }
    const bool is_lost = [&] {
      for (const int l : out.lost_ranks)
        if (l == r) return true;
      return false;
    }();
    if (k.killed_by_us && !is_lost) continue;
    if (!WIFEXITED(k.status)) continue;  // already in lost_ranks
    const int code = WEXITSTATUS(k.status);
    std::size_t at = 0;
    std::uint32_t magic = 0, status = 0;
    const bool framed = get_u32(k.blob, at, magic) && magic == kBlobMagic &&
                        get_u32(k.blob, at, status);
    if (code == 3) {
      if (framed && status == 2) {
        std::uint32_t blamed = 0;
        if (get_u32(k.blob, at, blamed) &&
            blamed < static_cast<std::uint32_t>(nprocs)) {
          bool seen = false;
          for (const int b : out.crc_blamed) seen = seen || b == static_cast<int>(blamed);
          if (!seen) out.crc_blamed.push_back(static_cast<int>(blamed));
        } else if (out.error.empty()) {
          out.error = "shard " + std::to_string(r) +
                      " reported a CRC failure with a garbled blame blob";
        }
        continue;
      }
      std::uint64_t len = 0;
      if (framed && status == 1 && get_u64(k.blob, at, len) &&
          k.blob.size() - at >= len) {
        if (out.error.empty())
          out.error.assign(reinterpret_cast<const char*>(k.blob.data() + at),
                           static_cast<std::size_t>(len));
      } else if (out.error.empty()) {
        out.error = "shard " + std::to_string(r) + " failed";
      }
      continue;
    }
    if (code != 0) {
      mark_lost(r);
      continue;
    }
    bool parsed = false;
    std::uint64_t npayload = 0;
    if (framed && status == 0 && get_u64(k.blob, at, npayload) &&
        npayload <= kMaxWireDoubles) {
      std::vector<double> payload(static_cast<std::size_t>(npayload));
      bool ok = true;
      for (double& v : payload) {
        std::uint64_t bits = 0;
        if (!get_u64(k.blob, at, bits)) {
          ok = false;
          break;
        }
        std::memcpy(&v, &bits, sizeof v);
      }
      std::uint64_t snap_len = 0;
      if (ok && get_u64(k.blob, at, snap_len) && k.blob.size() - at >= snap_len) {
        try {
          obs::ShardSnapshot shard;
          shard.rank = r;
          shard.seconds = payload.empty() ? 0.0 : payload[0];
          std::vector<unsigned char> snap_bytes(k.blob.begin() + static_cast<long>(at),
                                                k.blob.begin() +
                                                    static_cast<long>(at + snap_len));
          std::size_t snap_at = 0;
          shard.snap = obs::deserialize_snapshot(snap_bytes, snap_at);
          out.payloads[static_cast<std::size_t>(r)] = std::move(payload);
          out.shards.push_back(std::move(shard));
          parsed = true;
        } catch (const std::exception&) {
          parsed = false;
        }
      }
    }
    // Exit 0 with a truncated or garbled blob means the worker died inside
    // its result write — treat it like any other mid-run death.
    if (!parsed) mark_lost(r);
  }

  ::munmap(mem, total);
  return out;
}

}  // namespace npb::msg
