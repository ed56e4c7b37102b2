#include "ckpt/ckpt.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>

#include "common/crc32c.hpp"
#include "obs/obs.hpp"

namespace npb::ckpt {
namespace {

constexpr unsigned char kMagic[8] = {'N', 'P', 'B', 'C', 'K', 'P', 'T', '1'};
// Hostile-input caps: real checkpoints name one benchmark (<= 8 chars) and
// carry a handful of spans.
constexpr std::uint32_t kMaxNameLen = 64;
constexpr std::uint32_t kMaxSpans = 1024;

std::atomic<bool> g_interrupt{false};

void put_bytes(std::vector<unsigned char>& out, const void* p, std::size_t n) {
  if (n == 0) return;
  const auto* b = static_cast<const unsigned char*>(p);
  out.insert(out.end(), b, b + n);
}

template <class T>
void put(std::vector<unsigned char>& out, T v) {
  put_bytes(out, &v, sizeof v);
}

/// Bounds-checked sequential reader over the raw image: a corrupted length
/// field can shorten any later read, so every read names what it was after
/// and throws CkptError instead of running off the buffer.
struct Reader {
  const std::vector<unsigned char>& b;
  std::size_t at = 0;

  void need(std::size_t n, const char* what) const {
    if (at > b.size() || b.size() - at < n)
      throw CkptError(std::string("checkpoint truncated reading ") + what);
  }
  template <class T>
  T get(const char* what) {
    need(sizeof(T), what);
    T v;
    std::memcpy(&v, b.data() + at, sizeof v);
    at += sizeof v;
    return v;
  }
  std::string get_string(std::size_t n, const char* what) {
    need(n, what);
    std::string s(reinterpret_cast<const char*>(b.data() + at), n);
    at += n;
    return s;
  }
};

/// Reads up to `n` bytes, stopping early only at end of file; -1 on error.
ssize_t read_upto(int fd, void* dst, std::size_t n) {
  auto* p = static_cast<unsigned char*>(dst);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, p + done, n - done);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) return -1;
    if (got == 0) break;
    done += static_cast<std::size_t>(got);
  }
  return static_cast<ssize_t>(done);
}

/// Reads the whole file into one buffer sized from fstat.  A file that is
/// shorter than fstat said by the time it is read comes back short, and
/// decode() rejects it as truncated.
std::vector<unsigned char> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    throw CkptError("cannot open checkpoint '" + path +
                    "': " + std::strerror(errno));
  auto fail = [&](const char* what) {
    const int err = errno;
    ::close(fd);
    throw CkptError(std::string(what) + " checkpoint '" + path +
                    "': " + std::strerror(err));
  };
  struct stat st {};
  if (::fstat(fd, &st) != 0) fail("cannot stat");
  std::vector<unsigned char> bytes(static_cast<std::size_t>(st.st_size));
  const ssize_t got = read_upto(fd, bytes.data(), bytes.size());
  if (got < 0) fail("error reading");
  ::close(fd);
  bytes.resize(static_cast<std::size_t>(got));
  return bytes;
}

/// The readback gate before a commit: the file at `path` must hold exactly
/// `header`, a payload whose CRC32C equals `trailer`, that trailer, and
/// nothing more.  Checked in fixed chunks, so no buffer the size of the
/// image is ever held.
bool file_matches(const std::string& path,
                  const std::vector<unsigned char>& header,
                  std::size_t payload_bytes, std::uint32_t trailer) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  std::vector<unsigned char> buf(
      std::max<std::size_t>(header.size(), 1 << 16));
  const auto read_exact = [&](void* dst, std::size_t n) {
    return read_upto(fd, dst, n) == static_cast<ssize_t>(n);
  };
  bool ok = read_exact(buf.data(), header.size()) &&
            std::memcmp(buf.data(), header.data(), header.size()) == 0;
  std::uint32_t crc = 0;
  for (std::size_t left = payload_bytes; ok && left > 0;) {
    const std::size_t n = std::min(left, buf.size());
    ok = read_exact(buf.data(), n);
    crc = crc::crc32c(buf.data(), n, crc);
    left -= n;
  }
  std::uint32_t stored = 0;
  ok = ok && crc == trailer && read_exact(&stored, sizeof stored) &&
       stored == trailer && read_upto(fd, buf.data(), 1) == 0;
  ::close(fd);
  return ok;
}

void write_all(int fd, const std::string& path, const void* data,
               std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, p + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw CkptError("error writing checkpoint '" + path +
                      "': " + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

/// The image ahead of the payload: magic, version, identity, step, span
/// byte table and the header CRC over all of it.  `Span` is SpanView or
/// MutSpanView.
template <class Span>
std::vector<unsigned char> encode_header(const Meta& meta, long step,
                                         const std::vector<Span>& spans) {
  std::vector<unsigned char> out(std::begin(kMagic), std::end(kMagic));
  out.reserve(64 + meta.benchmark.size() + 8 * spans.size());
  put<std::uint32_t>(out, kFormatVersion);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(meta.benchmark.size()));
  put_bytes(out, meta.benchmark.data(), meta.benchmark.size());
  put<std::uint8_t>(out, static_cast<std::uint8_t>(meta.cls));
  put<std::uint8_t>(out, meta.mode);
  put<std::uint8_t>(out, meta.runtime);
  put<std::uint8_t>(out, 0);  // pad
  put<std::int32_t>(out, meta.threads);
  put<std::int64_t>(out, static_cast<std::int64_t>(step));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(spans.size()));
  for (const Span& s : spans)
    put<std::uint64_t>(out, static_cast<std::uint64_t>(s.bytes));
  put<std::uint32_t>(out, crc::crc32c(out.data(), out.size()));
  return out;
}

/// CRC32C over the spans back to back: the trailer after the payload.
template <class Span>
std::uint32_t payload_crc(const std::vector<Span>& spans) {
  std::uint32_t sum = 0;
  for (const Span& s : spans) sum = crc::crc32c(s.data, s.bytes, sum);
  return sum;
}

void fsync_dir(const std::string& dir) {
  // Best effort: the rename itself is what makes the commit atomic; the
  // directory fsync makes it durable across power loss where supported.
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void request_interrupt() noexcept {
  g_interrupt.store(true, std::memory_order_relaxed);
}
bool interrupt_requested() noexcept {
  return g_interrupt.load(std::memory_order_relaxed);
}
void clear_interrupt() noexcept {
  g_interrupt.store(false, std::memory_order_relaxed);
}

std::vector<unsigned char> encode(const Meta& meta, long step,
                                  const std::vector<SpanView>& spans) {
  std::vector<unsigned char> out = encode_header(meta, step, spans);
  std::size_t payload_bytes = 0;
  for (const SpanView& s : spans) payload_bytes += s.bytes;
  out.reserve(out.size() + payload_bytes + sizeof(std::uint32_t));
  for (const SpanView& s : spans) put_bytes(out, s.data, s.bytes);
  put<std::uint32_t>(out, payload_crc(spans));
  return out;
}

long decode(const std::vector<unsigned char>& bytes, const Meta& expected,
            const std::vector<MutSpanView>* restore) {
  Reader r{bytes};

  r.need(sizeof kMagic, "magic");
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    throw CkptError("checkpoint magic mismatch: not a checkpoint file");
  r.at = sizeof kMagic;

  const auto version = r.get<std::uint32_t>("version");
  if (version != kFormatVersion)
    throw CkptError("checkpoint format version " + std::to_string(version) +
                    " unsupported (this build reads version " +
                    std::to_string(kFormatVersion) + ")");

  const auto name_len = r.get<std::uint32_t>("benchmark name length");
  if (name_len > kMaxNameLen)
    throw CkptError("checkpoint benchmark name length " +
                    std::to_string(name_len) + " implausible (corrupt header)");
  const std::string benchmark = r.get_string(name_len, "benchmark name");
  const auto cls = static_cast<char>(r.get<std::uint8_t>("class"));
  const auto mode = r.get<std::uint8_t>("mode");
  const auto runtime = r.get<std::uint8_t>("runtime");
  r.get<std::uint8_t>("pad");
  const auto threads = r.get<std::int32_t>("threads");
  const auto step = static_cast<long>(r.get<std::int64_t>("step"));
  const auto nspans = r.get<std::uint32_t>("span count");
  if (nspans > kMaxSpans)
    throw CkptError("checkpoint span count " + std::to_string(nspans) +
                    " implausible (corrupt header)");
  std::vector<std::uint64_t> span_bytes(nspans);
  for (std::uint64_t& n : span_bytes) n = r.get<std::uint64_t>("span size");

  const std::size_t header_end = r.at;
  const auto header_crc = r.get<std::uint32_t>("header CRC");
  if (header_crc != crc::crc32c(bytes.data(), header_end))
    throw CkptError("checkpoint header CRC mismatch (corrupt header)");

  // Identity checks: every mismatch is fatal and named, so a checkpoint can
  // never restore into a run it was not taken from.
  if (benchmark != expected.benchmark)
    throw CkptError("checkpoint is for benchmark '" + benchmark +
                    "', not '" + expected.benchmark + "'");
  if (cls != expected.cls)
    throw CkptError(std::string("checkpoint is for class '") + cls +
                    "', not '" + expected.cls + "'");
  if (mode != expected.mode)
    throw CkptError("checkpoint mode " + std::to_string(mode) +
                    " does not match the running mode " +
                    std::to_string(expected.mode));
  if (runtime != expected.runtime)
    throw CkptError("checkpoint runtime " + std::to_string(runtime) +
                    " does not match the running runtime " +
                    std::to_string(expected.runtime));
  if (threads != expected.threads)
    throw CkptError("checkpoint was taken at width " + std::to_string(threads) +
                    ", not the configured --threads=" +
                    std::to_string(expected.threads));
  if (restore != nullptr) {
    if (span_bytes.size() != restore->size())
      throw CkptError("checkpoint carries " +
                      std::to_string(span_bytes.size()) + " spans, this run " +
                      "registered " + std::to_string(restore->size()));
    for (std::size_t i = 0; i < span_bytes.size(); ++i)
      if (span_bytes[i] != (*restore)[i].bytes)
        throw CkptError("checkpoint span " + std::to_string(i) + " is " +
                        std::to_string(span_bytes[i]) + " bytes, this run's " +
                        "is " + std::to_string((*restore)[i].bytes));
  }

  std::size_t payload_bytes = 0;
  for (const std::uint64_t n : span_bytes) {
    if (n > bytes.size())  // overflow-proof: one span cannot exceed the file
      throw CkptError("checkpoint span size implausible (corrupt header)");
    payload_bytes += n;
  }
  const std::size_t payload_at = r.at;
  r.need(payload_bytes, "payload");
  r.at += payload_bytes;
  const auto payload_crc = r.get<std::uint32_t>("payload CRC");
  if (r.at != bytes.size())
    throw CkptError("checkpoint has trailing bytes after the payload CRC");
  if (payload_crc != crc::crc32c(bytes.data() + payload_at, payload_bytes))
    throw CkptError("checkpoint payload CRC mismatch (corrupt payload)");

  if (restore != nullptr) {
    std::size_t at = payload_at;
    for (const MutSpanView& s : *restore) {
      std::memcpy(s.data, bytes.data() + at, s.bytes);
      at += s.bytes;
    }
  }
  return step;
}

Session::Session(Meta meta, const CkptOptions& opts)
    : meta_(std::move(meta)), opts_(opts) {
  if (!opts_.dir.empty()) {
    // One level of mkdir, so `--ckpt-dir=ck` just works in CI scripts.
    if (::mkdir(opts_.dir.c_str(), 0755) != 0 && errno != EEXIST)
      throw CkptError("cannot create checkpoint directory '" + opts_.dir +
                      "': " + std::strerror(errno));
    save_path_ = opts_.dir + "/" + meta_.benchmark + "-" + meta_.cls + ".ckpt";
  }
  if (opts_.resume) {
    load_path_ = opts_.resume_path.empty() ? save_path_ : opts_.resume_path;
    if (load_path_.empty())
      throw CkptError("--resume needs --ckpt-dir or an explicit path");
  }
}

long Session::load(const std::vector<MutSpanView>& spans) {
  const long step = decode(read_file(load_path_), meta_, &spans);
  obs::ObsRegistry::instance().record(obs::counter_id("ckpt/restored"), -1,
                                      static_cast<double>(step));
  return step;
}

bool Session::commit(long step, const std::vector<MutSpanView>& spans,
                     bool inject_corrupt) {
  // The same bytes as encode(), streamed: header, the live spans, then the
  // payload CRC, with no staged copy of the payload.
  const std::vector<unsigned char> header = encode_header(meta_, step, spans);
  const std::uint32_t trailer = payload_crc(spans);

  const std::string tmp = save_path_ + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    throw CkptError("cannot create checkpoint temp file '" + tmp +
                    "': " + std::strerror(errno));
  std::size_t payload_bytes = 0;
  try {
    write_all(fd, tmp, header.data(), header.size());
    for (const MutSpanView& s : spans) {
      write_all(fd, tmp, s.data, s.bytes);
      payload_bytes += s.bytes;
    }
    write_all(fd, tmp, &trailer, sizeof trailer);
    if (inject_corrupt && payload_bytes > 0) {
      // The ckpt:corrupt fault: one payload bit flips in the file after the
      // CRCs are computed — exactly what a medium error between serialize
      // and commit looks like.  The live spans are only read.  The
      // readback verification below must catch it.
      std::size_t at = payload_bytes / 2;
      const MutSpanView* hit = spans.data();
      while (at >= hit->bytes) at -= (hit++)->bytes;
      const auto flipped = static_cast<unsigned char>(
          static_cast<const unsigned char*>(hit->data)[at] ^ 0x10);
      const auto off = static_cast<off_t>(header.size() + payload_bytes / 2);
      if (::pwrite(fd, &flipped, 1, off) != 1)
        throw CkptError("error writing checkpoint '" + tmp +
                        "': " + std::strerror(errno));
    }
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw CkptError("fsync failed on checkpoint temp file '" + tmp +
                    "': " + std::strerror(err));
  }
  ::close(fd);

  // Readback verification before the rename: the previous good checkpoint
  // is only replaced by a file that re-validates end to end.
  if (!file_matches(tmp, header, payload_bytes, trailer)) {
    ::unlink(tmp.c_str());
    obs::ObsRegistry::instance().record(obs::counter_id("ckpt/crc_fail"), -1,
                                        1.0);
    return false;
  }

  if (::rename(tmp.c_str(), save_path_.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw CkptError("cannot commit checkpoint '" + save_path_ +
                    "': " + std::strerror(err));
  }
  fsync_dir(opts_.dir);
  obs::ObsRegistry::instance().record(obs::counter_id("ckpt/saved"), -1, 1.0);
  return true;
}

}  // namespace npb::ckpt
