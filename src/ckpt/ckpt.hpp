#pragma once

// Durable checkpoint/restart — the crash-consistent half of the recovery
// story.  fault::StepRunner makes a time step the retry unit while the
// process survives; this layer gives the runner's registered spans an
// on-disk form so a SIGKILLed npbrun resumes from the last completed step
// instead of losing the run:
//
//   header   magic "NPBCKPT1", format version, benchmark name, problem
//            class, mode, runtime, team width, step number, per-span byte
//            table, CRC32C over the whole header
//   payload  the registered spans back to back, CRC32C over all of them
//
// Writes are atomic and verified: stream the image to `<file>.tmp`, fsync,
// re-read it in chunks (the header as written, a payload whose CRC equals
// the trailer, the exact length), rename over the final path, fsync the
// directory.  A failed readback (the ckpt:corrupt fault's choke point, or a
// real medium error) discards the temp file and keeps the previous good
// checkpoint, so a corrupted write never becomes a resume source.  Resume
// validates magic, version, header CRC, every metadata field and the span
// layout against the running configuration, then the payload CRC, before a
// single byte lands in a live array; any mismatch is a CkptError naming the
// offending field.
//
// A Session is one run's file: its directory and paths, commit() and
// load().  ScopedCkptSession installs it in a threadctx slot (like the fault
// injector) in the driver wrapper, and the driver's fault::StepRunner reads
// its options and decides when to load, commit and stop.
//
// Layering: depends on common (crc32c, threadctx) and obs only; the fault
// layer links against it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/options.hpp"
#include "common/threadctx.hpp"

namespace npb::ckpt {

/// A read-only view of one registered span, in registration order.
struct SpanView {
  const void* data = nullptr;
  std::size_t bytes = 0;
};

/// A writable view for restore.
struct MutSpanView {
  void* data = nullptr;
  std::size_t bytes = 0;
};

/// Any checkpoint validation or I/O failure: truncated or corrupt file,
/// stale version, metadata that does not match the running configuration,
/// unreachable directory.  Unrecoverable by retry — the CLI maps it to
/// exit 3.
class CkptError : public std::runtime_error {
 public:
  explicit CkptError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown by StepRunner after the final flush that answers a SIGINT/SIGTERM
/// (or the halt_after_step test knob): the run stopped cleanly at a step
/// boundary and is resumable.  The CLI maps it to exit 4.
class Interrupted : public std::runtime_error {
 public:
  explicit Interrupted(long step)
      : std::runtime_error("interrupted after step " + std::to_string(step) +
                           " (resumable with --resume)"),
        step_(step) {}
  long step() const noexcept { return step_; }

 private:
  long step_;
};

/// Async-signal-safe interrupt flag: the CLI's SIGINT/SIGTERM handler sets
/// it, StepRunner polls it once per step (one relaxed load).
void request_interrupt() noexcept;
bool interrupt_requested() noexcept;
void clear_interrupt() noexcept;

/// The identity a checkpoint is bound to.  Every field is validated on
/// resume: restoring CG state into an EP run, a class S file into a class W
/// run, or a width-2 snapshot into a width-3 team must fail loudly, never
/// silently verify the wrong thing.
struct Meta {
  std::string benchmark;     ///< registry name, e.g. "CG"
  char cls = '?';            ///< problem class letter
  std::uint8_t mode = 0;     ///< npb::Mode as an integer
  std::uint8_t runtime = 0;  ///< npb::Runtime as an integer
  std::int32_t threads = 0;  ///< configured team width
};

inline constexpr std::uint32_t kFormatVersion = 1;

/// Serializes `spans` at `step` under `meta` into the on-disk byte image
/// (header + header CRC + payload + payload CRC).  Exposed for the format
/// fuzz tests.
std::vector<unsigned char> encode(const Meta& meta, long step,
                                  const std::vector<SpanView>& spans);

/// Validates a byte image end to end against `expected` and the span
/// layout, throwing CkptError on the first mismatch; on success returns the
/// recorded step and, when `restore` is non-null, copies the payload into
/// the spans.  `restore` null only validates.
long decode(const std::vector<unsigned char>& bytes, const Meta& expected,
            const std::vector<MutSpanView>* restore);

/// The checkpoint file of one benchmark run: the bound Meta, the options
/// it was opened with and the paths they name.  It decides nothing.
class Session {
 public:
  /// `opts.active()` must hold.  The save path is `<dir>/<bench>-<cls>.ckpt`
  /// (the registry benchmark name); an explicit `opts.resume_path` overrides
  /// the load side only.
  Session(Meta meta, const CkptOptions& opts);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const CkptOptions& options() const noexcept { return opts_; }
  /// Empty when the session is resume-only (no directory configured).
  const std::string& save_path() const noexcept { return save_path_; }
  /// Empty unless the options ask to resume.
  const std::string& load_path() const noexcept { return load_path_; }

  /// Reads, validates and restores the checkpoint at load_path() into
  /// `spans`; records ckpt/restored and returns the restored step.  Throws
  /// CkptError on any validation failure.
  long load(const std::vector<MutSpanView>& spans);

  /// Durably commits `spans` (only read) at `step` to save_path(): temp
  /// file, fsync, chunked readback, atomic rename, directory fsync.  Records
  /// ckpt/saved and returns true on commit; a failed readback (bit rot, or
  /// `inject_corrupt` — the ckpt:corrupt fault flips one payload bit in the
  /// file after the CRCs are computed) discards the temp file, records
  /// ckpt/crc_fail and returns false, keeping the last good checkpoint.
  /// Environmental failures (an unwritable directory) throw CkptError.
  bool commit(long step, const std::vector<MutSpanView>& spans,
              bool inject_corrupt);

 private:
  Meta meta_;
  CkptOptions opts_;
  std::string save_path_;
  std::string load_path_;
};

/// The session governing the calling thread (installed by ScopedCkptSession,
/// inherited by team workers through the threadctx snapshot), or null.
inline Session* current() noexcept {
  return static_cast<Session*>(threadctx::current().ckpt_session);
}

/// Installs a Session for the current scope when the options are active;
/// inactive options install nothing and cost nothing.  One per benchmark
/// run, in the driver wrapper, next to ScopedFaultSession.
class ScopedCkptSession {
 public:
  ScopedCkptSession(Meta meta, const CkptOptions& opts) {
    if (!opts.active()) return;
    session_ = new Session(std::move(meta), opts);
    threadctx::Slots next = threadctx::current();
    next.ckpt_session = session_;
    prev_ = threadctx::exchange(next);
  }
  ~ScopedCkptSession() {
    if (session_ != nullptr) threadctx::exchange(prev_);
    delete session_;
  }

  ScopedCkptSession(const ScopedCkptSession&) = delete;
  ScopedCkptSession& operator=(const ScopedCkptSession&) = delete;

 private:
  Session* session_ = nullptr;
  threadctx::Slots prev_{};
};

}  // namespace npb::ckpt
