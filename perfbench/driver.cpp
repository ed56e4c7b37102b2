// perfbench driver: one closed-loop client process that calls the NPB
// kernels through their public entry points (npb::suite(), the msg suite,
// npb::run_instrumented) and reports verified timed sections.
//
//   npb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --scratch DIR --out FILE
//
// A run walks its workload's kernels in rounds.  Each round visits every
// kernel once, in an order drawn from the seed, so the cache and arena state
// one kernel leaves behind does not always land on the same successor.  A
// kernel whose call is long against the rest of the round visits only every
// few rounds (see Runner::plan).  The kernels themselves receive only NPB's
// fixed class inputs, so frozen-reference verification is unchanged by the
// seed.  Every time metric is the median over the run's calls, read at full
// precision from RunResult::seconds.
//
// --trace 0 reports the end-to-end metrics from untraced calls.  --trace 1
// alternates passes with obs switched off and traced passes, and adds the
// benchmark's own extra calls (Checked-policy tax, checkpoint tax, transport
// probes) to report the per-layer metrics.  The last line of stdout is the
// result object; --out also receives every sample and the host reference
// timings.

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cg/cg.hpp"
#include "common/json.hpp"
#include "ft/ft.hpp"
#include "guard.hpp"
#include "mem/mem.hpp"
#include "msg/msg_suite.hpp"
#include "msg/shard.hpp"
#include "npb/registry.hpp"

namespace {

using npb::json::Value;
namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads

struct Kernel {
  std::string name;  // registry name, "BT"
  std::string key;   // metric prefix, "bt"
  npb::RunFn fn = nullptr;
  npb::RunConfig cfg;
  perfbench::Expected want;
};

// The class map is the same in every workload so that cross-workload ratios
// compare equal problems.  CG, MG and IS run at class W because their class S
// timed sections are only 0.3-24 ms.
npb::ProblemClass class_of(const std::string& name) {
  return name == "CG" || name == "MG" || name == "IS" ? npb::ProblemClass::W
                                                      : npb::ProblemClass::S;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// Builds the kernel list of `workload` in the suite's table order; empty
// for an unknown name.
std::vector<Kernel> kernels_of(const std::string& workload,
                               const std::string& ckpt_dir) {
  std::vector<Kernel> out;
  for (const auto& info : npb::suite()) {
    Kernel k;
    k.name = info.name;
    k.key = lower(k.name);
    k.fn = info.fn;
    k.cfg.cls = class_of(k.name);
    if (workload == "java-t2-ckpt") {
      // The checkpoints go to the checkout's disk, where every flush pays
      // two fsyncs.  A cadence of the kernel's last step commits the first
      // step of BT, SP and LU and the last step of every kernel, so each
      // call flushes once or twice and the guard still reads its last step.
      k.cfg.mode = npb::Mode::Java;
      k.cfg.threads = 2;
      k.cfg.ckpt.dir = ckpt_dir;
      k.cfg.ckpt.every = static_cast<int>(perfbench::last_step(k.name, k.cfg.cls));
    } else if (workload == "msg-shm-p2") {
      // EP, CG, FT and IS run as 2 shard processes x 1 thread over shm.
      // BT, SP, LU and MG have no message-passing form; they run at the
      // same width as a native 2-thread team.
      if (const npb::RunFn msg_fn = npb::msg::find_msg_benchmark(k.name)) {
        k.fn = msg_fn;
        k.cfg.mode = npb::Mode::Msg;
        k.cfg.threads = 1;
        k.cfg.msg.procs = 2;
        k.cfg.msg.transport = npb::msg::TransportKind::Shm;
      } else {
        k.cfg.mode = npb::Mode::Native;
        k.cfg.threads = 2;
      }
    } else {
      return {};
    }
    k.want = {k.cfg.cls, k.cfg.mode, k.cfg.threads,
              k.cfg.mode == npb::Mode::Msg ? k.cfg.msg.procs : 0,
              k.cfg.ckpt.active()};
    out.push_back(std::move(k));
  }
  return out;
}

// ---------------------------------------------------------------------------
// One guarded call

struct Call {
  npb::RunResult r;
  double wall = 0.0;   // wall time of the whole call
  double steal = 0.0;  // share of all CPUs' time the host stole meanwhile
  std::string reject;  // empty when the guard accepts the call
  std::uintmax_t ckpt_bytes = 0;
};

// Steal and total ticks of the aggregate cpu line of /proc/stat; zeros
// where the file is unreadable.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0, v = 0.0;
  for (int field = 0; field < 10 && in >> v; ++field) {
    if (field == 7) steal = v;
    total += v;
  }
  return {steal, total};
}

std::string ckpt_path(const Kernel& k) {
  return k.cfg.ckpt.dir + "/" + k.name + "-" + npb::to_string(k.cfg.cls) +
         ".ckpt";
}

// Runs one call of `k` under `cfg` and applies the validity guard.  Traced
// calls go through run_instrumented and read recovery counters from their
// own snapshot; untraced calls read them as deltas of the live registry.
Call guarded_call(const Kernel& k, const npb::RunConfig& cfg, bool traced) {
  Call c;
  perfbench::Expected want = k.want;
  want.mode = cfg.mode;
  want.threads = cfg.threads;
  want.ckpt = cfg.ckpt.active();
  perfbench::Evidence ev;
  if (want.ckpt) {
    // A file left by an earlier call must not vouch for this one.
    ev.ckpt_path = ckpt_path(k);
    std::error_code ec;
    fs::remove(ev.ckpt_path, ec);
    ev.ckpt_meta = npb::ckpt_meta(k.name.c_str(), cfg);
    ev.last_step = perfbench::last_step(k.name, cfg.cls);
  }
  auto& reg = npb::obs::ObsRegistry::instance();
  const perfbench::Recovery before =
      traced ? perfbench::Recovery{} : perfbench::recovery_of(reg.snapshot());
  try {
    const auto [steal0, total0] = cpu_ticks();
    const double t0 = now_s();
    c.r = traced ? npb::run_instrumented(k.fn, cfg) : k.fn(cfg);
    c.wall = now_s() - t0;
    const auto [steal1, total1] = cpu_ticks();
    if (total1 > total0) c.steal = (steal1 - steal0) / (total1 - total0);
  } catch (const std::exception& e) {
    c.reject = std::string("threw: ") + e.what();
    return c;
  }
  if (traced) {
    ev.recovery = perfbench::recovery_of(c.r);
  } else {
    npb::RunResult live;
    live.obs = reg.snapshot();
    live.shards = c.r.shards;
    ev.recovery = perfbench::recovery_of(live) - before;
  }
  c.reject = perfbench::reject_reason(c.r, want, ev);
  if (want.ckpt) {
    std::error_code ec;
    const auto size = fs::file_size(ev.ckpt_path, ec);
    if (!ec) c.ckpt_bytes = size;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Host reference loop: fixed arithmetic over a fixed 1 MiB buffer, timed
// beside every call.  A diagnostic of host speed only; no metric is scaled
// by it.

double reference_loop() {
  static std::vector<double> buf = [] {
    std::vector<double> b(std::size_t{1} << 17);
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = 1.0 + 1.0e-9 * static_cast<double>(i);
    return b;
  }();
  const double t0 = now_s();
  double acc = 0.0;
  for (int rep = 0; rep < 4; ++rep)
    for (const double x : buf) acc = acc * 0.999999 + x;
  const double dt = now_s() - t0;
  static volatile double sink;
  sink = sink + acc;
  return dt;
}

// ---------------------------------------------------------------------------
// Transport probes: a benchmark-owned ShardBody run through msg::run_hybrid
// at the message sizes the msg workload's kernels exchange.  Ping-pong sends
// CG's per-rank allgatherv block (n/2 doubles at class W); all-to-all moves
// FT's transpose block (one of re/im, n1*n2*n3/4 doubles at class S).

struct ProbeResult {
  double pingpong_us = 0.0;   // one-way time of one message
  double alltoall_mibps = 0.0;  // bytes each rank sends per second
};

ProbeResult transport_probe(npb::msg::TransportKind kind) {
  const std::size_t pp_doubles =
      static_cast<std::size_t>(npb::cg_params(npb::ProblemClass::W).n / 2);
  const npb::FtParams ft = npb::ft_params(npb::ProblemClass::S);
  const std::size_t block = static_cast<std::size_t>(ft.n1 * ft.n2 * ft.n3 / 4);
  constexpr int kPingPongs = 200;
  constexpr int kAllToAlls = 20;

  npb::RunConfig cfg;
  cfg.mode = npb::Mode::Msg;
  cfg.threads = 1;
  cfg.msg.procs = 2;
  cfg.msg.transport = kind;
  const npb::msg::ShardBody body = [&](npb::msg::Communicator& comm) {
    std::vector<double> buf(pp_doubles, 1.0);
    const int peer = 1 - comm.rank();
    comm.barrier();
    double t0 = now_s();
    for (int i = 0; i < kPingPongs; ++i) {
      if (comm.rank() == 0) {
        comm.send(peer, 7, buf);
        comm.recv(peer, 7, buf);
      } else {
        comm.recv(peer, 7, buf);
        comm.send(peer, 7, buf);
      }
    }
    const double pp = (now_s() - t0) / (2.0 * kPingPongs);
    std::vector<double> send(2 * block, 1.0), recv(2 * block);
    comm.barrier();
    t0 = now_s();
    for (int i = 0; i < kAllToAlls; ++i) comm.alltoall(send, recv, block);
    const double a2a = now_s() - t0;
    return std::vector<double>{pp, a2a};
  };
  const npb::msg::HybridOutcome h =
      npb::msg::run_hybrid(cfg, [](int) { return true; }, body);
  const std::vector<double>& p0 = h.payloads.at(0);
  const double sent_mib =
      static_cast<double>(block * sizeof(double) * kAllToAlls) / (1 << 20);
  return {p0.at(0) * 1.0e6, sent_mib / p0.at(1)};
}

// ---------------------------------------------------------------------------
// The run

struct Options {
  std::string workload;
  unsigned long long seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;
  std::string out;
};

// Per-kernel samples of one run, one entry per accepted call.
struct Series {
  std::vector<double> seconds;
  std::vector<double> setup;
  std::vector<double> steal;
};

class Runner {
 public:
  Runner(const Options& opt, std::vector<Kernel> kernels)
      : opt_(opt), kernels_(std::move(kernels)), rng_(opt.seed) {
    order_.resize(kernels_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  }

  Value run() {
    // Set-up: one untimed pass fills the arena with every kernel's arrays
    // and faults their pages in, so measured calls all start warm.
    walls_.assign(kernels_.size(), 0.0);
    for (std::size_t i : next_order()) {
      const double c0 = now_s();
      (void)untraced(kernels_[i]);
      walls_[i] = now_s() - c0;
    }
    plan();
    const double deadline = now_s() + opt_.seconds;
    // Stop before a round that would overrun the deadline, after enough
    // untraced rounds for every kernel to have three samples.  A traced
    // round carries the extra calls and may alone fill the time; its
    // length is known only once one has run.
    const int min_rounds =
        opt_.trace ? 1
                   : 2 * *std::max_element(period_.begin(), period_.end()) + 1;
    double last_round_s = 0.0;
    for (int round = 0;; ++round) {
      const double next = opt_.trace ? last_round_s : planned_seconds(round);
      if (round >= min_rounds && now_s() + next >= deadline) break;
      const double r0 = now_s();
      opt_.trace ? traced_round() : untraced_round(round);
      last_round_s = now_s() - r0;
    }
    return opt_.trace ? layer_metrics() : end_to_end_metrics();
  }

  Value detail() const {
    Value d = Value::object();
    Value samples = Value::object();
    for (const auto& [key, s] : series_) {
      Value k = Value::object();
      k["seconds"] = to_array(s.seconds);
      k["setup"] = to_array(s.setup);
      k["steal"] = to_array(s.steal);
      samples[key] = k;
    }
    d["samples"] = samples;
    d["host_ref_s"] = to_array(ref_s_);
    Value rej = Value::array();
    for (const auto& r : rejects_) rej.push_back(r);
    d["rejects"] = rej;
    return d;
  }

  long attempted() const { return attempted_; }
  long failed() const { return static_cast<long>(rejects_.size()); }

 private:
  static Value to_array(const std::vector<double>& v) {
    return Value(Value::Array(v.begin(), v.end()));
  }

  const std::vector<std::size_t>& next_order() {
    std::shuffle(order_.begin(), order_.end(), rng_);
    return order_;
  }

  // A kernel visits a measured round only every period-th round when its
  // call is long against the others', so that it takes at most about a
  // seventh of the run: a 2 s java MG call would otherwise fill 40% of
  // every round, and the rounds it frees give the short kernels, whose
  // calls spread most (IQR 12-22% of the median within a run), more
  // samples at more points in time.  The period stays short enough for three visits, at rounds 0,
  // p and 2p, to fit in the run.
  void plan() {
    const double total = std::accumulate(walls_.begin(), walls_.end(), 0.0);
    period_.assign(kernels_.size(), 1);
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      const double w = walls_[i], rest = total - w;
      if (rest <= 0.0) continue;
      int p = std::max(1, static_cast<int>(std::ceil(6.0 * w / rest)));
      while (p > 1 && (2 * p + 1) * rest + 3 * w > opt_.seconds) --p;
      period_[i] = p;
    }
  }

  bool visits(std::size_t i, int round) const {
    return round % period_[i] == 0;
  }

  // Wall time of `round` as the set-up pass measured its calls.
  double planned_seconds(int round) const {
    double s = 0.0;
    for (std::size_t i = 0; i < kernels_.size(); ++i)
      if (visits(i, round)) s += walls_[i];
    return s;
  }

  // Counts the call, records a rejection, and times the host reference loop.
  bool account(const Kernel& k, const Call& c) {
    ++attempted_;
    ref_s_.push_back(reference_loop());
    if (c.reject.empty()) return true;
    rejects_.push_back(k.name + ": " + c.reject);
    return false;
  }

  bool untraced(const Kernel& k, Call* keep = nullptr) {
    Call c = guarded_call(k, k.cfg, false);
    const bool ok = account(k, c);
    if (keep != nullptr) *keep = std::move(c);
    return ok;
  }

  void untraced_round(int round) {
    for (std::size_t i : next_order()) {
      if (!visits(i, round)) continue;
      const Kernel& k = kernels_[i];
      Call c;
      if (!untraced(k, &c)) continue;
      Series& s = series_[k.key];
      s.seconds.push_back(c.r.seconds);
      s.setup.push_back(c.wall - c.r.seconds);
      s.steal.push_back(c.steal);
    }
  }

  // suite_s sums the kernels' median timed sections; setup_s sums their
  // median untimed wall times, the set-up cost of one pass.
  Value end_to_end_metrics() const {
    Value m = Value::object();
    double suite = 0.0, setup = 0.0;
    for (const Kernel& k : kernels_) {
      const auto it = series_.find(k.key);
      const double med = it == series_.end() ? 0.0 : median(it->second.seconds);
      if (it != series_.end()) setup += median(it->second.setup);
      suite += med;
      put(m, k.key + "_s", med, "s");
    }
    put(m, "suite_s", suite, "s");
    put(m, "setup_s", setup, "s");
    put(m, "peak_rss_mib", peak_rss_mib(), "MiB");
    put(m, "verified_frac",
        attempted_ > 0 ? static_cast<double>(attempted_ - failed()) /
                             static_cast<double>(attempted_)
                       : 0.0,
        "fraction");
    return m;
  }

  // --- traced pass --------------------------------------------------------

  // Per-layer sample lists, keyed by metric name.
  void note(const std::string& name, double v) { layer_[name].push_back(v); }

  void traced_round() {
    // A pass with obs switched off and a traced pass alternate, so
    // obs.overhead_frac compares neighbours in time.  With obs off the
    // guard sees no recovery counters; these calls feed only that metric.
    double untraced_suite = 0.0, traced_suite = 0.0;
    bool complete = true;
    auto& reg = npb::obs::ObsRegistry::instance();
    reg.set_enabled(false);
    for (std::size_t i : next_order()) {
      const Kernel& k = kernels_[i];
      Call c;
      complete = untraced(k, &c) && complete;
      untraced_suite += c.r.seconds;
    }
    reg.set_enabled(true);
    for (std::size_t i : next_order()) {
      const Kernel& k = kernels_[i];
      Call c = guarded_call(k, k.cfg, true);
      if (!account(k, c)) {
        complete = false;
        continue;
      }
      traced_suite += c.r.seconds;
      record_layers(k, c);
      extra_calls(k, c.r.seconds);
    }
    if (complete) note("obs.overhead_frac", traced_suite / untraced_suite - 1.0);
    if (opt_.workload == "msg-shm-p2") {
      for (const auto kind : {npb::msg::TransportKind::Shm,
                              npb::msg::TransportKind::InProc}) {
        const ProbeResult p = transport_probe(kind);
        const std::string t = std::string("msg.") + npb::msg::to_string(kind);
        note(t + ".pingpong_us", p.pingpong_us);
        note(t + ".alltoall_mibps", p.alltoall_mibps);
      }
    }
  }

  // Region, team and memory counters of one traced call.  A hybrid shm run
  // keeps its kernel work in the forked shards, so their snapshots add in.
  void record_layers(const Kernel& k, const Call& c) {
    std::vector<const npb::obs::Snapshot*> snaps{&c.r.obs};
    for (const auto& sh : c.r.shards) snaps.push_back(&sh.snap);
    auto sum = [&](auto field) {
      double v = 0.0;
      for (const auto* s : snaps) v += static_cast<double>(s->*field);
      return v;
    };
    const std::string p = k.key + ".";
    note("kernel." + p + "mop", c.r.mops * c.r.seconds);
    note("kernel." + p + "mops", c.r.mops);
    for (const std::string& region : regions_of(k.key)) {
      double v = 0.0;
      for (const auto* s : snaps)
        for (const auto& rs : s->regions)
          if (rs.name == k.name + "/" + region) v += rs.seconds;
      note("kernel." + p + region + "_s", v);
    }
    note("par." + p + "dispatches", sum(&npb::obs::Snapshot::dispatches_count));
    note("par." + p + "dispatch_s", sum(&npb::obs::Snapshot::dispatch_seconds));
    note("par." + p + "barrier_wait_s",
         sum(&npb::obs::Snapshot::barrier_wait_seconds));
    if (k.key == "lu")
      note("par.lu.pipeline_wait_s",
           sum(&npb::obs::Snapshot::pipeline_wait_seconds));
    note("ckpt." + p + "flushes", sum(&npb::obs::Snapshot::ckpt_saved_count));
    note("ckpt." + p + "bytes", static_cast<double>(c.ckpt_bytes));
    note("mem." + p + "fresh_mib",
         sum(&npb::obs::Snapshot::mem_bytes_allocated) / (1 << 20));
    note("mem." + p + "arena_hit_mib",
         sum(&npb::obs::Snapshot::mem_arena_hit_bytes) / (1 << 20));
    note("npb." + p + "setup_s", c.wall - c.r.seconds);
  }

  // The benchmark's own extra calls, made only where the layer is on the
  // workload's path: the Checked-policy tax (java minus native, both
  // serial) and the checkpoint tax (the same configuration without
  // checkpointing) on java-t2-ckpt.
  void extra_calls(const Kernel& k, double traced_seconds) {
    if (opt_.workload != "java-t2-ckpt") return;
    npb::RunConfig serial;
    serial.cls = k.cfg.cls;
    serial.mode = npb::Mode::Java;
    const Call java = guarded_call(k, serial, false);
    serial.mode = npb::Mode::Native;
    const Call native = guarded_call(k, serial, false);
    npb::RunConfig plain = k.cfg;
    plain.ckpt = {};
    const Call no_ckpt = guarded_call(k, plain, false);
    const bool ok = account(k, java) & account(k, native) & account(k, no_ckpt);
    if (!ok) return;
    note("array." + k.key + ".checked_tax_s", java.r.seconds - native.r.seconds);
    note("ckpt." + k.key + ".tax_s", traced_seconds - no_ckpt.r.seconds);
  }

  static const std::vector<std::string>& regions_of(const std::string& key) {
    static const std::map<std::string, std::vector<std::string>> kRegions = {
        {"bt", {"rhs", "x_solve"}}, {"sp", {"rhs", "x_solve"}},
        {"lu", {"lower", "upper"}}, {"ft", {"fft", "evolve"}},
        {"is", {"rank"}},           {"cg", {"conj_grad"}},
        {"mg", {"resid", "smooth"}}, {"ep", {"blocks"}}};
    return kRegions.at(key);
  }

  Value layer_metrics() const {
    Value m = Value::object();
    for (const Kernel& k : kernels_) {
      const std::string p = k.key + ".";
      // Metrics of layers off this workload's path read 0.
      for (const char* name : {"array.%checked_tax_s", "ckpt.%tax_s"}) {
        std::string n = name;
        n.replace(n.find('%'), 1, p);
        if (layer_.count(n) == 0) put(m, n, 0.0, "s");
      }
    }
    for (const char* name : {"msg.shm.pingpong_us", "msg.inproc.pingpong_us",
                             "msg.shm.alltoall_mibps",
                             "msg.inproc.alltoall_mibps"})
      if (layer_.count(name) == 0) put(m, name, 0.0, unit_of(name));
    for (const auto& [name, v] : layer_) put(m, name, median(v), unit_of(name));
    put(m, "host.ref_s", median(ref_s_), "s");
    return m;
  }

  static std::string unit_of(const std::string& name) {
    auto ends = [&](const char* suffix) {
      const std::size_t n = std::strlen(suffix);
      return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_s")) return "s";
    if (ends("_us")) return "us";
    if (ends("_mibps")) return "MiB/s";
    if (ends("_mib")) return "MiB";
    if (ends(".mops")) return "Mop/s";
    if (ends(".mop")) return "Mop";
    if (ends(".bytes")) return "bytes";
    if (ends("_frac")) return "fraction";
    return "count";
  }

  static void put(Value& m, const std::string& name, double v,
                  const std::string& unit) {
    Value e = Value::object();
    e["value"] = v;
    e["unit"] = unit;
    m[name] = e;
  }

  static double peak_rss_mib() {
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
  }

  Options opt_;
  std::vector<Kernel> kernels_;
  std::mt19937_64 rng_;
  std::vector<std::size_t> order_;
  std::vector<double> walls_;  // call wall times of the set-up pass
  std::vector<int> period_;    // a kernel visits every period-th round
  std::map<std::string, Series> series_;
  std::vector<double> ref_s_;
  std::map<std::string, std::vector<double>> layer_;
  std::vector<std::string> rejects_;
  long attempted_ = 0;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "npb_perfbench: %s\nusage: npb_perfbench --workload "
               "java-t2-ckpt|msg-shm-p2 --seed N --seconds S "
               "--trace 0|1 --scratch DIR --out FILE\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (flag == "--workload") {
        opt.workload = val;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(val);
        have_seconds = opt.seconds > 0.0;
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opt.trace = val == "1";
        have_trace = true;
      } else if (flag == "--scratch") {
        opt.scratch = val;
      } else if (flag == "--out") {
        opt.out = val;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  if (!have_seed || !have_seconds || !have_trace || opt.scratch.empty() ||
      opt.out.empty())
    return usage(
        "--seed, --seconds > 0, --trace, --scratch and --out are required");

  const std::string ckpt_dir = opt.scratch + "/ckpt";
  std::vector<Kernel> kernels = kernels_of(opt.workload, ckpt_dir);
  if (kernels.empty()) return usage(("unknown workload " + opt.workload).c_str());

  // One arena for the process, as npbrun keeps one per invocation: calls
  // after the set-up pass reuse same-shape buffers instead of faulting in
  // fresh pages.
  npb::mem::Arena arena;
  const npb::mem::ScopedArena arena_scope(&arena);

  Runner runner(opt, std::move(kernels));
  Value metrics;
  try {
    fs::create_directories(ckpt_dir);
    metrics = runner.run();
  } catch (const std::exception& e) {
    // Guarded calls catch their own failures; this is the benchmark's own
    // machinery (scratch directory, transport probes) failing.
    std::fprintf(stderr, "npb_perfbench: %s\n", e.what());
    return 1;
  }

  Value result = Value::object();
  result["correct"] = runner.failed() == 0 && runner.attempted() > 0;
  result["attempted"] = runner.attempted();
  result["failed"] = runner.failed();
  result["metrics"] = metrics;
  Value full = result;
  full["workload"] = opt.workload;
  full["seed"] = static_cast<long long>(opt.seed);
  full["seconds"] = opt.seconds;
  full["trace"] = opt.trace;
  full["detail"] = runner.detail();
  std::ofstream(opt.out) << full.dump() << "\n";
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
