#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "harness/deployment.hpp"
#include "harness/scenario_dsl.hpp"
#include "harness/sweep.hpp"
#include "harness/workload.hpp"
#include "netio/mesh.hpp"

namespace perfbench {

using rr::Time;
using namespace rr::harness;

const std::vector<std::pair<std::string, std::string>> kMetricUnits = {
    // End to end.
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"read_p50_us", "us"},
    {"read_p90_us", "us"},
    {"write_p50_us", "us"},
    {"write_p90_us", "us"},
    {"read_rounds_mean", "rounds"},
    {"peak_rss_mb", "MB"},
    // Per layer.
    {"failed_op_ratio", "ratio"},
    {"tail.read_p99_us", "us"},
    {"tail.write_p99_us", "us"},
    {"harness.corpus_parse_ms", "ms"},
    {"harness.build_ms", "ms"},
    {"harness.warmup_ms", "ms"},
    {"harness.cell_ms_p50", "ms"},
    {"harness.cell_ms_max", "ms"},
    {"harness.inject_late_p50_us", "us"},
    {"harness.inject_late_p99_us", "us"},
    {"harness.queue_wait_p50_us", "us"},
    {"sim.events_per_op", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.read_p99_vus", "us"},
    {"runtime.cpu_us_per_op", "us"},
    {"runtime.vcsw_per_op", "count"},
    {"runtime.ivcsw_per_op", "count"},
    {"netio.user_us_per_op", "us"},
    {"netio.sys_us_per_op", "us"},
    {"netio.vcsw_per_op", "count"},
    {"netio.connect_attempts", "count"},
    {"netio.connects", "count"},
    {"netio.corrupt_frames", "count"},
    {"netio.partial_timeouts", "count"},
    {"wire.msgs_per_op", "count"},
    {"wire.bytes_per_op", "bytes"},
    {"wire.hist_slots_per_read", "count"},
    {"wire.hist_resyncs", "count"},
    {"wire.dropped_per_op", "count"},
    {"core.read_rounds_max", "rounds"},
    {"core.write_rounds_mean", "rounds"},
    {"checker.peak_live", "count"},
    {"checker.retired", "count"},
    {"checker.check_ms", "ms"},
    // Traced mode only (main.cpp fills these).
    {"trace.parse_self_ms", "ms"},
    {"trace.run_cell_self_ms", "ms"},
    {"trace.probe_self_ms", "ms"},
    {"trace.build_self_ms", "ms"},
    {"trace.warmup_self_ms", "ms"},
    {"trace.run_self_ms", "ms"},
    {"trace.check_self_ms", "ms"},
    {"trace.op_wait_self_ms", "ms"},
    {"trace.op_exec_self_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.spans_dropped", "count"},
    {"trace.overhead_ops_per_s_pct", "%"},
    {"trace.overhead_read_p50_pct", "%"},
};

Result::Result() {
  for (const auto& [name, unit] : kMetricUnits) {
    metrics.push_back(Metric{name, unit, 0, 0});
  }
}

void Result::set(const std::string& name, double value,
                 std::uint64_t samples) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.samples = samples;
      return;
    }
  }
  fail("internal: unknown metric " + name);
}

double Result::get(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void Result::fail(std::string why) {
  correct = false;
  errors.push_back(std::move(why));
}

bool known_workload(const std::string& name) {
  return name == "des-fault-corpus" || name == "threads-safe-closed" ||
         name == "net-regular-open";
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// getrusage(RUSAGE_SELF) deltas over a timed window.
struct Usage {
  double user_us{0};
  double sys_us{0};
  double vcsw{0};
  double ivcsw{0};

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto us = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e6 +
             static_cast<double>(tv.tv_usec);
    };
    return {us(ru.ru_utime), us(ru.ru_stime),
            static_cast<double>(ru.ru_nvcsw),
            static_cast<double>(ru.ru_nivcsw)};
  }
  Usage operator-(const Usage& o) const {
    return {user_us - o.user_us, sys_us - o.sys_us, vcsw - o.vcsw,
            ivcsw - o.ivcsw};
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A span around one library call; records nothing without a tracer.
class SpanScope {
 public:
  SpanScope(Tracer* t, SpanName name, std::uint32_t parent = 0)
      : t_(t), name_(name), parent_(parent) {
    if (t_ != nullptr) {
      id_ = t_->new_id();
      start_ = now_ns();
    }
  }
  ~SpanScope() {
    if (t_ != nullptr) t_->record(id_, parent_, 0, name_, start_, now_ns());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer* t_;
  SpanName name_;
  std::uint32_t parent_;
  std::uint32_t id_{0};
  std::int64_t start_{0};
};

/// The DES corpus, relative to the repository root.
constexpr const char* kCorpusPath = "perfbench/corpus.scn";

/// threads/net: set-up repetitions before and again after the timed window;
/// setup_s is the median of all of them.
constexpr int kSetupReps = 8;

/// des: one corpus parse before the timed window and one more each time this
/// much of the window has passed, between two items. The host's slow spells
/// last seconds and slowed the parse by up to 75%; set-ups spread over the
/// whole window give a median that does not hang on one spell.
constexpr double kDesSetupEveryS = 0.05;

// ---------------------------------------------------------------------------
// des-fault-corpus

/// A deterministic DES deployment per corpus protocol, driven through
/// Deployment directly: run_cell reports verdicts and traffic but not the
/// per-operation rounds and latencies, which the paper measures.
constexpr int kProbeWrites = 100;
constexpr int kProbeReadsPerReader = 150;

/// Exact counters of one full corpus pass; a pass must repeat bit for bit.
struct PassCounters {
  std::uint64_t ops{0};
  std::uint64_t stuck{0};
  std::uint64_t events{0};
  std::uint64_t msgs{0};
  std::uint64_t bytes{0};
  std::uint64_t dropped{0};
  std::uint64_t fingerprint{0};
  std::uint64_t retired{0};
  std::uint64_t peak_live{0};
  // Probe deployments only.
  std::uint64_t reads{0};
  std::uint64_t writes{0};
  std::uint64_t read_rounds{0};
  std::uint64_t write_rounds{0};
  int read_rounds_max{0};
  std::uint64_t hist_slots{0};
  std::uint64_t hist_resyncs{0};
  std::vector<Time> read_lat;
  std::vector<Time> write_lat;

  friend bool operator==(const PassCounters&, const PassCounters&) = default;
};

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

Distribution dist_of(const std::vector<Time>& v) {
  Reservoir r(v.size() + 1);
  for (const Time x : v) r.add(static_cast<double>(x));
  return Distribution::of({&r});
}

/// Proposition 2: a gv06 READ or WRITE takes at most two rounds.
void check_rounds(Protocol p, int read_max, int write_max, Result& res) {
  if ((p == Protocol::Safe || p == Protocol::Regular) &&
      (read_max > 2 || write_max > 2)) {
    res.fail(std::string(protocol_traits(p).name) +
             " took more than 2 rounds (read " + std::to_string(read_max) +
             ", write " + std::to_string(write_max) + ")");
  }
}

void run_probe(Protocol p, std::uint64_t seed, PassCounters& pc, Result& res,
               double& check_ms) {
  const auto& traits = protocol_traits(p);
  DeploymentOptions opts;
  opts.protocol = p;
  opts.backend = BackendKind::Sim;
  opts.res = traits.resilience_for(1, 1, 2);
  opts.seed = seed;
  if (opts.res.b > 0) {
    opts.faults = FaultPlan::mixed(1, rr::adversary::StrategyKind::Forger, 0);
  }
  Deployment d(opts);
  MixedWorkloadOptions w;
  w.writes = kProbeWrites;
  w.reads_per_reader = kProbeReadsPerReader;
  MixedWorkloadStats ms;
  mixed_workload(d, w, &ms);
  const std::uint64_t events = d.run();
  const std::int64_t c0 = now_ns();
  const auto report = d.check();
  check_ms += static_cast<double>(now_ns() - c0) * 1e-6;
  if (!report.ok()) {
    res.fail(std::string("probe ") + traits.cli_name +
             " check failed: " + report.violations.front());
  }
  const std::uint64_t attempted =
      static_cast<std::uint64_t>(kProbeWrites) +
      static_cast<std::uint64_t>(kProbeReadsPerReader * opts.res.num_readers);
  const std::uint64_t done = ms.reads.count() + ms.writes.count();
  const auto cs = d.checker_stats();
  if (cs.retired + cs.live != attempted) {
    res.fail(std::string("probe ") + traits.cli_name +
             ": ops recorded != ops attempted");
  }
  if (done != attempted) {
    res.fail(std::string("probe ") + traits.cli_name + ": " +
             std::to_string(attempted - done) + " of " +
             std::to_string(attempted) + " ops stuck");
  }
  check_rounds(p, ms.reads.rounds_max(), ms.writes.rounds_max(), res);
  const auto ns = d.stats();
  pc.ops += attempted;
  pc.stuck += attempted - done;
  pc.events += events;
  pc.msgs += ns.messages_sent;
  pc.bytes += ns.bytes_sent;
  pc.dropped += ns.messages_dropped;
  pc.retired += cs.retired;
  pc.peak_live = std::max<std::uint64_t>(pc.peak_live, cs.peak_live);
  pc.reads += ms.reads.count();
  pc.writes += ms.writes.count();
  for (const int r : ms.reads.rounds()) {
    pc.read_rounds += static_cast<std::uint64_t>(r);
    pc.read_rounds_max = std::max(pc.read_rounds_max, r);
  }
  for (const int r : ms.writes.rounds()) {
    pc.write_rounds += static_cast<std::uint64_t>(r);
  }
  pc.hist_slots += ns.hist_slots_shipped;
  pc.hist_resyncs += ns.hist_resyncs;
  pc.read_lat.insert(pc.read_lat.end(), ms.reads.latencies().begin(),
                     ms.reads.latencies().end());
  pc.write_lat.insert(pc.write_lat.end(), ms.writes.latencies().begin(),
                      ms.writes.latencies().end());
}

/// Reads and parses the corpus file; "" on success, else the error.
std::string load_corpus(const std::string& path, std::vector<Scenario>& out) {
  std::string text;
  if (!read_file(path, text)) return "cannot read corpus " + path;
  out.clear();
  for (const auto& block : split_corpus(text)) {
    auto parsed = parse_scenario(block);
    if (!parsed.ok) return "corpus parse error: " + parsed.error;
    out.push_back(std::move(parsed.scenario));
  }
  return "";
}

Result run_des(const Options& o, Tracer* tr) {
  Result res;
  std::vector<Scenario> corpus;
  std::vector<double> setup;
  // One set-up: the corpus parse. One runs before the timed window and more
  // every kDesSetupEveryS inside it, so their median spans the run.
  const auto setup_rep = [&](std::uint32_t parent_span) {
    SpanScope span(tr, SpanName::Parse, parent_span);
    const std::int64_t t0 = now_ns();
    std::vector<Scenario> parsed;
    const std::string err = load_corpus(kCorpusPath, parsed);
    setup.push_back(seconds_since(t0));
    if (!err.empty()) res.fail(err);
    if (corpus.empty()) corpus = std::move(parsed);
  };
  setup_rep(0);
  if (!res.correct) return res;
  std::set<Protocol> protocols;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    Scenario& s = corpus[i];
    if (s.backend != BackendKind::Sim || !s.expect_ok ||
        s.protocol == Protocol::RegularOptimized) {
      res.fail("corpus scenario " + s.name + " is not a DES expect-ok cell");
      return res;
    }
    s.run_seed = derive_seed(o.seed, i);
    protocols.insert(s.protocol);
  }
  if (corpus.empty()) {
    res.fail("empty corpus");
    return res;
  }
  const std::vector<Protocol> probes(protocols.begin(), protocols.end());
  const std::size_t pass_len = corpus.size() + probes.size();

  PassCounters pass;
  PassCounters first;
  int full_passes = 0;
  std::uint64_t ops = 0;
  std::uint64_t stuck = 0;
  std::uint64_t events = 0;
  double check_ms = 0;
  double first_check_ms = 0;
  // Fastest wall time of each pass item (corpus cell or probe) over the
  // passes. Every pass does identical work, and on a shared host
  // interference only ever adds time: a neighbour's burst of cache and
  // memory traffic slowed the heavy cells by up to 60% for seconds at a
  // time, which moved a median across passes by 20% between runs.
  std::vector<double> best_ms(pass_len, std::numeric_limits<double>::max());
  const std::int64_t t0 = now_ns();
  std::int64_t last_setup = t0;
  {
    SpanScope run_span(tr, SpanName::Run);
    for (std::size_t i = 0;; ++i) {
      const std::size_t idx = i % pass_len;
      const std::uint64_t ops_before = pass.ops;
      const std::uint64_t stuck_before = pass.stuck;
      const std::uint64_t events_before = pass.events;
      const std::int64_t c0 = now_ns();
      if (idx < corpus.size()) {
        const Scenario& s = corpus[idx];
        CellVerdict v;
        {
          SpanScope cell(tr, SpanName::RunCell, run_span.id());
          v = SweepEngine::run_cell(s);
        }
        if (v.ok != s.expect_ok) {
          res.fail("corpus cell " + s.name + " verdict mismatch: " +
                   v.first_violation);
        }
        const auto cell_ops = static_cast<std::uint64_t>(v.ops_complete) +
                              static_cast<std::uint64_t>(v.ops_stuck);
        pass.ops += cell_ops;
        pass.stuck += static_cast<std::uint64_t>(v.ops_stuck);
        pass.events += v.events;
        pass.msgs += v.net.messages_sent;
        pass.bytes += v.net.bytes_sent;
        pass.dropped += v.net.messages_dropped;
        pass.fingerprint = pass.fingerprint * 0x100000001b3ULL ^ v.fingerprint;
        pass.retired += v.hist_retired;
        pass.peak_live = std::max(pass.peak_live, v.hist_peak_live);
      } else {
        SpanScope probe(tr, SpanName::Probe, run_span.id());
        run_probe(probes[idx - corpus.size()],
                  derive_seed(o.seed, 1'000'000 + idx), pass, res, check_ms);
      }
      best_ms[idx] =
          std::min(best_ms[idx], static_cast<double>(now_ns() - c0) * 1e-6);
      ops += pass.ops - ops_before;
      stuck += pass.stuck - stuck_before;
      events += pass.events - events_before;
      if (idx + 1 == pass_len) {
        if (full_passes == 0) {
          first = pass;
          first_check_ms = check_ms;
        } else if (!(pass == first)) {
          res.fail("corpus pass " + std::to_string(full_passes + 1) +
                   " differs from pass 1: the DES is not deterministic");
        }
        ++full_passes;
        pass = PassCounters{};
      }
      if (static_cast<double>(now_ns() - last_setup) * 1e-9 >=
          kDesSetupEveryS) {
        setup_rep(run_span.id());
        last_setup = now_ns();
      }
      if (!res.correct) break;
      // Whole passes only: cells differ widely in cost, so a window cut
      // mid-pass would make ops_per_s depend on where the cut fell.
      if (idx + 1 == pass_len && seconds_since(t0) >= o.seconds) break;
    }
  }
  const double wall = seconds_since(t0);
  if (stuck != 0) {
    res.fail(std::to_string(stuck) + " of " + std::to_string(ops) +
             " corpus and probe ops stuck");
  }
  // Throughput of one pass with every item at its best time.
  double pass_ms = 0;
  Reservoir cells(corpus.size() + 1);
  for (std::size_t i = 0; i < pass_len; ++i) {
    pass_ms += best_ms[i];
    if (i < corpus.size()) cells.add(best_ms[i]);
  }
  const double pass_s = pass_ms * 1e-3;
  const Distribution cd = Distribution::of({&cells});
  const Distribution rd = dist_of(first.read_lat);
  const Distribution wd = dist_of(first.write_lat);

  res.attempted = ops;
  res.failed = stuck;
  res.set("setup_s", median(setup), setup.size());
  res.set("ops_per_s", per(static_cast<double>(first.ops), pass_s), ops);
  // Virtual time (the simulated clients' view), exact per seed.
  res.set("read_p50_us", rd.quantile(0.5) / 1e3, rd.count);
  res.set("read_p90_us", rd.quantile(0.9) / 1e3, rd.count);
  res.set("write_p50_us", wd.quantile(0.5) / 1e3, wd.count);
  res.set("write_p90_us", wd.quantile(0.9) / 1e3, wd.count);
  res.set("tail.read_p99_us", rd.quantile(0.99) / 1e3, rd.count);
  res.set("tail.write_p99_us", wd.quantile(0.99) / 1e3, wd.count);
  res.set("read_rounds_mean",
          per(static_cast<double>(first.read_rounds),
              static_cast<double>(first.reads)),
          first.reads);
  res.set("failed_op_ratio",
          per(static_cast<double>(stuck), static_cast<double>(ops)), ops);
  res.set("harness.corpus_parse_ms", median(setup) * 1e3, setup.size());
  res.set("harness.cell_ms_p50", cd.quantile(0.5), cd.count);
  res.set("harness.cell_ms_max", cd.max(), cd.count);
  const auto pass_ops = static_cast<double>(first.ops);
  res.set("sim.events_per_op", per(static_cast<double>(first.events), pass_ops),
          first.ops);
  res.set("sim.events_per_s", per(static_cast<double>(first.events), pass_s),
          events);
  res.set("sim.read_p99_vus", rd.quantile(0.99) / 1e3, rd.count);
  res.set("wire.msgs_per_op", per(static_cast<double>(first.msgs), pass_ops),
          first.ops);
  res.set("wire.bytes_per_op", per(static_cast<double>(first.bytes), pass_ops),
          first.ops);
  res.set("wire.dropped_per_op",
          per(static_cast<double>(first.dropped), pass_ops), first.ops);
  res.set("wire.hist_slots_per_read",
          per(static_cast<double>(first.hist_slots),
              static_cast<double>(first.reads)),
          first.reads);
  res.set("wire.hist_resyncs", static_cast<double>(first.hist_resyncs));
  res.set("core.read_rounds_max", first.read_rounds_max, first.reads);
  res.set("core.write_rounds_mean",
          per(static_cast<double>(first.write_rounds),
              static_cast<double>(first.writes)),
          first.writes);
  res.set("checker.peak_live", static_cast<double>(first.peak_live));
  res.set("checker.retired", static_cast<double>(first.retired));
  res.set("checker.check_ms", first_check_ms, probes.size());
  std::printf("des-fault-corpus: %zu scenarios + %zu probes per pass, %d "
              "passes in %.2f s, best pass %.1f ms, pass fingerprint "
              "%016llx\n",
              corpus.size(), probes.size(), full_passes, wall, pass_ms,
              static_cast<unsigned long long>(first.fingerprint));
  return res;
}

// ---------------------------------------------------------------------------
// threads-safe-closed and net-regular-open: one writer and two reader
// stations driven through Deployment::logged_write / logged_read.

struct Station {
  Station(int idx, std::uint64_t seed, std::size_t slices)
      : index(idx),
        late(1 << 16, derive_seed(seed, 20 + static_cast<std::uint64_t>(idx))),
        qwait(1 << 16,
              derive_seed(seed, 30 + static_cast<std::uint64_t>(idx))) {
    for (std::size_t i = 0; i < slices; ++i) {
      slice_lat.emplace_back(
          1 << 13,
          derive_seed(seed, 1000 + 100 * static_cast<std::uint64_t>(idx) + i));
    }
  }

  int index;                 ///< 0 = writer, j + 1 = reader j
  std::vector<Time> due;     ///< open loop: absolute due times, in order
  std::size_t next{0};       ///< open loop: next entry of `due`
  Time cur_due{0};           ///< due time of the op in flight
  Time free_at{0};           ///< completion time of the previous op
  std::uint64_t issued{0};
  std::uint64_t completed{0};
  std::uint64_t rounds{0};
  int rounds_max{0};
  /// End-to-end latency (ns) per slice of the window, by completion time.
  std::vector<Reservoir> slice_lat;
  Reservoir late;   ///< injection lateness, ns
  Reservoir qwait;  ///< wait for the station to free up, ns
};

/// The stations report their fastest slice of this length (see run_stations).
constexpr Time kSliceNs = 1'000'000'000;

/// Drives the stations of one deployment. Each station's callbacks run one
/// at a time (one op in flight per client), so a station's state is only
/// ever touched by one thread at a time.
class StationLoop {
 public:
  StationLoop(Deployment& d, bool open, Time window_start, Time deadline,
              Tracer* tr, std::uint32_t run_span, std::int64_t clock_offset,
              std::vector<Station>& stations)
      : d_(d),
        open_(open),
        window_start_(window_start),
        deadline_(deadline),
        tr_(tr),
        run_span_(run_span),
        clock_offset_(clock_offset),
        st_(stations) {}

  void start() {
    for (Station& s : st_) {
      if (open_) {
        if (s.due.empty()) continue;
        s.cur_due = s.due[s.next++];
      } else {
        s.cur_due = d_.now();
      }
      issue(s);
    }
  }

 private:
  void issue(Station& s) {
    ++s.issued;
    const Time at = open_ ? s.cur_due : 0;
    if (s.index == 0) {
      d_.logged_write(at, value_for(static_cast<rr::Ts>(s.issued)),
                      [this, &s](const rr::core::WriteResult& r) {
                        done(s, r.invoked_at, r.completed_at, r.rounds);
                      });
    } else {
      d_.logged_read(at, s.index - 1, [this, &s](const rr::core::ReadResult& r) {
        done(s, r.invoked_at, r.completed_at, r.rounds);
      });
    }
  }

  void done(Station& s, Time invoked, Time completed, int rounds) {
    ++s.completed;
    s.rounds += static_cast<std::uint64_t>(rounds);
    s.rounds_max = std::max(s.rounds_max, rounds);
    const Time base = std::max(s.cur_due, s.free_at);
    s.late.add(static_cast<double>(invoked - base));
    s.qwait.add(s.free_at > s.cur_due ? static_cast<double>(s.free_at - s.cur_due)
                                      : 0.0);
    if (completed >= window_start_) {
      const Time slice = (completed - window_start_) / kSliceNs;
      if (slice < s.slice_lat.size()) {
        s.slice_lat[slice].add(
            static_cast<double>(completed - (open_ ? s.cur_due : invoked)));
      }
    }
    if (tr_ != nullptr) {
      const auto op = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(s.index) << 28) | (s.issued & 0xfffffff));
      tr_->record(tr_->new_id(), run_span_, op, SpanName::OpWait,
                  static_cast<std::int64_t>(s.cur_due) + clock_offset_,
                  static_cast<std::int64_t>(invoked) + clock_offset_);
      tr_->record(tr_->new_id(), run_span_, op, SpanName::OpExec,
                  static_cast<std::int64_t>(invoked) + clock_offset_,
                  static_cast<std::int64_t>(completed) + clock_offset_);
    }
    s.free_at = completed;
    if (open_) {
      if (s.next == s.due.size()) return;
      s.cur_due = s.due[s.next++];
    } else {
      if (d_.now() >= deadline_) return;
      s.cur_due = completed;
    }
    issue(s);
  }

  Deployment& d_;
  bool open_;
  Time window_start_;
  Time deadline_;
  Tracer* tr_;
  std::uint32_t run_span_;
  std::int64_t clock_offset_;
  std::vector<Station>& st_;
};

constexpr int kReaders = 2;
constexpr int kWarmupWrites = 20;
constexpr int kWarmupReadsPerReader = 40;
constexpr double kNetRatePerS = 4000;
constexpr double kNetWriteFraction = 0.5;
constexpr std::size_t kCheckerWindow = 64;

Result run_stations(const Options& o, Tracer* tr, bool net) {
  Result res;
  DeploymentOptions opts;
  opts.protocol = net ? Protocol::Regular : Protocol::Safe;
  opts.backend = net ? BackendKind::Net : BackendKind::Threads;
  opts.res = protocol_traits(opts.protocol).resilience_for(1, 1, kReaders);
  opts.seed = derive_seed(o.seed, 1);
  opts.checker_window = kCheckerWindow;
  // A stalled run ends as a timed-out verdict instead of hanging.
  opts.thread_max_wall_ms =
      static_cast<std::uint64_t>(o.seconds * 1000) + 60'000;
  if (net) {
    opts.faults = FaultPlan::mixed(1, rr::adversary::StrategyKind::Forger, 0);
  }

  std::vector<double> setup, build_ms, warmup_ms;
  const std::uint64_t warmup_ops =
      kWarmupWrites + static_cast<std::uint64_t>(kWarmupReadsPerReader) * kReaders;
  // One set-up: build the deployment (on net: bind, connect) and run a
  // zero-think warm-up through it. kSetupReps run before the timed window
  // and kSetupReps after it, so their median spans the run.
  const auto setup_rep = [&]() {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Deployment> dep;
    {
      SpanScope span(tr, SpanName::Build);
      dep = std::make_unique<Deployment>(opts);
    }
    const std::int64_t t1 = now_ns();
    {
      SpanScope span(tr, SpanName::Warmup);
      MixedWorkloadOptions w;
      w.writes = kWarmupWrites;
      w.reads_per_reader = kWarmupReadsPerReader;
      w.write_gap = 0;
      w.read_gap = 0;
      mixed_workload(*dep, w);
      dep->run();
    }
    const std::int64_t t2 = now_ns();
    setup.push_back(static_cast<double>(t2 - t0) * 1e-9);
    build_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    warmup_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    if (dep->backend().timed_out()) res.fail("warm-up timed out");
    return dep;
  };
  std::unique_ptr<Deployment> d;
  for (int rep = 0; rep < kSetupReps && res.correct; ++rep) {
    d.reset();
    d = setup_rep();
  }
  if (!res.correct) return res;

  // The latencies (and the closed loop's ops_per_s) come from the fastest
  // whole one-second slice of the window: the one whose ops have the lowest
  // mean latency, which on the closed loop also completes about the most
  // ops. The host's slow spells last seconds; over the whole window they
  // spread the closed loop's figures of ten runs by 19-20% and pushed the
  // open loop's p90 from 1.1 ms to 4-7 ms in some runs. A slowdown in the
  // code slows every slice.
  const std::size_t slices = std::max<std::size_t>(
      1, static_cast<std::size_t>(o.seconds * 1e9 /
                                  static_cast<double>(kSliceNs)));
  std::vector<Station> stations;
  for (int i = 0; i <= kReaders; ++i) stations.emplace_back(i, o.seed, slices);
  std::uint64_t attempted = 0;
  const Time t0 = d->now() + 1'000'000;  // first due time: 1 ms from now
  if (net) {
    for (const Arrival& a : poisson_schedule(o.seed, kNetRatePerS, o.seconds,
                                             kNetWriteFraction, kReaders)) {
      stations[static_cast<std::size_t>(a.station)].due.push_back(
          t0 + static_cast<Time>(a.offset_ns));
      ++attempted;
    }
  }

  const rr::net::NetStats ns0 = d->stats();
  const Usage u0 = Usage::now();
  const std::int64_t w0 = now_ns();
  {
    SpanScope run_span(tr, SpanName::Run);
    const std::int64_t clock_offset =
        now_ns() - static_cast<std::int64_t>(d->now());
    const Time deadline = t0 + static_cast<Time>(o.seconds * 1e9);
    StationLoop loop(*d, net, t0, deadline, tr, run_span.id(), clock_offset,
                     stations);
    loop.start();
    d->run();
  }
  const double wall = seconds_since(w0);
  const Usage du = Usage::now() - u0;
  const rr::net::NetStats ns1 = d->stats();
  if (d->backend().timed_out()) res.fail("timed run did not quiesce");

  double check_ms = 0;
  {
    SpanScope span(tr, SpanName::Check);
    const std::int64_t c0 = now_ns();
    const auto report = d->check();
    check_ms = static_cast<double>(now_ns() - c0) * 1e-6;
    if (!report.ok()) res.fail("check failed: " + report.violations.front());
  }

  std::uint64_t issued = 0, completed = 0, reads = 0, writes = 0;
  std::uint64_t read_rounds = 0, write_rounds = 0;
  int read_rounds_max = 0, write_rounds_max = 0;
  std::vector<const Reservoir*> rl, wl, late, qwait;
  for (const Station& s : stations) {
    issued += s.issued;
    completed += s.completed;
    late.push_back(&s.late);
    qwait.push_back(&s.qwait);
    if (s.index == 0) {
      writes += s.completed;
      write_rounds += s.rounds;
      write_rounds_max = s.rounds_max;
    } else {
      reads += s.completed;
      read_rounds += s.rounds;
      read_rounds_max = std::max(read_rounds_max, s.rounds_max);
    }
  }
  if (!net) attempted = issued;
  check_rounds(opts.protocol, read_rounds_max, write_rounds_max, res);
  res.attempted = attempted;
  res.failed = attempted - completed;
  // Every attempted op is recorded by the history log, and none fails: an
  // op that never got its quorum, or an arrival never issued behind it,
  // leaves the run quiescent but counts here.
  const auto cs = d->checker_stats();
  if (cs.retired + cs.live != warmup_ops + completed + res.failed) {
    res.fail("ops recorded (" + std::to_string(cs.retired + cs.live) +
             ") != warm-up + timed ops completed + failed (" +
             std::to_string(warmup_ops + completed + res.failed) + ")");
  }
  if (res.failed != 0) {
    res.fail(std::to_string(res.failed) + " of " + std::to_string(attempted) +
             " timed ops failed (stuck or never issued)");
  }

  std::vector<double> slice_mean_us;
  for (std::size_t i = 0; i < slices; ++i) {
    std::vector<const Reservoir*> parts;
    for (const Station& s : stations) parts.push_back(&s.slice_lat[i]);
    const Distribution sd = Distribution::of(parts);
    slice_mean_us.push_back(sd.count > 0
                                ? sd.mean() / 1e3
                                : std::numeric_limits<double>::max());
  }
  const auto best = static_cast<std::size_t>(
      std::min_element(slice_mean_us.begin(), slice_mean_us.end()) -
      slice_mean_us.begin());
  std::uint64_t best_ops = 0;
  for (const Station& s : stations) {
    best_ops += s.slice_lat[best].seen();
    (s.index == 0 ? wl : rl).push_back(&s.slice_lat[best]);
  }
  const double best_rate = static_cast<double>(best_ops) * 1e9 /
                           static_cast<double>(kSliceNs);
  const double window_rate = per(static_cast<double>(completed), wall);
  std::printf("%s: %zu slices of %.0f s, mean op latency us: fastest %.2f, "
              "median %.2f, slowest %.2f; ops/s: fastest slice %.0f, window "
              "%.0f\n",
              o.workload.c_str(), slices,
              static_cast<double>(kSliceNs) * 1e-9, slice_mean_us[best],
              median(slice_mean_us),
              *std::max_element(slice_mean_us.begin(), slice_mean_us.end()),
              best_rate, window_rate);
  // The open loop's rate is set by its schedule, not by the code's speed.
  const double ops_per_s = net ? window_rate : best_rate;
  const Distribution rd = Distribution::of(rl);
  const Distribution wd = Distribution::of(wl);
  const Distribution ld = Distribution::of(late);
  const Distribution qd = Distribution::of(qwait);
  const auto ops = static_cast<double>(completed);
  res.set("ops_per_s", ops_per_s, completed);
  res.set("read_p50_us", rd.quantile(0.5) / 1e3, rd.count);
  res.set("read_p90_us", rd.quantile(0.9) / 1e3, rd.count);
  res.set("write_p50_us", wd.quantile(0.5) / 1e3, wd.count);
  res.set("write_p90_us", wd.quantile(0.9) / 1e3, wd.count);
  res.set("tail.read_p99_us", rd.quantile(0.99) / 1e3, rd.count);
  res.set("tail.write_p99_us", wd.quantile(0.99) / 1e3, wd.count);
  res.set("read_rounds_mean",
          per(static_cast<double>(read_rounds), static_cast<double>(reads)),
          reads);
  res.set("failed_op_ratio",
          per(static_cast<double>(res.failed), static_cast<double>(attempted)),
          attempted);
  res.set("harness.inject_late_p50_us", ld.quantile(0.5) / 1e3, ld.count);
  res.set("harness.inject_late_p99_us", ld.quantile(0.99) / 1e3, ld.count);
  res.set("harness.queue_wait_p50_us", qd.quantile(0.5) / 1e3, qd.count);
  if (net) {
    res.set("netio.user_us_per_op", per(du.user_us, ops), completed);
    res.set("netio.sys_us_per_op", per(du.sys_us, ops), completed);
    res.set("netio.vcsw_per_op", per(du.vcsw, ops), completed);
    const auto ts = d->backend().mesh()->transport();
    res.set("netio.connect_attempts", static_cast<double>(ts.connect_attempts));
    res.set("netio.connects", static_cast<double>(ts.connects));
    res.set("netio.corrupt_frames", static_cast<double>(ts.corrupt_frames));
    res.set("netio.partial_timeouts",
            static_cast<double>(ts.partial_timeouts));
    if (ts.corrupt_frames != 0) res.fail("netio.corrupt_frames != 0");
  } else {
    res.set("runtime.cpu_us_per_op", per(du.user_us + du.sys_us, ops),
            completed);
    res.set("runtime.vcsw_per_op", per(du.vcsw, ops), completed);
    res.set("runtime.ivcsw_per_op", per(du.ivcsw, ops), completed);
  }
  res.set("wire.msgs_per_op",
          per(static_cast<double>(ns1.messages_sent - ns0.messages_sent), ops),
          completed);
  res.set("wire.bytes_per_op",
          per(static_cast<double>(ns1.bytes_sent - ns0.bytes_sent), ops),
          completed);
  res.set("wire.hist_slots_per_read",
          per(static_cast<double>(ns1.hist_slots_shipped -
                                  ns0.hist_slots_shipped),
              static_cast<double>(reads)),
          reads);
  res.set("wire.hist_resyncs",
          static_cast<double>(ns1.hist_resyncs - ns0.hist_resyncs));
  res.set("wire.dropped_per_op",
          per(static_cast<double>(ns1.messages_dropped - ns0.messages_dropped),
              ops),
          completed);
  res.set("core.read_rounds_max", read_rounds_max, reads);
  res.set("core.write_rounds_mean",
          per(static_cast<double>(write_rounds), static_cast<double>(writes)),
          writes);
  res.set("checker.peak_live", static_cast<double>(cs.peak_live));
  res.set("checker.retired", static_cast<double>(cs.retired));
  res.set("checker.check_ms", check_ms, 1);

  d.reset();
  for (int rep = 0; rep < kSetupReps && res.correct; ++rep) setup_rep();
  res.set("setup_s", median(setup), setup.size());
  res.set("harness.build_ms", median(build_ms), build_ms.size());
  res.set("harness.warmup_ms", median(warmup_ms), warmup_ms.size());
  return res;
}

}  // namespace

Result run_workload(const Options& opts, Tracer* tracer) {
  Result r = opts.workload == "des-fault-corpus"
                 ? run_des(opts, tracer)
                 : run_stations(opts, tracer,
                                opts.workload == "net-regular-open");
  r.set("peak_rss_mb", peak_rss_mb());
  return r;
}

}  // namespace perfbench
