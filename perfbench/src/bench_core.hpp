// Benchmark-side helpers with no library dependency: seed derivation,
// reservoir sampling with weighted percentiles, the open-loop arrival
// schedule, the corpus file splitter, and the span buffer of the traced
// mode. Everything here is pure or single-owner, so
// tests/test_perfbench.cpp pins it directly.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Seeds.

/// SplitMix64 step: the benchmark's only source of randomness.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic, well-mixed child seed for stream `index` of `seed`;
/// never 0 (a zero run seed means "derive from coordinates" to the sweep).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t s = seed * 0x100000001b3ULL + index;
  return splitmix64(s) | 1;
}

/// Uniform double in [0, 1) from the top 53 bits.
inline double unit_double(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------------------------
// Samples and percentiles.

/// Fixed-capacity uniform sample of a stream (Vitter's Algorithm R). Holds
/// every value until full, so small streams are kept exactly; afterwards
/// each stored value stands for seen() / size() values. Single owner: one
/// client station records into its own reservoir.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity, std::uint64_t seed = 1)
      : capacity_(capacity), rng_(seed) {
    values_.reserve(capacity);
  }

  void add(double v) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(v);
      return;
    }
    const std::uint64_t j = splitmix64(rng_) % seen_;
    if (j < capacity_) values_[static_cast<std::size_t>(j)] = v;
  }

  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] double weight() const {
    return values_.empty() ? 0.0
                           : static_cast<double>(seen_) /
                                 static_cast<double>(values_.size());
  }

 private:
  std::size_t capacity_;
  std::uint64_t rng_;
  std::uint64_t seen_{0};
  std::vector<double> values_;
};

/// Percentiles of one or more reservoirs, each value weighted by how many
/// stream values it stands for, plus the stream's total sample count.
struct Distribution {
  std::uint64_t count{0};
  std::vector<std::pair<double, double>> sorted;  ///< (value, weight)
  double total_weight{0};

  [[nodiscard]] static Distribution of(
      const std::vector<const Reservoir*>& parts) {
    Distribution d;
    for (const Reservoir* r : parts) {
      d.count += r->seen();
      const double w = r->weight();
      for (const double v : r->values()) d.sorted.emplace_back(v, w);
    }
    std::sort(d.sorted.begin(), d.sorted.end());
    for (const auto& [v, w] : d.sorted) d.total_weight += w;
    return d;
  }

  /// Nearest-rank quantile: the smallest value whose cumulative weight
  /// reaches q x total. 0 for an empty distribution.
  [[nodiscard]] double quantile(double q) const {
    if (sorted.empty()) return 0.0;
    const double target = q * total_weight;
    double cum = 0;
    for (const auto& [v, w] : sorted) {
      cum += w;
      if (cum >= target * (1 - 1e-12)) return v;
    }
    return sorted.back().first;
  }

  [[nodiscard]] double max() const {
    return sorted.empty() ? 0.0 : sorted.back().first;
  }

  /// Weighted mean. 0 for an empty distribution.
  [[nodiscard]] double mean() const {
    double sum = 0;
    for (const auto& [v, w] : sorted) sum += v * w;
    return total_weight > 0 ? sum / total_weight : 0.0;
  }
};

/// Median of a small vector (setup repetitions). 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Open-loop arrival schedule.

/// One scheduled operation: due `offset_ns` after the run starts, served by
/// `station` (0 = the writer, 1..readers = reader station-1).
struct Arrival {
  std::int64_t offset_ns{0};
  int station{0};
  friend bool operator==(const Arrival&, const Arrival&) = default;
};

/// Poisson arrivals at `rate_per_s` over [0, seconds), each a write with
/// probability `write_fraction`, else a read on a uniformly drawn reader
/// station. A pure function of its arguments.
inline std::vector<Arrival> poisson_schedule(std::uint64_t seed,
                                             double rate_per_s, double seconds,
                                             double write_fraction,
                                             int readers) {
  std::vector<Arrival> out;
  std::uint64_t rng = derive_seed(seed, 0xa77);
  const double horizon_ns = seconds * 1e9;
  const double mean_gap_ns = 1e9 / rate_per_s;
  out.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  double t = 0;
  for (;;) {
    t += -std::log1p(-unit_double(rng)) * mean_gap_ns;
    if (t >= horizon_ns) break;
    Arrival a;
    a.offset_ns = static_cast<std::int64_t>(t);
    if (unit_double(rng) < write_fraction) {
      a.station = 0;
    } else {
      a.station = 1 + static_cast<int>(splitmix64(rng) %
                                       static_cast<std::uint64_t>(readers));
    }
    out.push_back(a);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Corpus file: scenario-DSL blocks separated by lines reading "---".

inline std::vector<std::string> split_corpus(std::string_view text) {
  std::vector<std::string> blocks;
  std::string cur;
  bool has_scenario = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    const std::string_view line = text.substr(pos, end - pos);
    if (line == "---") {
      if (has_scenario) blocks.push_back(cur);
      cur.clear();
      has_scenario = false;
    } else {
      cur.append(line);
      cur.push_back('\n');
      if (line.substr(0, 9) == "scenario ") has_scenario = true;
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  if (has_scenario) blocks.push_back(cur);
  return blocks;
}

// ---------------------------------------------------------------------------
// Traced mode: spans in a preallocated buffer, written out once at the end.

/// Span names: one per library call the benchmark wraps, plus the two
/// per-operation spans (due -> invoke, invoke -> complete).
enum class SpanName : std::uint16_t {
  Parse,
  RunCell,
  Probe,
  Build,
  Warmup,
  Run,
  Check,
  OpWait,
  OpExec,
};
inline constexpr const char* kSpanNames[] = {
    "parse", "run_cell", "probe", "build",  "warmup",
    "run",   "check",    "op_wait", "op_exec"};

/// 32 bytes, so a million-op window fits in a modest buffer.
struct Span {
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint32_t id{0};
  std::uint32_t parent{0};  ///< 0 = root
  std::uint32_t op{0};      ///< id shared by one operation's spans (0 = none)
  SpanName name{SpanName::Run};
};

/// Lock-free append-only span buffer of fixed capacity; spans beyond it are
/// counted as dropped, never allocated. Safe to record from several threads.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : spans_(capacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::uint32_t new_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(std::uint32_t id, std::uint32_t parent, std::uint32_t op,
              SpanName name, std::int64_t start_ns, std::int64_t end_ns) {
    const std::size_t i = used_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    spans_[i] = Span{start_ns, end_ns, id, parent, op, name};
  }

  /// Recorded spans (call once recording threads are quiescent).
  [[nodiscard]] std::vector<Span> spans() const {
    const std::size_t n =
        std::min(used_.load(std::memory_order_acquire), spans_.size());
    return {spans_.begin(), spans_.begin() + static_cast<std::ptrdiff_t>(n)};
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint32_t> next_id_{1};
};

/// Self time per span name, in ns: each span's duration minus the part of
/// its interval covered by the union of its children's intervals.
inline std::map<SpanName, double> self_time_ns(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<SpanName, double> out;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = std::numeric_limits<std::int64_t>::min();
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return out;
}

}  // namespace perfbench
