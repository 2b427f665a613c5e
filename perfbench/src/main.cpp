// perfbench: runs one benchmark workload and prints every metric.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Run from the repository root (the DES workload reads
// perfbench/corpus.scn).
//
// Prints a machine fingerprint, one line per metric (value, unit, sample
// count), any correctness failures on stderr, and as its last line one JSON
// object with every metric. Exits 1 when a correctness check failed, 2 on a
// usage error. With --trace 1 the workload runs twice: untraced (the
// per-layer counters) and traced (span self times, written to --trace-out
// as CSV, and the tracing overhead as the difference between the two).
#include <cpuid.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Result;

/// Span buffer of the traced window: 48 MiB, two spans per operation for
/// the closed loop at about 150K ops/s over kMaxTracedSeconds.
constexpr std::size_t kSpanCapacity = 3u << 19;
constexpr double kMaxTracedSeconds = 5;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
#else
  return "unknown";
#endif
}

/// Fills the trace.* metrics of `base` from the traced run.
void add_trace_metrics(Result& base, const Result& traced,
                       const std::vector<perfbench::Span>& spans,
                       std::uint64_t dropped) {
  const auto self = perfbench::self_time_ns(spans);
  for (std::size_t i = 0; i < std::size(perfbench::kSpanNames); ++i) {
    const auto it = self.find(static_cast<perfbench::SpanName>(i));
    base.set(std::string("trace.") + perfbench::kSpanNames[i] + "_self_ms",
             it == self.end() ? 0.0 : it->second * 1e-6);
  }
  base.set("trace.spans", static_cast<double>(spans.size()));
  base.set("trace.spans_dropped", static_cast<double>(dropped));
  const double ops0 = base.get("ops_per_s");
  const double rp0 = base.get("read_p50_us");
  base.set("trace.overhead_ops_per_s_pct",
           ops0 > 0 ? (ops0 - traced.get("ops_per_s")) / ops0 * 100 : 0.0);
  base.set("trace.overhead_read_p50_pct",
           rp0 > 0 ? (traced.get("read_p50_us") - rp0) / rp0 * 100 : 0.0);
  base.attempted += traced.attempted;
  base.failed += traced.failed;
  for (const auto& e : traced.errors) base.fail("traced run: " + e);
}

bool write_spans(const std::vector<perfbench::Span>& spans,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,op,name,start_ns,end_ns\n");
  for (const auto& s : spans) {
    std::fprintf(f, "%u,%u,%u,%s,%lld,%lld\n", s.id, s.parent, s.op,
                 perfbench::kSpanNames[static_cast<std::size_t>(s.name)],
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload des-fault-corpus|"
               "threads-safe-closed|net-regular-open --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  int trace = 0;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (key == "--trace-out") {
      trace_out = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !perfbench::known_workload(opts.workload) ||
      !(opts.seconds > 0) || (trace != 0 && trace != 1)) {
    return usage();
  }

  std::printf("fingerprint: nproc=%u cpu=\"%s\" build=%s compiler=\"%s\"\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              PERFBENCH_BUILD_TYPE, __VERSION__);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, trace);

  Result res;
  if (trace == 0) {
    res = perfbench::run_workload(opts, nullptr);
  } else {
    // Two shorter windows, untraced then traced, so a traced run costs about
    // what an untraced one does and its spans fit the buffer.
    perfbench::Options half = opts;
    half.seconds = std::min(opts.seconds / 2, kMaxTracedSeconds);
    res = perfbench::run_workload(half, nullptr);
    auto tracer = std::make_unique<perfbench::Tracer>(kSpanCapacity);
    const Result traced = perfbench::run_workload(half, tracer.get());
    const auto spans = tracer->spans();
    add_trace_metrics(res, traced, spans, tracer->dropped());
    if (!trace_out.empty() && !write_spans(spans, trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    }
  }

  for (const auto& m : res.metrics) {
    std::printf("metric %-32s %18.6f %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const auto& e : res.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    // Metric names and units are fixed identifiers: nothing to escape.
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m.unit +
            "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.correct ? 0 : 1;
}
