// The three benchmark workloads (README.md explains why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_core.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{0};  ///< timed window; required, no default
};

struct Metric {
  std::string name;
  std::string unit;
  double value{0};
  std::uint64_t samples{0};  ///< values the metric summarizes (0 = a count)
};

/// One run's outcome: every metric of kMetricUnits (0 where the workload
/// does not exercise that layer), plus the correctness verdict.
struct Result {
  Result();

  bool correct{true};
  std::vector<std::string> errors;
  std::uint64_t attempted{0};  ///< timed operations attempted
  std::uint64_t failed{0};     ///< of those, stuck / shed / timed out
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, std::uint64_t samples = 0);
  [[nodiscard]] double get(const std::string& name) const;
  void fail(std::string why);
};

/// Every metric the benchmark reports, with its unit, in print order.
extern const std::vector<std::pair<std::string, std::string>> kMetricUnits;

[[nodiscard]] bool known_workload(const std::string& name);

/// Runs one workload for opts.seconds. With a tracer, also records spans
/// around every library call the workload makes and per operation.
[[nodiscard]] Result run_workload(const Options& opts, Tracer* tracer);

}  // namespace perfbench
