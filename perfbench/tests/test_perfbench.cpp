// Tests of the benchmark's own helpers and committed corpus.
//   python3 perfbench/run.py --test
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench_core.hpp"
#include "harness/fuzz.hpp"
#include "harness/scenario_dsl.hpp"

namespace perfbench {
namespace {

TEST(Percentiles, NearestRankOnExactSamples) {
  Reservoir r(1000);
  for (int i = 1; i <= 100; ++i) r.add(i);
  const Distribution d = Distribution::of({&r});
  EXPECT_EQ(d.count, 100u);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 50);
  EXPECT_DOUBLE_EQ(d.quantile(0.9), 90);
  EXPECT_DOUBLE_EQ(d.quantile(0.99), 99);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 100);
  EXPECT_DOUBLE_EQ(d.max(), 100);
  EXPECT_DOUBLE_EQ(d.mean(), 50.5);
}

TEST(Percentiles, EmptyIsZero) {
  Reservoir r(8);
  const Distribution d = Distribution::of({&r});
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.quantile(0.5), 0);
  EXPECT_EQ(d.mean(), 0);
  EXPECT_EQ(median({}), 0);
}

TEST(Percentiles, ReservoirKeepsCountAndCapacity) {
  Reservoir r(64, 7);
  for (int i = 0; i < 10'000; ++i) r.add(i);
  EXPECT_EQ(r.seen(), 10'000u);
  EXPECT_EQ(r.values().size(), 64u);
  EXPECT_DOUBLE_EQ(r.weight(), 10'000.0 / 64);
  const Distribution d = Distribution::of({&r});
  EXPECT_EQ(d.count, 10'000u);
  // A uniform sample of 0..9999: the median lands near the middle.
  EXPECT_GT(d.quantile(0.5), 2'500);
  EXPECT_LT(d.quantile(0.5), 7'500);
}

TEST(Percentiles, MergeWeightsByStreamLength) {
  // Stream a: 1000 values of 1 (sampled down to 10); stream b: 10 values of
  // 100 (kept exactly). Weighted, b is 1% of the merged stream.
  Reservoir a(10, 1);
  Reservoir b(10, 2);
  for (int i = 0; i < 1000; ++i) a.add(1);
  for (int i = 0; i < 10; ++i) b.add(100);
  const Distribution d = Distribution::of({&a, &b});
  EXPECT_EQ(d.count, 1010u);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 1);
  EXPECT_DOUBLE_EQ(d.quantile(0.98), 1);
  EXPECT_DOUBLE_EQ(d.quantile(0.995), 100);
  EXPECT_DOUBLE_EQ(d.mean(), (1000.0 * 1 + 10 * 100) / 1010);
}

TEST(Percentiles, Median) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Schedule, SameSeedSameScheduleOtherSeedDiffers) {
  const auto a = poisson_schedule(5, 4000, 1.0, 0.5, 2);
  const auto b = poisson_schedule(5, 4000, 1.0, 0.5, 2);
  const auto c = poisson_schedule(6, 4000, 1.0, 0.5, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Schedule, ShapeMatchesParameters) {
  const auto s = poisson_schedule(11, 4000, 2.0, 0.5, 2);
  // 8000 expected arrivals; Poisson sd ~ 90.
  EXPECT_GT(s.size(), 7'500u);
  EXPECT_LT(s.size(), 8'500u);
  std::size_t writes = 0;
  std::int64_t prev = -1;
  for (const Arrival& a : s) {
    EXPECT_GE(a.offset_ns, prev);
    EXPECT_LT(a.offset_ns, 2'000'000'000);
    EXPECT_GE(a.station, 0);
    EXPECT_LE(a.station, 2);
    prev = a.offset_ns;
    writes += a.station == 0;
  }
  EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(s.size()),
              0.5, 0.05);
}

TEST(Seeds, DerivedSeedsAreDistinctAndNonzero) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = derive_seed(42, i);
    EXPECT_NE(s, 0u);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

TEST(Trace, SelfTimeSubtractsUnionOfChildren) {
  // run [0, 100) with overlapping children [10, 40) and [30, 50), plus a
  // child partly outside it [90, 120): covered = 40 + 10 = 50.
  const std::vector<Span> spans = {
      {0, 100, 1, 0, 0, SpanName::Run},
      {10, 40, 2, 1, 7, SpanName::OpExec},
      {30, 50, 3, 1, 8, SpanName::OpExec},
      {90, 120, 4, 1, 9, SpanName::OpExec},
  };
  const auto self = self_time_ns(spans);
  EXPECT_DOUBLE_EQ(self.at(SpanName::Run), 50);
  EXPECT_DOUBLE_EQ(self.at(SpanName::OpExec), 30 + 20 + 30);
}

TEST(Trace, BufferDropsBeyondCapacity) {
  Tracer t(2);
  for (int i = 0; i < 5; ++i) {
    t.record(t.new_id(), 0, 0, SpanName::Run, i, i + 1);
  }
  EXPECT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.dropped(), 3u);
}

TEST(Corpus, SplitsOnSeparatorLines) {
  const auto blocks =
      split_corpus("# header\n---\nscenario safe des seed=1\n---\n"
                   "scenario abd des seed=2\nbudget t=1 b=0 readers=1\n");
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], "scenario safe des seed=1\n");
  EXPECT_EQ(blocks[1],
            "scenario abd des seed=2\nbudget t=1 b=0 readers=1\n");
}

TEST(Corpus, EveryScenarioParsesRoundTripsAndAvoidsRegularOpt) {
  std::ifstream f(std::string(PERFBENCH_DIR) + "/corpus.scn");
  ASSERT_TRUE(f) << "corpus.scn missing";
  std::ostringstream ss;
  ss << f.rdbuf();
  const auto blocks = split_corpus(ss.str());
  EXPECT_GE(blocks.size(), 100u);
  EXPECT_LE(blocks.size(), 200u);

  using namespace rr::harness;
  std::set<std::string> prims;
  int open_loop = 0;
  for (const auto& block : blocks) {
    const auto parsed = parse_scenario(block);
    ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << block;
    const Scenario& s = parsed.scenario;
    const auto again = parse_scenario(emit_scenario(s));
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.scenario, s) << s.name;
    EXPECT_NE(s.protocol, Protocol::RegularOptimized) << s.name;
    EXPECT_EQ(s.backend, BackendKind::Sim) << s.name;
    EXPECT_TRUE(s.expect_ok) << s.name;
    for (const auto& ev : s.events) prims.insert(primitive_name(ev));
    open_loop += s.arrival != ArrivalKind::Closed;
  }
  for (const auto& p : model_legal_primitives()) {
    EXPECT_TRUE(prims.count(p)) << "no corpus scenario uses " << p;
  }
  EXPECT_FALSE(prims.count("loss"));
  EXPECT_FALSE(prims.count("dup"));
  EXPECT_GT(open_loop, 0);
  EXPECT_LT(open_loop, static_cast<int>(blocks.size()));
}

}  // namespace
}  // namespace perfbench
