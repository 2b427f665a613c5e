// The paper's regular storage (Figures 5-6): Theorem 3 (regularity),
// Theorem 4 (wait-freedom), the Section 5.1 cached-suffix optimization, and
// regular-specific behaviours (history growth, candidate invalidation).
#include <gtest/gtest.h>

#include <string>

#include "core/regular_reader.hpp"
#include "harness/deployment.hpp"
#include "harness/scenario_dsl.hpp"
#include "harness/sweep.hpp"
#include "harness/workload.hpp"
#include "objects/regular_object.hpp"
#include "sim/world.hpp"

namespace rr {
namespace {

using harness::Deployment;
using harness::DeploymentOptions;
using harness::FaultPlan;
using harness::Protocol;

DeploymentOptions regular_opts(int t, int b, int readers, std::uint64_t seed,
                               bool optimized = false) {
  DeploymentOptions opts;
  opts.protocol = optimized ? Protocol::RegularOptimized : Protocol::Regular;
  opts.res = Resilience::optimal(t, b, readers);
  opts.seed = seed;
  return opts;
}

TEST(RegularStorage, ReadAfterWriteReturnsWrittenValue) {
  Deployment d(regular_opts(2, 1, 1, 1));
  TsVal got;
  d.invoke_write(0, "value-1", nullptr);
  d.invoke_read(200'000, 0,
                [&](const core::ReadResult& r) { got = r.tsval; });
  d.run();
  EXPECT_EQ(got, (TsVal{1, "value-1"}));
}

TEST(RegularStorage, TwoRoundsAlways) {
  Deployment d(regular_opts(2, 2, 2, 3));
  harness::MixedWorkloadStats stats;
  harness::MixedWorkloadOptions w;
  w.writes = 10;
  w.reads_per_reader = 10;
  harness::mixed_workload(d, w, &stats);
  d.run();
  EXPECT_EQ(stats.reads.rounds_min(), 2);
  EXPECT_EQ(stats.reads.rounds_max(), 2);
  EXPECT_EQ(stats.writes.rounds_max(), 2);
  EXPECT_TRUE(d.check().ok()) << d.check().summary();
}

TEST(RegularStorage, RegularityUnderHeavyConcurrency) {
  // Many writes concurrent with many reads: every read must return a
  // written value no older than the last preceding write (regularity, not
  // just safety -- the stronger guarantee is the point of Section 5).
  for (std::uint64_t seed : {1ULL, 9ULL, 77ULL, 1234ULL}) {
    Deployment d(regular_opts(2, 2, 3, seed));
    harness::MixedWorkloadOptions w;
    w.writes = 25;
    w.reads_per_reader = 25;
    w.write_gap = 1'000;
    w.read_gap = 700;
    harness::mixed_workload(d, w);
    d.run();
    const auto report = d.check(harness::Semantics::Regular);
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.summary();
  }
}

struct ByzCase {
  int t;
  int b;
  adversary::StrategyKind kind;
};

class RegularByzantineTest : public ::testing::TestWithParam<ByzCase> {};

TEST_P(RegularByzantineTest, RegularityAndLivenessUnderAttack) {
  const auto p = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto opts = regular_opts(p.t, p.b, 2, seed * 131);
    opts.faults = FaultPlan::mixed(p.b, p.kind, p.t - p.b);
    Deployment d(opts);
    harness::MixedWorkloadOptions w;
    w.writes = 8;
    w.reads_per_reader = 8;
    harness::mixed_workload(d, w);
    d.run();
    for (const auto& op : d.log().snapshot()) {
      ASSERT_TRUE(op.complete)
          << "wait-freedom, strategy " << adversary::to_string(p.kind);
    }
    const auto report = d.check();
    EXPECT_TRUE(report.ok())
        << "strategy=" << adversary::to_string(p.kind) << " seed=" << seed
        << "\n"
        << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, RegularByzantineTest,
    ::testing::Values(
        ByzCase{1, 1, adversary::StrategyKind::Silent},
        ByzCase{1, 1, adversary::StrategyKind::Amnesiac},
        ByzCase{1, 1, adversary::StrategyKind::Forger},
        ByzCase{1, 1, adversary::StrategyKind::Accuser},
        ByzCase{1, 1, adversary::StrategyKind::Equivocator},
        ByzCase{1, 1, adversary::StrategyKind::Stagger},
        ByzCase{1, 1, adversary::StrategyKind::Collude},
        ByzCase{1, 1, adversary::StrategyKind::Random},
        ByzCase{2, 2, adversary::StrategyKind::Forger},
        ByzCase{2, 2, adversary::StrategyKind::Collude},
        ByzCase{2, 2, adversary::StrategyKind::Random},
        ByzCase{3, 3, adversary::StrategyKind::Random},
        ByzCase{3, 2, adversary::StrategyKind::Equivocator}),
    [](const auto& info) {
      return "t" + std::to_string(info.param.t) + "b" +
             std::to_string(info.param.b) + "_" +
             adversary::to_string(info.param.kind);
    });

TEST(RegularStorage, HistoryGrowsWithWrites) {
  // The Section 5 price: objects store the entire write history.
  Deployment d(regular_opts(1, 1, 1, 5));
  harness::write_stream(d, 0, 1'000, 20);
  d.run();
  auto& obj = dynamic_cast<objects::RegularObject&>(d.object_process(0));
  EXPECT_EQ(obj.history_size(), 21u);  // slots 0..20
}

// ---------------------------------------------------------------------------
// Section 5.1 optimization
// ---------------------------------------------------------------------------

TEST(OptimizedRegular, SameResultsAsUnoptimized) {
  auto run = [](bool optimized) {
    Deployment d(regular_opts(2, 1, 2, 99, optimized));
    harness::MixedWorkloadOptions w;
    w.writes = 12;
    w.reads_per_reader = 12;
    harness::mixed_workload(d, w);
    d.run();
    EXPECT_TRUE(d.check().ok()) << d.check().summary();
    std::vector<std::pair<Ts, Value>> reads;
    for (const auto& op : d.log().snapshot()) {
      if (op.kind == checker::OpRecord::Kind::Read) {
        reads.emplace_back(op.ts, op.value);
      }
    }
    return reads;
  };
  // Identical seeds and schedules: the returned values must coincide
  // (the optimization only prunes what objects ship, never the outcome).
  EXPECT_EQ(run(false), run(true));
}

TEST(OptimizedRegular, DeltaShippingKeepsHistoryTrafficLinear) {
  auto slots_received = [](bool optimized) {
    Deployment d(regular_opts(1, 1, 1, 7, optimized));
    std::uint64_t total = 0;
    // Interleave: write, read, write, read ... so the history keeps growing.
    for (int k = 0; k < 15; ++k) {
      d.logged_write(static_cast<Time>(k) * 200'000, harness::value_for(
                                                         static_cast<Ts>(k + 1)));
      d.logged_read(static_cast<Time>(k) * 200'000 + 100'000, 0,
                    [&d, &total](const core::ReadResult&) {
                      total += d.regular_reader(0).diag()
                                   .history_slots_received;
                    });
    }
    d.run();
    EXPECT_TRUE(d.check().ok());
    return total;
  };
  const auto full = slots_received(false);
  const auto suffix = slots_received(true);
  // Ack-driven delta shipping kills the O(history) tail for BOTH variants:
  // read k merges only the slots written since read k-1 from each object
  // (the pre-delta protocol shipped the whole suffix-from-cache, ~k slots
  // per object on read k for the unoptimized variant => quadratic total,
  // well over 1000 slots here).
  EXPECT_LT(full, 256u) << "full=" << full;
  EXPECT_LE(suffix, full) << "full=" << full << " suffix=" << suffix;
}

TEST(OptimizedRegular, CacheAdvancesWithReturnedValues) {
  Deployment d(regular_opts(1, 1, 1, 13, /*optimized=*/true));
  d.logged_write(0, "a");
  d.logged_read(100'000, 0);
  d.logged_write(200'000, "b");
  d.logged_read(300'000, 0);
  d.run();
  EXPECT_TRUE(d.check().ok());
  EXPECT_EQ(d.regular_reader(0).cache().ts, 2u);
  EXPECT_EQ(d.regular_reader(0).cache().val, "b");
}

TEST(OptimizedRegular, RepeatedReadsWithoutWritesStayCorrect) {
  // After the cache reaches the top timestamp, subsequent reads get tiny
  // suffixes; they must still return the same value, not fall apart.
  Deployment d(regular_opts(2, 2, 1, 17, /*optimized=*/true));
  harness::write_stream(d, 0, 1'000, 5);
  std::vector<TsVal> results;
  for (int k = 0; k < 6; ++k) {
    d.logged_read(500'000 + static_cast<Time>(k) * 100'000, 0,
                  [&](const core::ReadResult& r) { results.push_back(r.tsval); });
  }
  d.run();
  ASSERT_EQ(results.size(), 6u);
  for (const auto& r : results) EXPECT_EQ(r, (TsVal{5, "v5"}));
  EXPECT_TRUE(d.check().ok());
}

TEST(OptimizedRegular, ByzantineCannotExploitSuffixes) {
  for (const auto kind :
       {adversary::StrategyKind::Forger, adversary::StrategyKind::Stagger,
        adversary::StrategyKind::Random}) {
    auto opts = regular_opts(2, 2, 2, 31, /*optimized=*/true);
    opts.faults = FaultPlan::mixed(2, kind, 0);
    Deployment d(opts);
    harness::MixedWorkloadOptions w;
    w.writes = 10;
    w.reads_per_reader = 10;
    harness::mixed_workload(d, w);
    d.run();
    for (const auto& op : d.log().snapshot()) {
      ASSERT_TRUE(op.complete);
    }
    EXPECT_TRUE(d.check().ok())
        << adversary::to_string(kind) << "\n" << d.check().summary();
  }
}

TEST(RegularStorage, CrashBudgetSweep) {
  for (int t = 1; t <= 4; ++t) {
    for (int b = 1; b <= t; ++b) {
      auto opts = regular_opts(t, b, 1, static_cast<std::uint64_t>(t * 10 + b));
      opts.faults = FaultPlan::crash_only(t);
      Deployment d(opts);
      harness::sequential_then_reads(d, 4, 4);
      d.run();
      const auto report = d.check();
      EXPECT_TRUE(report.ok())
          << "t=" << t << " b=" << b << "\n" << report.summary();
    }
  }
}

TEST(RegularStorage, WriterCrashMidWriteReadsStillRegular) {
  auto opts = regular_opts(2, 1, 1, 41);
  opts.delay = harness::DelayKind::Fixed;
  opts.delay_lo = 1'000;
  Deployment d(opts);
  d.logged_write(0, "stable");
  d.run();
  d.logged_write(d.world().now() + 100, "torn");
  d.world().run_until(d.world().now() + 1'500);  // PW sent, W not yet
  d.world().crash(d.writer_pid());
  int completed = 0;
  for (int k = 0; k < 4; ++k) {
    d.logged_read(d.world().now() + 2'000 + static_cast<Time>(k) * 50'000, 0,
                  [&](const core::ReadResult&) { ++completed; });
  }
  d.run();
  EXPECT_EQ(completed, 4);
  EXPECT_TRUE(d.check().ok()) << d.check().summary();
}

class RegularPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(RegularPropertyTest, RandomizedRegularitySweep) {
  const auto [t, b, optimized] = GetParam();
  if (b > t) GTEST_SKIP() << "model requires b <= t";
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto opts = regular_opts(t, b, 2, seed * 17 + static_cast<std::uint64_t>(t),
                             optimized);
    Rng rng(seed * 1000 + static_cast<std::uint64_t>(t * 10 + b));
    const int byz = static_cast<int>(rng.uniform(0, static_cast<Ts>(b)));
    opts.faults = FaultPlan::mixed(
        byz, adversary::StrategyKind::Random,
        static_cast<int>(rng.uniform(0, static_cast<Ts>(t - byz))));
    Deployment d(opts);
    harness::MixedWorkloadOptions w;
    w.writes = 10;
    w.reads_per_reader = 8;
    w.write_gap = rng.uniform(200, 10'000);
    w.read_gap = rng.uniform(200, 10'000);
    harness::mixed_workload(d, w);
    d.run();
    const auto report = d.check();
    ASSERT_TRUE(report.ok()) << "seed " << seed << "\n" << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegularPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1, 2),
                       ::testing::Bool()),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "b" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_opt" : "_full");
    });

// ---------------------------------------------------------------------------
// Stagger x open loop, pinned. A stagger object forges a fresh slot above
// the writer on every reply, so the reader's mirror of it grows all run.
// These two committed fixtures (from the benchmark corpus) must replay to
// the DES fingerprint and traffic recorded before the reader's candidate
// store replaced its per-read rescans: the rework changed how much local
// work a read does, never what it decides or sends.
// ---------------------------------------------------------------------------
TEST(RegularStorage, StaggerOpenLoopFixturesKeepTheirFingerprints) {
  struct Golden {
    const char* file;
    std::uint64_t fingerprint;
    std::uint64_t messages_sent;
    std::uint64_t bytes_sent;
  };
  const Golden goldens[] = {
      {"regular-stagger-open-52.scn", 0xc1bf19e295f6849dULL, 32'434,
       2'351'052},
      {"regular-stagger-open-102.scn", 0xa848a9f3f172694eULL, 50'755,
       6'248'815},
  };
  for (const auto& g : goldens) {
    SCOPED_TRACE(g.file);
    const auto parsed = harness::load_scenario_file(
        std::string(RR_SOURCE_DIR) + "/tests/fixtures/scenarios/" + g.file);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto v = harness::SweepEngine::run_cell(parsed.scenario);
    EXPECT_TRUE(v.ok) << v.first_violation;
    EXPECT_EQ(v.ops_stuck, 0);
    EXPECT_EQ(v.fingerprint, g.fingerprint);
    EXPECT_EQ(v.net.messages_sent, g.messages_sent);
    EXPECT_EQ(v.net.bytes_sent, g.bytes_sent);
  }
}

}  // namespace
}  // namespace rr
