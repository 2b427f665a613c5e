// Swap-drain mailbox regression tests for the threaded runtime hot path.
//
// Mirrors tests/test_world_pool.cpp for runtime::Cluster: steady-state
// delivery must not allocate (double-buffered lanes reuse their capacity),
// batched swap-drain and per-message delivery must be semantically
// indistinguishable, and hold/release/crash must interact correctly with a
// partially consumed (mid-swap) batch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "harness/deployment.hpp"
#include "harness/workload.hpp"
#include "net/process.hpp"
#include "runtime/cluster.hpp"
#include "support/counting_alloc.hpp"

namespace rr::runtime {
namespace {

using namespace std::chrono_literals;

struct Collect final : net::Process {
  int count{0};
  int target{0};
  std::vector<std::pair<ProcessId, Ts>> seen;
  void on_message(net::Context&, ProcessId from,
                  const wire::Message& msg) override {
    ++count;
    seen.push_back({from, std::get<wire::WAckMsg>(msg).ts});
  }
};

/// Lightweight sink for the allocation test: no bookkeeping vector, so the
/// measured window touches nothing but the mailbox itself.
struct CountOnly final : net::Process {
  int count{0};
  int target{0};
  void on_message(net::Context&, ProcessId, const wire::Message&) override {
    ++count;
  }
};

TEST(ClusterMailbox, SteadyStateDeliveryIsAllocationFree) {
  // Acceptance criterion of the swap-drain refactor: once both lanes of
  // the double buffer have grown to working-set size, a send -> swap ->
  // dispatch cycle performs no heap allocation. Both endpoints are passive
  // and driven from this thread, so the measurement is deterministic.
  constexpr int kBurst = 512;
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto b = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  auto* sink = static_cast<CountOnly*>(&c.process(b));
  c.start();
  auto burst = [&] {
    c.with_context(a, [b](net::Context& ctx) {
      for (int i = 0; i < kBurst; ++i) {
        ctx.send(b, wire::WAckMsg{static_cast<Ts>(i)});
      }
    });
  };
  auto drain = [&] {
    sink->target += kBurst;
    ASSERT_TRUE(c.drive(
        b, [sink] { return sink->count >= sink->target; }, 5s));
  };
  // Two warmup cycles: the first grows one lane of the double buffer, the
  // swap exposes the other (still empty) lane, and the second grows that.
  burst();
  drain();
  burst();
  drain();
  const std::uint64_t before = test::heap_allocs.load();
  burst();
  drain();
  const std::uint64_t allocs = test::heap_allocs.load() - before;
  EXPECT_EQ(allocs, 0u)
      << "mailbox delivery hot path must not allocate at steady state";
  EXPECT_EQ(c.stats().messages_delivered, 3u * kBurst);
}

/// Runs the same three-sender interleaving under batched or per-message
/// delivery and returns the collector's observations.
std::vector<std::pair<ProcessId, Ts>> interleaved_run(bool batched,
                                                      net::NetStats* stats) {
  ClusterOptions opts;
  opts.batched_drain = batched;
  Cluster c(opts);
  std::vector<ProcessId> senders;
  for (int i = 0; i < 3; ++i) {
    senders.push_back(c.add(std::make_unique<CountOnly>(), /*active=*/false));
  }
  const auto sink = c.add(std::make_unique<Collect>(), /*active=*/true);
  c.start();
  for (Ts round = 1; round <= 40; ++round) {
    for (const auto s : senders) {
      c.with_context(s, [sink, round](net::Context& ctx) {
        ctx.send(sink, wire::WAckMsg{round});
      });
    }
  }
  EXPECT_TRUE(c.run_quiescent(10s));
  if (stats != nullptr) *stats = c.stats();
  auto seen = static_cast<Collect*>(&c.process(sink))->seen;
  c.stop();
  return seen;
}

TEST(ClusterMailbox, BatchedMatchesPerMessageDeliverySemantics) {
  net::NetStats batched_stats, unbatched_stats;
  const auto batched = interleaved_run(/*batched=*/true, &batched_stats);
  const auto unbatched = interleaved_run(/*batched=*/false, &unbatched_stats);
  ASSERT_EQ(batched.size(), 120u);
  ASSERT_EQ(unbatched.size(), 120u);
  EXPECT_EQ(batched_stats.messages_sent, unbatched_stats.messages_sent);
  EXPECT_EQ(batched_stats.messages_delivered,
            unbatched_stats.messages_delivered);
  EXPECT_EQ(batched_stats.bytes_sent, unbatched_stats.bytes_sent);
  EXPECT_EQ(batched_stats.messages_dropped, 0u);
  EXPECT_EQ(unbatched_stats.messages_dropped, 0u);
  // Per-sender FIFO must hold in both modes (cross-sender order is free
  // under the asynchronous model).
  for (const auto& seen : {batched, unbatched}) {
    std::vector<Ts> last(3, 0);
    for (const auto& [from, ts] : seen) {
      ASSERT_GE(from, 0);
      ASSERT_LT(from, 3);
      EXPECT_GT(ts, last[static_cast<std::size_t>(from)])
          << "per-channel FIFO violated";
      last[static_cast<std::size_t>(from)] = ts;
    }
  }
}

TEST(ClusterMailbox, DeploymentParityBatchedVsUnbatched) {
  // End-to-end: the same gv06-safe workload on the threads backend must
  // produce an identical, checker-clean traffic pattern whether delivery
  // is swap-drain batched or per-message (fixed 2-round protocol => the
  // message count is a pure function of the op mix).
  auto run = [](bool batched) {
    harness::DeploymentOptions opts;
    opts.protocol = harness::Protocol::Safe;
    opts.backend = harness::BackendKind::Threads;
    opts.res = Resilience::optimal(2, 2, 2);
    opts.seed = 7;
    opts.thread_batched_drain = batched;
    harness::Deployment d(opts);
    harness::MixedWorkloadOptions w;
    w.writes = 10;
    w.reads_per_reader = 10;
    harness::mixed_workload(d, w);
    d.run();
    EXPECT_TRUE(d.check().ok()) << "batched=" << batched;
    return d.stats();
  };
  const auto batched = run(true);
  const auto unbatched = run(false);
  EXPECT_GT(batched.messages_sent, 0u);
  EXPECT_EQ(batched.messages_sent, unbatched.messages_sent);
  EXPECT_EQ(batched.messages_delivered, unbatched.messages_delivered);
  // Byte totals are NOT compared: ack payload sizes depend on which write's
  // value a read observes, which is interleaving-dependent on real threads.
  EXPECT_GT(batched.bytes_sent, 0u);
  EXPECT_EQ(batched.messages_dropped, 0u);
  EXPECT_EQ(unbatched.messages_dropped, 0u);
}

TEST(ClusterMailbox, CrashDropsTheUnconsumedTailOfAMidSwapBatch) {
  // A crash landing while a swapped-out batch is partially consumed must
  // drop the tail of that batch (exactly like queued messages), and the
  // drops must be visible in NetStats so sent == delivered + dropped.
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto b = c.add(std::make_unique<Collect>(), /*active=*/false);
  auto* sink = static_cast<Collect*>(&c.process(b));
  c.start();
  c.with_context(a, [b](net::Context& ctx) {
    for (Ts i = 1; i <= 10; ++i) ctx.send(b, wire::WAckMsg{i});
  });
  // Consume 4 of the 10: the first drive refill swaps the whole inbox, so
  // the remaining 6 sit in the slot's private drain buffer (mid-swap).
  ASSERT_TRUE(c.drive(b, [sink] { return sink->count >= 4; }, 5s));
  EXPECT_EQ(sink->count, 4);
  c.crash(b);
  // The tail must be consumed as drops, and quiescence must still be
  // reachable (the 6 tail messages are outstanding work items until then).
  ASSERT_TRUE(c.drive(
      b, [&c] { return c.stats().messages_dropped >= 6; }, 5s));
  ASSERT_TRUE(c.run_quiescent(5s));
  const auto stats = c.stats();
  EXPECT_EQ(stats.messages_sent, 10u);
  EXPECT_EQ(stats.messages_delivered, 4u);
  EXPECT_EQ(stats.messages_dropped, 6u);
  EXPECT_EQ(sink->count, 4) << "no delivery after crash";
}

TEST(ClusterMailbox, CrashDiscardsHeldBuffersAndReleaseCannotResurrect) {
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto b = c.add(std::make_unique<Collect>(), /*active=*/false);
  auto* sink = static_cast<Collect*>(&c.process(b));
  c.start();
  c.hold(a, b);
  c.with_context(a, [b](net::Context& ctx) {
    for (Ts i = 1; i <= 5; ++i) ctx.send(b, wire::WAckMsg{i});
  });
  // Held-channel buffers do not count as pending work.
  EXPECT_TRUE(c.run_quiescent(100ms));
  EXPECT_EQ(c.stats().messages_dropped, 0u);
  c.crash(b);
  // The five buffered messages are discarded immediately (they could only
  // ever be dropped at delivery) and counted as dropped; the channel
  // itself stays held.
  EXPECT_EQ(c.stats().messages_dropped, 5u);
  EXPECT_TRUE(c.held(a, b));
  c.release(a, b);
  EXPECT_FALSE(c.held(a, b));
  EXPECT_TRUE(c.run_quiescent(1s))
      << "no deliveries may be scheduled from the discarded buffer";
  EXPECT_EQ(sink->count, 0);
  EXPECT_EQ(c.stats().messages_delivered, 0u);
  EXPECT_EQ(c.stats().messages_dropped, 5u);
}

TEST(ClusterMailbox, ReleasePreservesFifoThroughActiveConsumer) {
  // FIFO through hold/release with an active (threaded) consumer: the
  // single-lock release_all re-injection must keep per-channel order.
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto b = c.add(std::make_unique<Collect>(), /*active=*/true);
  auto* sink = static_cast<Collect*>(&c.process(b));
  c.start();
  c.hold_all(b);
  c.with_context(a, [b](net::Context& ctx) {
    for (Ts i = 1; i <= 200; ++i) ctx.send(b, wire::WAckMsg{i});
  });
  EXPECT_TRUE(c.run_quiescent(100ms));
  EXPECT_EQ(sink->count, 0);
  c.release_all(b);
  ASSERT_TRUE(c.run_quiescent(10s));
  c.stop();
  ASSERT_EQ(sink->seen.size(), 200u);
  for (Ts i = 0; i < 200; ++i) {
    EXPECT_EQ(sink->seen[static_cast<std::size_t>(i)].second, i + 1);
  }
}

TEST(ClusterMailbox, HoldAllBatchesUnderOneLockAndSkipsSelfChannel) {
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto b = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  const auto d = c.add(std::make_unique<CountOnly>(), /*active=*/false);
  c.start();
  c.hold_all(a);
  EXPECT_FALSE(c.held(a, a)) << "self-channel must not be held";
  EXPECT_TRUE(c.held(a, b));
  EXPECT_TRUE(c.held(b, a));
  EXPECT_TRUE(c.held(a, d));
  EXPECT_TRUE(c.held(d, a));
  EXPECT_FALSE(c.held(b, d));
  c.release_all(a);
  EXPECT_FALSE(c.held(a, b));
  EXPECT_FALSE(c.held(d, a));
}

TEST(ClusterMailbox, ColdLaneClosuresRunAsExclusiveSteps) {
  // Posted closures travel in the cold lane but must still run as steps of
  // the target process (exclusive with message deliveries) and count
  // toward quiescence. Past-due posts take the direct path; future posts
  // go through the timer thread.
  Cluster c;
  const auto a = c.add(std::make_unique<CountOnly>(), /*active=*/true);
  c.start();
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    c.post(0, a, [&ran](net::Context&) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  c.post(c.now() + 2'000'000, a, [&ran](net::Context&) {
    ran.fetch_add(100, std::memory_order_relaxed);
  });
  ASSERT_TRUE(c.run_quiescent(10s));
  EXPECT_EQ(ran.load(), 150);
}

}  // namespace
}  // namespace rr::runtime
