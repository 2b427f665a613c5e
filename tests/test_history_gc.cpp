// History garbage collection for regular objects (the extension the paper's
// Section 5 calls for: full histories "might raise issues of storage
// exhaustion and need careful garbage collection").
//
// Policy under test: keep the newest `history_limit` slots. Must bound
// memory, preserve regularity and wait-freedom (reads steer to newer values
// when old slots are denied), and compose with the Section 5.1 cached
// suffixes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "adversary/capture.hpp"
#include "core/regular_reader.hpp"
#include "harness/deployment.hpp"
#include "harness/workload.hpp"
#include "objects/regular_object.hpp"
#include "sim/delay.hpp"
#include "sim/world.hpp"
#include "support/counting_alloc.hpp"

namespace rr {
namespace {

using harness::Deployment;
using harness::DeploymentOptions;
using harness::Protocol;

DeploymentOptions gc_opts(int t, int b, std::size_t limit, std::uint64_t seed,
                          bool optimized = false) {
  DeploymentOptions opts;
  opts.protocol = optimized ? Protocol::RegularOptimized : Protocol::Regular;
  opts.res = Resilience::optimal(t, b, 2);
  opts.seed = seed;
  opts.history_limit = limit;
  return opts;
}

TEST(HistoryGc, MemoryIsBounded) {
  Deployment d(gc_opts(1, 1, 4, 1));
  harness::write_stream(d, 0, 1'000, 50);
  d.run();
  for (int i = 0; i < d.res().num_objects; ++i) {
    auto& obj = dynamic_cast<objects::RegularObject&>(d.object_process(i));
    EXPECT_LE(obj.history_size(), 4u) << "object " << i;
  }
}

TEST(HistoryGc, NewestSlotsSurvive) {
  Deployment d(gc_opts(1, 1, 3, 2));
  harness::write_stream(d, 0, 1'000, 30);
  d.run();
  auto& obj = dynamic_cast<objects::RegularObject&>(d.object_process(0));
  EXPECT_TRUE(obj.state().history.contains(30));
  EXPECT_TRUE(obj.state().history.contains(29));
  EXPECT_FALSE(obj.state().history.contains(1));
}

TEST(HistoryGc, ReadsRemainCorrectAfterPruning) {
  Deployment d(gc_opts(2, 2, 4, 3));
  harness::sequential_then_reads(d, 30, 8);
  d.run();
  const auto report = d.check();
  EXPECT_TRUE(report.ok()) << report.summary();
  // Every read must have returned the latest value.
  for (const auto& op : d.log().snapshot()) {
    if (op.kind == checker::OpRecord::Kind::Read) {
      EXPECT_EQ(op.ts, 30u);
    }
  }
}

class HistoryGcSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(HistoryGcSweep, RegularityUnderConcurrencyAndFaults) {
  const auto [limit, optimized] = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto opts = gc_opts(2, 2, limit, seed * 37, optimized);
    opts.faults =
        harness::FaultPlan::mixed(2, adversary::StrategyKind::Random, 0);
    Deployment d(opts);
    harness::MixedWorkloadOptions w;
    w.writes = 20;
    w.reads_per_reader = 15;
    w.write_gap = 2'000;
    w.read_gap = 1'500;
    harness::mixed_workload(d, w);
    d.run();
    for (const auto& op : d.log().snapshot()) {
      ASSERT_TRUE(op.complete) << "limit " << limit << " seed " << seed;
    }
    const auto report = d.check();
    EXPECT_TRUE(report.ok())
        << "limit " << limit << " seed " << seed << "\n" << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Limits, HistoryGcSweep,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{4},
                                         std::size_t{8}, std::size_t{0}),
                       ::testing::Bool()),
    [](const auto& info) {
      const auto limit = std::get<0>(info.param);
      return (limit == 0 ? std::string("unlimited")
                         : "limit" + std::to_string(limit)) +
             (std::get<1>(info.param) ? "_opt" : "_full");
    });

TEST(HistoryGc, StaleCacheReaderStillTerminates) {
  // A reader whose cache points below the pruned horizon: objects ship only
  // the surviving suffix; the read must still terminate and return a value
  // no older than the cache (regularity of the optimized variant).
  Deployment d(gc_opts(1, 1, 2, 7, /*optimized=*/true));
  // Prime the cache at ts=1.
  d.logged_write(0, "old");
  d.logged_read(100'000, 0);
  // Push the history far past the horizon.
  harness::write_stream(d, 200'000, 1'000, 20);
  TsVal got;
  d.invoke_read(5'000'000, 0,
                [&](const core::ReadResult& r) { got = r.tsval; });
  d.run();
  EXPECT_EQ(got.ts, 21u) << "must return the newest value";
  EXPECT_TRUE(d.check().ok()) << d.check().summary();
}

TEST(HistoryGc, RejectsUnusableLimit) {
  const Topology topo(1, 4);
  EXPECT_DEATH(objects::RegularObject(topo, 0, 1), "two live slots");
}

// ---------------------------------------------------------------------------
// Watermark bookkeeping (unit level, capturing context).
// ---------------------------------------------------------------------------

/// Minimal real context backing the capturing one.
class NullContext final : public net::Context {
 public:
  [[nodiscard]] ProcessId self() const override { return 99; }
  [[nodiscard]] Time now() const override { return 0; }
  void send(ProcessId, wire::Message) override {}
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  Rng rng_{1};
};

TEST(HistoryGc, AckedWatermarksAreMonotone) {
  // A reader's acked watermark may only advance: a later request with a
  // *lower* floor (a reader that resynced and rebuilt a shorter mirror)
  // must not drag the GC horizon back down, and a stale-tsr replay must not
  // touch it at all.
  const Topology topo(2, 4);
  objects::RegularObject obj(topo, 0, /*history_limit=*/0,
                             /*history_gc=*/false);
  NullContext null;
  auto deliver = [&](ProcessId from, wire::Message m) {
    adversary::CapturingContext cap(null);
    obj.on_message(cap, from, std::move(m));
  };
  auto write = [&](Ts ts) {
    const WTuple prev{TsVal{ts - 1, "v"}, init_tsrarray(4)};
    deliver(topo.writer(), wire::PwMsg{ts, TsVal{ts, "v"}, prev});
    deliver(topo.writer(),
            wire::WMsg{ts, TsVal{ts, "v"}, WTuple{TsVal{ts, "v"}, {}}});
  };
  for (Ts ts = 1; ts <= 6; ++ts) write(ts);

  deliver(topo.reader(0), wire::HistReadMsg{1, 10, 0, 4});
  EXPECT_EQ(obj.acked()[0], 4u);
  // Newer tsr, lower floor: the watermark holds.
  deliver(topo.reader(0), wire::HistReadMsg{2, 11, 0, 2});
  EXPECT_EQ(obj.acked()[0], 4u);
  // Stale tsr replay: ignored entirely.
  deliver(topo.reader(0), wire::HistReadMsg{1, 10, 0, 6});
  EXPECT_EQ(obj.acked()[0], 4u);
  // Genuine progress advances it; the other reader's watermark is untouched.
  deliver(topo.reader(0), wire::HistReadMsg{1, 12, 5, 6});
  EXPECT_EQ(obj.acked()[0], 6u);
  EXPECT_EQ(obj.acked()[1], 0u);
}

// ---------------------------------------------------------------------------
// GC soundness under link chaos, and the hard cap's flagged escape hatch.
// ---------------------------------------------------------------------------

TEST(HistoryGc, WatermarkGcNeverForcesResyncsUnderLinkChaos) {
  // With no hard cap the watermark rule alone decides eviction, and a
  // watermark is only raised by a floor the reader itself sent -- so GC can
  // never evict a slot a reader still needs, no matter how the network
  // mangles the request/reply stream. Lost, duplicated and reordered
  // deltas must therefore produce zero flagged resyncs and no safety
  // violation (loss is model-violating, so ops may stall; safety may not).
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const bool optimized : {false, true}) {
      auto opts = gc_opts(1, 1, /*limit=*/0, seed * 101, optimized);
      opts.link_faults.loss = {0.03, 0, 0, {}};
      opts.link_faults.duplicate = {0.05, 0, 0, {}};
      opts.link_faults.reorder = {0.10, 0, 0, {}};
      opts.link_faults.seed = seed;
      Deployment d(opts);
      harness::MixedWorkloadOptions w;
      w.writes = 25;
      w.reads_per_reader = 12;
      w.write_gap = 2'000;
      w.read_gap = 3'000;
      harness::mixed_workload(d, w);
      d.run();
      const auto report = d.check();
      EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.summary();
      for (int i = 0; i < d.res().num_objects; ++i) {
        auto& obj =
            dynamic_cast<objects::RegularObject&>(d.object_process(i));
        EXPECT_EQ(obj.resyncs_served(), 0u) << "object " << i;
      }
      for (int j = 0; j < d.res().num_readers; ++j) {
        EXPECT_EQ(d.regular_reader(j).diag().resyncs, 0u) << "reader " << j;
      }
    }
  }
}

TEST(HistoryGc, HardCapEvictsPastACrashedReaderAndFlagsResyncs) {
  // Reader 1 never reads (a crashed reader never acks), so its watermark
  // pins the GC horizon at 0 and only the hard cap bounds memory. The cap
  // keeps evicting slots reader 0 has not acked yet (its reads are far
  // apart), which must surface as explicit flagged resyncs -- and the reads
  // must still return the newest value.
  auto opts = gc_opts(1, 1, /*limit=*/4, 13, /*optimized=*/true);
  Deployment d(opts);
  harness::write_stream(d, 0, 1'000, 40);
  harness::read_stream(d, /*reader=*/0, /*start=*/10'000, /*gap=*/12'000, 4);
  TsVal got;
  d.invoke_read(5'000'000, 0,
                [&](const core::ReadResult& r) { got = r.tsval; });
  d.run();
  std::uint64_t served = 0;
  for (int i = 0; i < d.res().num_objects; ++i) {
    auto& obj = dynamic_cast<objects::RegularObject&>(d.object_process(i));
    EXPECT_LE(obj.history_size(), 4u) << "object " << i;
    served += obj.resyncs_served();
  }
  EXPECT_GT(served, 0u) << "the cap must have outrun reader 0's watermark";
  EXPECT_GT(d.regular_reader(0).diag().resyncs, 0u);
  EXPECT_EQ(got.ts, 40u) << "resynced reads must still find the newest value";
  EXPECT_TRUE(d.check().ok()) << d.check().summary();
}

// ---------------------------------------------------------------------------
// GC transparency: collecting the acked prefix may not change anything a
// client or the checker can observe -- same ops, same verdicts, and (since
// the shipped deltas start at the reader's floor either way) the very same
// DES schedule, message for message.
// ---------------------------------------------------------------------------

TEST(HistoryGc, VerdictsAndScheduleAreIdenticalWithGcOnAndOff) {
  for (const bool optimized : {false, true}) {
    std::uint64_t fp[2] = {0, 0};
    std::vector<checker::OpRecord> ops[2];
    bool ok[2] = {false, false};
    for (const int gc : {0, 1}) {
      auto opts = gc_opts(2, 1, /*limit=*/0, 99, optimized);
      opts.history_gc = gc != 0;
      opts.trace_fingerprint = true;
      Deployment d(opts);
      harness::MixedWorkloadOptions w;
      w.writes = 15;
      w.reads_per_reader = 10;
      harness::mixed_workload(d, w);
      d.run();
      fp[gc] = d.world().schedule_fingerprint();
      ops[gc] = d.log().snapshot();
      ok[gc] = d.check().ok();
      if (opts.history_gc) {
        // ...and GC actually collected something in the twin being compared.
        auto& obj =
            dynamic_cast<objects::RegularObject&>(d.object_process(0));
        EXPECT_LT(obj.history_size(), 16u);
      }
    }
    EXPECT_EQ(fp[0], fp[1]) << "GC changed the message schedule";
    EXPECT_TRUE(ok[0]);
    EXPECT_TRUE(ok[1]);
    ASSERT_EQ(ops[0].size(), ops[1].size());
    for (std::size_t i = 0; i < ops[0].size(); ++i) {
      EXPECT_EQ(ops[0][i].ts, ops[1][i].ts) << "op " << i;
      EXPECT_EQ(ops[0][i].value, ops[1][i].value) << "op " << i;
      EXPECT_EQ(ops[0][i].complete, ops[1][i].complete) << "op " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// The arena payoff: a garbage-collected object's write/ack path at steady
// state -- PW opens a slot, W completes it, the watermark rule collects the
// prefix, acks go out -- touches the heap zero times. Slots, parked
// payloads and event-pool entries are all recycled.
// ---------------------------------------------------------------------------

TEST(HistoryGc, SteadyStateWritePathIsAllocationFree) {
  struct Sink final : net::Process {
    void on_message(net::Context&, ProcessId, const wire::Message&) override {}
  };
  const Topology topo(0, 1);  // writer + one object, no readers
  sim::World w;
  w.set_delay_model(std::make_unique<sim::FixedDelay>(10));
  const auto writer = w.add_process(std::make_unique<Sink>());
  ASSERT_EQ(writer, topo.writer());
  auto obj = std::make_unique<objects::RegularObject>(topo, 0,
                                                      /*history_limit=*/4);
  auto* obj_raw = obj.get();
  const auto obj_pid = w.add_process(std::move(obj));
  ASSERT_EQ(obj_pid, topo.object(0));
  // Short values stay in the string's inline buffer; empty tsrarrays keep
  // the tuples heap-free. The write path itself must not allocate either
  // way once the arena is warm.
  auto burst = [&](Time at, Ts from, int count) {
    w.post(at, writer, [obj_pid, from, count](net::Context& ctx) {
      for (Ts ts = from; ts < from + static_cast<Ts>(count); ++ts) {
        const TsVal pw{ts, "v"};
        ctx.send(obj_pid, wire::PwMsg{ts, pw, WTuple{TsVal{ts - 1, "u"}, {}}});
        ctx.send(obj_pid, wire::WMsg{ts, pw, WTuple{pw, {}}});
      }
    });
  };
  burst(0, 1, 300);  // warm-up: slab, free lists, arena, parked payloads
  w.run();
  ASSERT_EQ(obj_raw->state().ts, 300u);
  burst(w.now() + 100, 301, 200);
  ASSERT_TRUE(w.step());  // execute the posting closure (sends reuse slots)
  const std::uint64_t before = test::heap_allocs.load();
  w.run();
  const std::uint64_t allocs = test::heap_allocs.load() - before;
  EXPECT_EQ(allocs, 0u)
      << "steady-state PW/W handling and acks must not allocate";
  EXPECT_EQ(obj_raw->state().ts, 500u);
  EXPECT_LE(obj_raw->history_size(), 4u);
}

// ---------------------------------------------------------------------------
// Below-front inserts. Every Byzantine regular reply re-ships slot 0, which a
// reader's mirror pruned after its last read: the insert lands below the
// live front of a ring with a dead prefix and must reuse that prefix (and a
// parked payload) instead of shifting every retained slot into a new buffer.
// ---------------------------------------------------------------------------

TEST(HistoryRing, BelowFrontInsertReusesTheDeadPrefix) {
  wire::History h;
  for (Ts ts = 0; ts < 8; ++ts) {
    h.put_w(ts, TsVal{ts, "v"}, WTuple{TsVal{ts, "v"}, init_tsrarray(4)});
  }
  h.erase(h.begin(), h.lower_bound(5));  // live: 5 6 7, dead prefix of 5
  const wire::HistEntry slot0{TsVal::bottom(), initial_wtuple(4)};
  const wire::HistEntry slot3{TsVal{3, "v"},
                              WTuple{TsVal{3, "v"}, init_tsrarray(4)}};

  const std::uint64_t before = test::heap_allocs.load();
  h.merge_slot(3, slot3);  // below the front: 3 5 6 7
  h.merge_slot(0, slot0);  // below the new front: 0 3 5 6 7
  EXPECT_EQ(test::heap_allocs.load() - before, 0u)
      << "a below-front insert must reuse the dead prefix and its payloads";

  Ts keys[8] = {};
  std::size_t n = 0;
  for (const auto& [ts, entry] : h) {
    ASSERT_LT(n, 8u);
    keys[n++] = ts;
  }
  ASSERT_EQ(n, 5u);
  EXPECT_EQ(keys[0], 0u);
  EXPECT_EQ(keys[1], 3u);
  EXPECT_EQ(keys[2], 5u);
  EXPECT_EQ(keys[3], 6u);
  EXPECT_EQ(keys[4], 7u);
  EXPECT_EQ(h.at(0), slot0);
  EXPECT_EQ(h.at(3), slot3);
  EXPECT_EQ(h.at(5).w->tsval, (TsVal{5, "v"}));

  // The GC cycle a reader mirror runs on every read: prune, re-insert.
  for (int round = 0; round < 100; ++round) {
    h.erase(h.begin(), h.lower_bound(5));
    h.merge_slot(0, slot0);
  }
  EXPECT_EQ(test::heap_allocs.load() - before, 0u);
  EXPECT_EQ(h.size(), 4u);
  EXPECT_EQ(h.begin()->first, 0u);
}

// ---------------------------------------------------------------------------
// The reader's ack path against a stagger-shaped object: each of its replies
// ships slot 0 plus a fresh forged slot above the writer, so the reader's
// mirror of it keeps growing (the writer only catches up with a third of
// the forged slots). The reader's work per ack must follow what the ack
// changed, not the size of that mirror; heap allocations make this visible.
// ---------------------------------------------------------------------------

/// Scripted reads against objects 0-2 (correct) and 3 (stagger), S = 4.
/// Read k: the writer has written 1..k; objects 0-2 ship slots k-1 and k;
/// the stagger replies first in round 1 and last, after the read
/// returned, in round 2. Messages are built before they are delivered, so
/// only the reader's own allocations fall into a measured window.
class StaggerReads {
 public:
  explicit StaggerReads(bool forged_rows)
      : topo_(1, res_.num_objects),
        reader_(res_, topo_, 0, /*optimized=*/false),
        forged_rows_(forged_rows) {}

  static constexpr int kStagger = 3;

  /// Runs reads k = next .. next+count-1; returns the heap allocations
  /// they made and counts the reads that made any.
  std::uint64_t run(Ts count, int* allocating_reads = nullptr) {
    std::vector<std::vector<Ack>> scripts;
    scripts.reserve(count);
    for (Ts k = next_; k < next_ + count; ++k) scripts.push_back(script(k));
    const std::uint64_t before = test::heap_allocs.load();
    for (const auto& acks : scripts) {
      const std::uint64_t at = test::heap_allocs.load();
      returned_ = 0;
      reader_.read(null_, [this](const core::ReadResult& r) {
        returned_ = r.tsval.ts;
      });
      for (const auto& a : acks) {
        reader_.on_message(null_, topo_.object(a.from), a.msg);
      }
      if (returned_ != next_) ++wrong_;
      ++next_;
      if (allocating_reads != nullptr && test::heap_allocs.load() != at) {
        ++*allocating_reads;
      }
    }
    return test::heap_allocs.load() - before;
  }

  [[nodiscard]] std::size_t forged() const {
    return reader_.mirror(kStagger).size();
  }
  [[nodiscard]] int wrong_returns() const { return wrong_; }

 private:
  struct Ack {
    int from;
    wire::Message msg;  // prebuilt: a conversion at delivery would copy
  };

  [[nodiscard]] std::vector<Ack> script(Ts k) {
    const ReaderTs tsr1 = 2 * k - 1;
    std::vector<Ack> acks;
    acks.push_back({kStagger, stagger(k, 1, tsr1)});
    acks.push_back({0, honest(k, 1, tsr1)});
    acks.push_back({1, honest(k, 1, tsr1)});  // quorum: round 2 starts
    acks.push_back({2, honest(k, 1, tsr1)});  // late round-1 ack
    acks.push_back({0, honest(k, 2, tsr1 + 1)});
    acks.push_back({1, honest(k, 2, tsr1 + 1)});
    acks.push_back({2, honest(k, 2, tsr1 + 1)});  // forged slots invalid
    acks.push_back({kStagger, stagger(k, 2, tsr1 + 1)});
    return acks;
  }

  [[nodiscard]] wire::HistReadAckMsg honest(Ts k, std::uint8_t round,
                                            ReaderTs tsr) const {
    wire::HistReadAckMsg m{round, tsr, {}, k - 1, 0};
    for (Ts ts = k - 1; ts <= k; ++ts) {
      m.history[ts] = wire::HistEntry{TsVal{ts, "v"},
                                      WTuple{TsVal{ts, "v"}, {}}};
    }
    return m;
  }

  [[nodiscard]] wire::HistReadAckMsg stagger(Ts k, std::uint8_t round,
                                             ReaderTs tsr) {
    wire::HistReadAckMsg m{round, tsr, {}, 0, 0};
    m.history[0] = wire::HistEntry{TsVal::bottom(), WTuple{}};
    const Ts ts = k + 100 + counter_++;
    WTuple w{TsVal{ts, "STAGGER"}, {}};
    if (forged_rows_) {  // the shape adversary::forge_tuple gives it
      w.tsrarray = init_tsrarray(static_cast<std::size_t>(res_.num_objects));
      for (int i = 0; i < res_.quorum(); ++i) {
        w.tsrarray[static_cast<std::size_t>(i)] = TsrRow(1, 0);
      }
    }
    m.history[ts] = wire::HistEntry{w.tsval, w};
    return m;
  }

  Resilience res_ = Resilience::optimal(1, 1, 1);  // S = 4, quorum 3
  Topology topo_;
  core::RegularReader reader_;
  NullContext null_;
  bool forged_rows_;
  Ts next_{1};
  Ts counter_{0};
  Ts returned_{0};
  int wrong_{0};
};

TEST(HistoryGc, ReaderAckPathDoesNotAllocatePerAckAgainstAStagger) {
  // No tuple here carries tsrarray rows and every value is short, so
  // storing one needs no heap of its own: what is counted is the reader's
  // bookkeeping and the mirror's slot array. Once warm, acks allocate
  // nothing; what remains is the geometric growth of the containers that
  // hold the growing forged set (the mirror's slot array and the reader's
  // candidate store, index and live list), at most once each over a window
  // that grows the set by less than 2x.
  StaggerReads reads(/*forged_rows=*/false);
  reads.run(1'000);  // warm-up
  const std::size_t forged_before = reads.forged();
  int allocating_reads = 0;
  const std::uint64_t allocs = reads.run(1'000, &allocating_reads);
  EXPECT_EQ(reads.wrong_returns(), 0);
  EXPECT_GE(reads.forged(), forged_before + 1'000)
      << "the stagger's mirror must keep growing";
  ASSERT_LT(reads.forged(), 2 * forged_before);
  EXPECT_LE(allocs, 4u) << "allocations beyond container growth";
  EXPECT_LE(allocating_reads, 4) << "of 1000 reads";
}

TEST(HistoryGc, ReaderAllocationsDoNotScaleWithTheForgedMirror) {
  // With forged tuples shaped like adversary::forge_tuple's (tsrarray rows
  // on the heap), every new forged slot costs its stored copies, a fixed
  // number per reply. A reader that re-copied or re-collected the forged
  // set on every read would allocate in proportion to the mirror instead:
  // two equal windows, the second over a mirror about twice as large, must
  // allocate the same, up to container growth.
  StaggerReads reads(/*forged_rows=*/true);
  reads.run(500);  // warm-up
  const std::size_t f0 = reads.forged();
  const std::uint64_t first = reads.run(1'000);
  const std::size_t f1 = reads.forged();
  const std::uint64_t second = reads.run(1'000);
  EXPECT_EQ(reads.wrong_returns(), 0);
  ASSERT_GT(reads.forged(), f1 + (f1 - f0) / 2) << "mirror must keep growing";
  EXPECT_GT(first, 0u);
  EXPECT_LE(second, first + 8) << "allocations grew with the forged mirror";
}

}  // namespace
}  // namespace rr
