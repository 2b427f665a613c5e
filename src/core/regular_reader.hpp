// Reader automaton of the SWMR *regular* storage (paper Figure 6).
//
// Same two-round communication pattern as the safe reader, but objects reply
// with write-history *deltas* (Figure 5 + the Section 5.1 suffix idea driven
// to its ack-based conclusion): the reader keeps a persistent per-object
// history mirror, tells each object the top slot it has already merged
// (HistReadMsg::have), and receives only the suffix past it. The
// value-selection predicates are per-timestamp-slot over the mirrors:
//   safe(c):    >= b+1 objects confirm slot c.ts with c's pair/tuple,
//   invalid(c): >= t+b+1 objects deny slot c.ts (missing or mismatching).
//
// With `optimized` set (Section 5.1), the reader also sends the timestamp of
// the last value it returned (cache_ts); objects treat max(have, cache_ts)
// as the reader's acked floor. If the candidate set drains, the reader falls
// back to the cache. Mirrors are pruned below the cache after every read, so
// reader memory tracks the cache window, not the full history -- except for
// a Byzantine object that keeps forging slots above the writer, whose mirror
// grows by one slot per reply.
//
// Every distinct w-tuple the mirrors report is kept once, across reads, in a
// timestamp-indexed candidate store together with two bitmasks over objects
// (whose mirror slot at the tuple's timestamp holds the tuple's w, and whose
// holds its pw). A merged slot updates the masks of the few tuples at its
// timestamp; safe() and invalid() are popcounts of those masks against the
// replied set. So a read copies no tuple it has seen before and checks none
// against every mirror; what stays linear in such a forged mirror is a pass
// of a few machine words per live candidate per ack (docs/ARCHITECTURE.md,
// "History lifecycle").
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/client_api.hpp"
#include "core/client_types.hpp"
#include "net/process.hpp"
#include "wire/messages.hpp"

namespace rr::core {

class RegularReader : public ReaderClient {
 public:
  RegularReader(const Resilience& res, const Topology& topo, int reader_index,
                bool optimized);

  void read(net::Context& ctx, ReadCallback cb) override;

  void on_message(net::Context& ctx, ProcessId from,
                  const wire::Message& msg) override;

  [[nodiscard]] bool busy() const { return phase_ != Phase::Idle; }
  [[nodiscard]] bool optimized() const { return optimized_; }
  [[nodiscard]] const TsVal& cache() const { return cache_; }

  struct Diag {
    int round1_acks{0};
    int round2_acks{0};
    std::uint64_t history_slots_received{0};
    std::uint64_t resyncs{0};  ///< flagged-resync replies merged (lifetime)
    int candidates_added{0};
    int candidates_removed{0};
    bool returned_from_cache{false};
  };
  [[nodiscard]] const Diag& diag() const { return diag_; }

  /// Top history slot merged from object i (the `have` sent to it).
  [[nodiscard]] Ts have(std::size_t i) const { return have_[i]; }
  /// Persistent history mirror of object i (test/diagnostic access).
  [[nodiscard]] const wire::History& mirror(std::size_t i) const {
    return mirror_[i];
  }
  /// The read in progress's candidates that are not removed, in the order
  /// Figure 6 line 20 added them; empty between reads (test/diagnostic
  /// access).
  [[nodiscard]] std::vector<WTuple> candidates() const;

 private:
  enum class Phase { Idle, Round1, Round2 };

  /// One distinct w-tuple reported by some mirror (Figure 6 line 20's
  /// unit). Kept across reads so each tuple is copied once; freed (storage
  /// kept for reuse) after a read once no mirror slot holds it any more.
  struct Candidate {
    WTuple tuple;
    /// Objects whose mirror slot tuple.tsval.ts has w == tuple ...
    std::uint64_t w_at{0};
    /// ... and those whose slot there has pw == tuple.tsval. A replied
    /// object vouches (line 3) iff its bit is in w_at | pw_at and denies
    /// (line 2) iff its bit is not in w_at & pw_at.
    std::uint64_t pw_at{0};
    /// Max tsrarray[*][j] for this reader j: the tuple accuses (line 1)
    /// in a read iff this exceeds the read's tsrFR.
    ReaderTs accusation{0};
    std::uint64_t read{0};  ///< last read it was a candidate in (1-based)
    bool gc_queued{false};  ///< in gc_ (w_at dropped to 0 at some point)
  };

  void handle_ack(net::Context& ctx, ProcessId from,
                  const wire::HistReadAckMsg& m);
  void merge_delta(std::size_t i, const wire::HistReadAckMsg& m);
  void add_candidates_from_mirror(std::size_t i);
  void sweep_removals();

  // Candidate store. Every mirror mutation reports the slots it touched, so
  // w_at/pw_at always equal what a scan of the mirrors would compute.
  [[nodiscard]] std::pair<std::size_t, std::size_t> at_ts(Ts ts) const;
  [[nodiscard]] std::uint32_t find_candidate(const WTuple& w) const;
  std::uint32_t make_candidate(const WTuple& w);
  void update_bits(std::uint32_t id, std::size_t i);
  void refresh_slot(std::size_t i, Ts ts);
  void drop_slot(std::size_t i, Ts ts);
  void set_bits(std::uint32_t id, std::size_t i, bool w, bool pw);
  void collect_garbage();
  [[nodiscard]] bool holds_anywhere(std::size_t k, std::uint32_t id) const;

  [[nodiscard]] bool round1_complete() const;
  void start_round2(net::Context& ctx);
  void try_finish(net::Context& ctx);
  void complete(net::Context& ctx, TsVal v, bool from_cache);

  [[nodiscard]] std::uint64_t replied() const { return replied1_ | replied2_; }

  Resilience res_;
  Topology topo_;
  int reader_index_;
  bool optimized_;

  // Persistent state.
  ReaderTs tsr_{0};
  TsVal cache_{TsVal::bottom()};  ///< last returned value (Section 5.1)
  std::vector<wire::History> mirror_;  ///< per-object merged history
  std::vector<Ts> have_;               ///< per-object top merged slot
  /// Per object: mirror slots whose w sits at a key other than its own
  /// timestamp (only a Byzantine object ships those).
  std::vector<std::uint32_t> misplaced_;
  std::vector<Candidate> store_;       ///< candidate storage, by id
  std::vector<std::uint32_t> free_;    ///< reusable store_ ids
  /// (tuple timestamp, id) of every in-use candidate, sorted.
  std::vector<std::pair<Ts, std::uint32_t>> by_ts_;
  std::vector<std::uint32_t> gc_;      ///< ids whose w_at reached 0
  std::uint64_t reads_{0};             ///< reads started (Candidate::read)

  // Per-read state.
  Phase phase_{Phase::Idle};
  ReaderTs tsr_first_round_{0};
  Ts request_cache_ts_{0};  ///< cache.ts snapshot sent with this read
  std::uint64_t replied1_{0};  ///< objects that replied in round 1 (mask)
  std::uint64_t replied2_{0};  ///< objects that replied in round 2 (mask)
  /// This read's candidates not yet removed (line 27), in the order line
  /// 20 added them; the order picks among equally-new safe candidates.
  std::vector<std::uint32_t> live_;
  ReadCallback cb_;
  Time invoked_at_{0};
  Diag diag_{};
};

}  // namespace rr::core
