#include "core/regular_reader.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

#include "common/assert.hpp"
#include "common/graph.hpp"

namespace rr::core {
namespace {

constexpr std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << i; }

constexpr std::uint32_t kNone = ~std::uint32_t{0};  ///< no candidate id

}  // namespace

RegularReader::RegularReader(const Resilience& res, const Topology& topo,
                             int reader_index, bool optimized)
    : res_(res),
      topo_(topo),
      reader_index_(reader_index),
      optimized_(optimized) {
  RR_ASSERT(res.valid());
  RR_ASSERT(reader_index >= 0 && reader_index < res.num_readers);
  RR_ASSERT_MSG(res.num_objects <= 64,
                "replied sets and conflict quorums are 64-bit object masks");
  mirror_.resize(static_cast<std::size_t>(res.num_objects));
  have_.assign(static_cast<std::size_t>(res.num_objects), 0);
  misplaced_.assign(static_cast<std::size_t>(res.num_objects), 0);
}

void RegularReader::read(net::Context& ctx, ReadCallback cb) {
  RR_ASSERT_MSG(phase_ == Phase::Idle,
                "READ invoked while previous READ in progress");
  // Figure 6 lines 7-10.
  replied1_ = 0;
  replied2_ = 0;
  live_.clear();
  ++reads_;
  cb_ = std::move(cb);
  invoked_at_ = ctx.now();
  diag_ = Diag{};
  tsr_first_round_ = ++tsr_;
  request_cache_ts_ = optimized_ ? cache_.ts : 0;
  phase_ = Phase::Round1;
  for (int i = 0; i < res_.num_objects; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    ctx.send(topo_.object(i),
             wire::HistReadMsg{1, tsr_, request_cache_ts_, have_[ui]});
  }
}

void RegularReader::on_message(net::Context& ctx, ProcessId from,
                               const wire::Message& msg) {
  if (const auto* ack = std::get_if<wire::HistReadAckMsg>(&msg)) {
    handle_ack(ctx, from, *ack);
  }
}

std::vector<WTuple> RegularReader::candidates() const {
  std::vector<WTuple> out;
  out.reserve(live_.size());
  for (const auto id : live_) out.push_back(store_[id].tuple);
  return out;
}

void RegularReader::handle_ack(net::Context& ctx, ProcessId from,
                               const wire::HistReadAckMsg& m) {
  if (!topo_.is_object(from)) return;
  const auto i = static_cast<std::size_t>(topo_.object_index(from));
  // Figure 6 lines 17-25: one reply per object per round (the tsr[i] guard),
  // pattern-matched against the reader's current timestamp.
  if (phase_ == Phase::Round1 && m.round == 1 && m.tsr == tsr_first_round_ &&
      (replied1_ & bit(i)) == 0) {
    ++diag_.round1_acks;
    replied1_ |= bit(i);
    merge_delta(i, m);
    add_candidates_from_mirror(i);  // Figure 6 line 20
    sweep_removals();
    if (round1_complete()) {
      start_round2(ctx);
      try_finish(ctx);
    }
  } else if (phase_ == Phase::Round2 && m.round == 2 &&
             m.tsr == tsr_first_round_ + 1 && (replied2_ & bit(i)) == 0) {
    ++diag_.round2_acks;
    replied2_ |= bit(i);
    merge_delta(i, m);
    sweep_removals();
    try_finish(ctx);
  } else if (m.resync == 0) {
    // Late ack (the round closed at a quorum without this object, or the
    // READ already returned): the delta is still a correct suffix of the
    // object's history and the mirror union is monotone, so merge it anyway.
    // Without this, a chronically slow object's `have` floor goes stale and
    // its deltas regrow the O(history) tail. It takes no part in this
    // round's candidate/removal bookkeeping (not marked replied). Resync
    // suffixes are exempt: the mirror rebuild is not monotone and may gap
    // against a floor that has moved on.
    merge_delta(i, m);
  }
}

void RegularReader::merge_delta(std::size_t i, const wire::HistReadAckMsg& m) {
  diag_.history_slots_received += m.history.size();
  auto& mir = mirror_[i];
  if (m.resync != 0) {
    // The object's hard cap evicted slots below our floor: the shipped
    // suffix starts at m.since > floor, so our mirror can no longer be
    // extended gap-free. Rebuild it from the flagged suffix.
    ++diag_.resyncs;
    for (const auto& slot : mir) drop_slot(i, slot.first);
    misplaced_[i] = 0;
    mir.clear();
  }
  // Monotone union: an engaged pw/w in the mirror is never regressed to nil
  // by a reordered or replayed delta, so a slot can never flip from vouching
  // back to denying.
  for (const auto& [ts, src] : m.history) {
    if (src.w.has_value()) {  // the slot's w is replaced by src's
      const auto old = mir.find(ts);
      const bool was = old != mir.end() && old->second.w.has_value() &&
                       old->second.w->tsval.ts != ts;
      const bool now = src.w->tsval.ts != ts;
      if (now && !was) ++misplaced_[i];
      if (was && !now) --misplaced_[i];
    }
    mir.merge_slot(ts, src);
    refresh_slot(i, ts);
  }
  if (!mir.empty()) {
    have_[i] = std::prev(mir.end())->first;
  }
}

std::pair<std::size_t, std::size_t> RegularReader::at_ts(Ts ts) const {
  const auto [lo, hi] = std::equal_range(
      by_ts_.begin(), by_ts_.end(), std::pair<Ts, std::uint32_t>{ts, 0},
      [](const auto& a, const auto& b) { return a.first < b.first; });
  return {static_cast<std::size_t>(lo - by_ts_.begin()),
          static_cast<std::size_t>(hi - by_ts_.begin())};
}

std::uint32_t RegularReader::find_candidate(const WTuple& w) const {
  const auto [lo, hi] = at_ts(w.tsval.ts);
  for (auto p = lo; p < hi; ++p) {
    if (store_[by_ts_[p].second].tuple == w) return by_ts_[p].second;
  }
  return kNone;
}

std::uint32_t RegularReader::make_candidate(const WTuple& w) {
  std::uint32_t id = 0;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(store_.size());
    store_.emplace_back();
  }
  auto& c = store_[id];
  c.tuple = w;  // a recycled id reuses the old tuple's capacity
  c.w_at = 0;
  c.pw_at = 0;
  c.read = 0;
  c.gc_queued = false;
  c.accusation = 0;
  const auto j = static_cast<std::size_t>(reader_index_);
  for (const auto& row : w.tsrarray) {
    if (row.has_value() && j < row->size()) {
      c.accusation = std::max(c.accusation, (*row)[j]);
    }
  }
  const Ts ts = w.tsval.ts;
  const auto at = std::upper_bound(
      by_ts_.begin(), by_ts_.end(), ts,
      [](Ts t, const auto& e) { return t < e.first; });
  by_ts_.insert(at, {ts, id});
  for (std::size_t i = 0; i < mirror_.size(); ++i) update_bits(id, i);
  return id;
}

void RegularReader::update_bits(std::uint32_t id, std::size_t i) {
  const WTuple& c = store_[id].tuple;
  const auto& h = mirror_[i];
  const auto it = h.find(c.tsval.ts);
  if (it == h.end()) {
    set_bits(id, i, false, false);
    return;
  }
  const auto& e = it->second;
  set_bits(id, i, e.w.has_value() && *e.w == c,
           e.pw.has_value() && *e.pw == c.tsval);
}

void RegularReader::refresh_slot(std::size_t i, Ts ts) {
  const auto [lo, hi] = at_ts(ts);
  for (auto p = lo; p < hi; ++p) update_bits(by_ts_[p].second, i);
}

void RegularReader::drop_slot(std::size_t i, Ts ts) {
  const auto [lo, hi] = at_ts(ts);
  for (auto p = lo; p < hi; ++p) set_bits(by_ts_[p].second, i, false, false);
}

void RegularReader::set_bits(std::uint32_t id, std::size_t i, bool w,
                             bool pw) {
  auto& c = store_[id];
  c.w_at = w ? (c.w_at | bit(i)) : (c.w_at & ~bit(i));
  c.pw_at = pw ? (c.pw_at | bit(i)) : (c.pw_at & ~bit(i));
  if (c.w_at == 0 && !c.gc_queued) {
    c.gc_queued = true;
    gc_.push_back(id);
  }
}

void RegularReader::collect_garbage() {
  // Runs between reads only, so no live_ entry is ever freed under a read.
  // Every id in gc_ is in use: only set_bits queues, and only on stored ids.
  bool freed = false;
  for (const auto id : gc_) {
    auto& c = store_[id];
    c.gc_queued = false;
    if (c.w_at != 0) continue;
    free_.push_back(id);
    const auto [lo, hi] = at_ts(c.tuple.tsval.ts);
    for (auto p = lo; p < hi; ++p) {
      if (by_ts_[p].second == id) by_ts_[p].second = kNone;
    }
    freed = true;
  }
  gc_.clear();
  if (freed) {
    std::erase_if(by_ts_, [](const auto& e) { return e.second == kNone; });
  }
}

void RegularReader::add_candidates_from_mirror(std::size_t i) {
  // Figure 6 line 20 over the mirror: the mirror suffix from the requested
  // cache_ts is exactly the history a full Section 5.1 suffix reply would
  // have carried; the delta only shipped the part we lacked.
  const auto& h = mirror_[i];
  auto it = h.lower_bound(request_cache_ts_);
  if (it == h.end()) return;
  // The mirror and by_ts_ are both sorted: walk them together.
  std::size_t p = at_ts(it->first).first;
  for (; it != h.end(); ++it) {
    if (!it->second.w.has_value()) continue;
    const WTuple& w = *it->second.w;
    std::uint32_t id = kNone;
    if (w.tsval.ts == it->first) {
      // A stored tuple equal to this slot's w is the one at its timestamp
      // with object i in w_at: no tuple comparison needed.
      while (p < by_ts_.size() && by_ts_[p].first < it->first) ++p;
      for (auto q = p; q < by_ts_.size() && by_ts_[q].first == it->first;
           ++q) {
        if ((store_[by_ts_[q].second].w_at & bit(i)) != 0) {
          id = by_ts_[q].second;
          break;
        }
      }
      if (id == kNone) id = make_candidate(w);  // inserted at or after p
    } else {
      id = find_candidate(w);
      if (id == kNone) {
        id = make_candidate(w);  // may land before p
        p = at_ts(it->first).first;
      }
    }
    auto& c = store_[id];
    if (c.read != reads_) {
      c.read = reads_;
      live_.push_back(id);
      ++diag_.candidates_added;
    }
  }
}

void RegularReader::sweep_removals() {
  // Figure 6 lines 26-27: invalid(c) iff >= t+b+1 replied objects deny it.
  const auto r = replied();
  const int deny_quorum = res_.t + res_.b + 1;
  std::erase_if(live_, [&](std::uint32_t id) {
    const auto& c = store_[id];
    if (std::popcount(r & ~(c.w_at & c.pw_at)) < deny_quorum) return false;
    ++diag_.candidates_removed;
    return true;
  });
}

bool RegularReader::holds_anywhere(std::size_t k, std::uint32_t id) const {
  // Whether object k's mirror has the candidate as the w of any slot. Only
  // the slot at its own timestamp can (w_at), unless k shipped misplaced
  // tuples.
  const auto& c = store_[id];
  if ((c.w_at & bit(k)) != 0) return true;
  if (misplaced_[k] == 0) return false;
  return std::any_of(mirror_[k].begin(), mirror_[k].end(), [&](const auto& e) {
    return e.second.w.has_value() && *e.second.w == c.tuple;
  });
}

bool RegularReader::round1_complete() const {
  const std::uint64_t responders = replied1_;
  if (std::popcount(responders) < res_.quorum()) return false;

  // No candidate carries an accusing tsr entry for this reader: no conflict
  // edge can exist, so any quorum of responders is independent.
  const bool any_accuser =
      std::any_of(live_.begin(), live_.end(), [&](std::uint32_t id) {
        return store_[id].accusation > tsr_first_round_;
      });
  if (!any_accuser) return true;

  // Figure 6 line 1: conflict(i, k) iff object k's round-1 history holds a
  // live candidate accusing object i of a reader timestamp above tsrFR.
  // accused[k] collects those i for every responder k.
  const auto j = static_cast<std::size_t>(reader_index_);
  const std::size_t n = mirror_.size();
  std::vector<std::uint64_t> accused(n, 0);
  for (const auto id : live_) {
    const WTuple& c = store_[id].tuple;
    if (store_[id].accusation <= tsr_first_round_) continue;
    std::uint64_t targets = 0;
    for (std::size_t i = 0; i < n && i < c.tsrarray.size(); ++i) {
      const auto& row = c.tsrarray[i];
      if (row.has_value() && j < row->size() &&
          (*row)[j] > tsr_first_round_) {
        targets |= bit(i);
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      if ((responders & bit(k)) != 0 && holds_anywhere(k, id)) {
        accused[k] |= targets;
      }
    }
  }

  std::vector<std::uint64_t> adj(n, 0);
  bool any_edge = false;
  for (std::size_t i = 0; i < n; ++i) {
    if ((responders & bit(i)) == 0) continue;
    for (std::size_t k = i + 1; k < n; ++k) {
      if ((responders & bit(k)) == 0) continue;
      if ((accused[k] & bit(i)) != 0 || (accused[i] & bit(k)) != 0) {
        adj[i] |= bit(k);
        adj[k] |= bit(i);
        any_edge = true;
      }
    }
  }
  if (!any_edge) return true;
  return has_independent_set(adj, responders, res_.quorum());
}

void RegularReader::start_round2(net::Context& ctx) {
  phase_ = Phase::Round2;
  ++tsr_;
  for (int i = 0; i < res_.num_objects; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    ctx.send(topo_.object(i),
             wire::HistReadMsg{2, tsr_, request_cache_ts_, have_[ui]});
  }
}

void RegularReader::try_finish(net::Context& ctx) {
  if (phase_ != Phase::Round2) return;
  // Figure 6 lines 14-16, plus the Section 5.1 cache fallback when C drains.
  // The fallback is sound for both variants: the cache is the last returned
  // value, and any write completed before this read either exceeds it (then
  // it is a candidate -- the mirrors cover everything above the cache -- and
  // with >= S-t-b correct holders it cannot be invalidated, so C does not
  // drain) or is covered by returning the cache itself.
  if (live_.empty()) {
    diag_.returned_from_cache = true;
    complete(ctx, cache_, /*from_cache=*/true);
    return;
  }
  // The first live candidate (line 20 order) among those with the highest
  // timestamp, if it is safe: >= b+1 replied objects vouch for it (line 3).
  const auto r = replied();
  Ts max_ts = 0;
  std::uint32_t pick = kNone;
  for (const auto id : live_) {
    const auto& c = store_[id];
    const Ts ts = c.tuple.tsval.ts;
    if (ts < max_ts || (ts == max_ts && pick != kNone)) continue;
    if (ts > max_ts) {
      max_ts = ts;
      pick = kNone;
    }
    if (std::popcount(r & (c.w_at | c.pw_at)) >= res_.b + 1) pick = id;
  }
  if (pick != kNone) {
    complete(ctx, store_[pick].tuple.tsval, /*from_cache=*/false);
  }
}

void RegularReader::complete(net::Context& ctx, TsVal v, bool from_cache) {
  phase_ = Phase::Idle;
  cache_ = v;  // Section 5.1: remember the last returned value
  // Reader-side GC mirroring the objects' watermark rule: slots below the
  // cache can only ever matter as denials against candidates older than a
  // value this reader already returned, and a missing slot denies too.
  for (std::size_t i = 0; i < mirror_.size(); ++i) {
    auto& mir = mirror_[i];
    const auto last = mir.lower_bound(cache_.ts);
    for (auto it = mir.begin(); it != last; ++it) {
      drop_slot(i, it->first);
      if (it->second.w.has_value() && it->second.w->tsval.ts != it->first) {
        --misplaced_[i];
      }
    }
    mir.erase(mir.begin(), last);
  }
  live_.clear();
  collect_garbage();
  ReadResult result;
  result.tsval = std::move(v);
  result.rounds = 2;
  result.invoked_at = invoked_at_;
  result.completed_at = ctx.now();
  result.returned_default = from_cache;
  auto cb = std::move(cb_);
  cb_ = nullptr;
  if (cb) cb(result);
}

}  // namespace rr::core
