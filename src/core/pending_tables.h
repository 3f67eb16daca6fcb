// Flat replacements for the node-based pending tables on the replica hot
// path (DESIGN.md section 15).
//
// Every pending table in the op pipeline is keyed by a value that arrives
// in (almost) increasing order: per-process operation timestamps are
// strictly monotonic (ReplicaProcess::next_stamp_clock), the reliable
// link's sequence numbers count up, and the TOB sequencer assigns
// consecutive numbers.  Inserts are therefore appends, lookups binary
// searches over a contiguous sorted range, and removals overwhelmingly
// pop the smallest key -- which a head cursor turns into an increment.
// A warmed table reaches a steady state where no operation allocates:
// the backing vector's capacity is the high-water mark of concurrently
// pending entries, and clear-on-empty recycles it forever.
//
// Free-list/cursor invariants (checked implicitly by the layout):
//   * entries in [head_, items_.size()) are alive and sorted by key;
//   * entries in [0, head_) are dead (popped) but not yet reclaimed;
//   * the dead prefix is reclaimed wholesale when the table drains
//     (cheap, frequent in steady state) or compacted when it outgrows the
//     live region (amortized O(1) per pop, bounds memory under sustained
//     non-empty operation).
//
// The seed's std::map/std::set tables survive only as the reference model
// of tests/test_pending_tables.cpp, which drives both through identical
// operation streams.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/timestamp.h"

namespace linbound {

/// Sorted-vector map with a dead-prefix head cursor.  Keys must be totally
/// ordered; insertion of a key larger than every live key (the common case
/// on the replica hot path) is an append.
template <typename K, typename V>
class FlatMap {
 public:
  std::size_t size() const { return items_.size() - head_; }
  bool empty() const { return size() == 0; }

  void reserve(std::size_t n) { items_.reserve(n); }

  V* find(const K& key) {
    auto it = live_lower_bound(key);
    return (it != items_.end() && it->key == key) ? &it->val : nullptr;
  }
  const V* find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// map[key] = value.
  void insert_or_assign(const K& key, V value) {
    if (items_.size() == head_ || items_.back().key < key) {
      items_.push_back(Entry{key, std::move(value)});
      return;
    }
    auto it = live_lower_bound(key);
    if (it != items_.end() && it->key == key) {
      it->val = std::move(value);
    } else {
      items_.insert(it, Entry{key, std::move(value)});
    }
  }

  /// Remove `key` and hand back its value; nullopt when absent.
  std::optional<V> extract(const K& key) {
    auto it = live_lower_bound(key);
    if (it == items_.end() || !(it->key == key)) return std::nullopt;
    std::optional<V> out(std::move(it->val));
    remove_at(it);
    return out;
  }

  bool erase(const K& key) {
    auto it = live_lower_bound(key);
    if (it == items_.end() || !(it->key == key)) return false;
    remove_at(it);
    return true;
  }

  void clear() {
    items_.clear();  // capacity kept: the steady-state pool
    head_ = 0;
  }

  /// Visit every live entry in ascending key order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = head_; i < items_.size(); ++i) {
      fn(items_[i].key, items_[i].val);
    }
  }

 private:
  struct Entry {
    K key;
    V val;
  };

  typename std::vector<Entry>::iterator live_lower_bound(const K& key) {
    return std::lower_bound(
        items_.begin() + static_cast<std::ptrdiff_t>(head_), items_.end(), key,
        [](const Entry& e, const K& k) { return e.key < k; });
  }

  void remove_at(typename std::vector<Entry>::iterator it) {
    if (it == items_.begin() + static_cast<std::ptrdiff_t>(head_)) {
      ++head_;  // min-key pop: the overwhelmingly common removal
      if (head_ == items_.size()) {
        items_.clear();
        head_ = 0;
      } else if (head_ >= 64 && head_ * 2 >= items_.size()) {
        // Dead prefix outgrew the live region: reclaim it (move-compaction,
        // no allocation) so sustained non-empty operation stays bounded.
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    } else {
      items_.erase(it);
    }
  }

  std::vector<Entry> items_;  ///< sorted by key in [head_, size)
  std::size_t head_ = 0;      ///< dead-prefix cursor
};

/// Sorted-vector set; append fast path for mostly-increasing keys.
template <typename K>
class FlatSet {
 public:
  /// True when `key` was not yet a member.
  bool insert(const K& key) {
    if (items_.empty() || items_.back() < key) {
      items_.push_back(key);
      return true;
    }
    auto it = std::lower_bound(items_.begin(), items_.end(), key);
    if (it != items_.end() && *it == key) return false;
    items_.insert(it, key);
    return true;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  void clear() { items_.clear(); }  // capacity kept

 private:
  std::vector<K> items_;
};

/// Membership set over sequence numbers delivered mostly in order: a dense
/// frontier (every seq below it is a member) plus a small sorted overflow
/// for out-of-order arrivals.  In-order traffic -- the steady state of a
/// clean run -- only increments the frontier and never allocates.
class SeqSet {
 public:
  /// True when `seq` was not yet a member.
  bool insert(std::int64_t seq) {
    if (seq < frontier_) return false;
    if (seq == frontier_) {
      ++frontier_;
      while (head_ < sparse_.size() && sparse_[head_] == frontier_) {
        ++frontier_;
        ++head_;
      }
      if (head_ == sparse_.size()) {
        sparse_.clear();
        head_ = 0;
      }
      return true;
    }
    auto it = std::lower_bound(
        sparse_.begin() + static_cast<std::ptrdiff_t>(head_), sparse_.end(),
        seq);
    if (it != sparse_.end() && *it == seq) return false;
    sparse_.insert(it, seq);
    return true;
  }

  void clear() {
    frontier_ = 0;
    sparse_.clear();
    head_ = 0;
  }

 private:
  std::int64_t frontier_ = 0;          ///< all seqs < frontier_ are members
  std::vector<std::int64_t> sparse_;   ///< sorted members >= frontier_
  std::size_t head_ = 0;               ///< consumed prefix of sparse_
};

/// The reliable link's receive-side dedup history: per sender and per
/// sender incarnation, the sequence numbers already delivered up the stack.
/// Replaces the seed's map<pid, map<incarnation, set<seq>>> nesting with a
/// pid-indexed vector of (incarnation, SeqSet) pairs; all incarnations are
/// retained because a frame from a sender's previous life can still arrive
/// (and must still deduplicate within that life's sequence space).
class LinkDedup {
 public:
  /// True when (from, incarnation, seq) had not been delivered before.
  bool insert(ProcessId from, Tick incarnation, std::int64_t seq) {
    const auto idx = static_cast<std::size_t>(from);
    if (idx >= senders_.size()) senders_.resize(idx + 1);
    auto& lives = senders_[idx];
    for (auto& life : lives) {
      if (life.incarnation == incarnation) return life.seqs.insert(seq);
    }
    lives.push_back(Life{incarnation, {}});
    return lives.back().seqs.insert(seq);
  }

  void clear() { senders_.clear(); }

 private:
  struct Life {
    Tick incarnation = 0;
    SeqSet seqs;
  };
  std::vector<std::vector<Life>> senders_;  ///< indexed by sender pid
};

}  // namespace linbound
