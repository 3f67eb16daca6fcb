// FlatMap / FlatSet (core/pending_tables.h) against the seed's std::map /
// std::set: identical operation streams, identical observable state after
// every step.  The streams are shaped to hit each flat-table path -- the
// append fast path, out-of-order inserts, extract/erase of non-head keys,
// the dead-prefix compaction (head_ >= 64), clear-on-drain and reuse --
// and for_each must visit the live entries in ascending key order.
#include "core/pending_tables.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace linbound {
namespace {

using Ref = std::map<std::int64_t, std::int64_t>;

std::vector<std::pair<std::int64_t, std::int64_t>> entries(
    const FlatMap<std::int64_t, std::int64_t>& flat) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  flat.for_each([&](std::int64_t k, std::int64_t v) { out.emplace_back(k, v); });
  return out;
}

void expect_same(const FlatMap<std::int64_t, std::int64_t>& flat,
                 const Ref& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  ASSERT_EQ(flat.empty(), ref.empty());
  const std::vector<std::pair<std::int64_t, std::int64_t>> want(ref.begin(),
                                                                ref.end());
  ASSERT_EQ(entries(flat), want);
}

/// One random stream through both maps.  Keys mostly increase (`next`
/// advances by 1..3); `ooo_p` of inserts land below the newest key, and
/// removals pick the smallest key with probability `head_p`, a random live
/// key otherwise.
void fuzz_map(std::uint64_t seed, int steps, double insert_p, double ooo_p,
              double head_p) {
  FlatMap<std::int64_t, std::int64_t> flat;
  Ref ref;
  Rng rng(seed);
  std::int64_t next = 0;
  for (int i = 0; i < steps; ++i) {
    const std::int64_t value = static_cast<std::int64_t>(rng.next_u64() >> 1);
    if (ref.empty() || rng.chance(insert_p)) {
      std::int64_t key;
      if (!ref.empty() && rng.chance(ooo_p)) {
        key = rng.uniform(ref.begin()->first - 5, next);  // may overwrite
      } else {
        next += rng.uniform(1, 3);
        key = next;
      }
      flat.insert_or_assign(key, value);
      ref.insert_or_assign(key, value);
    } else {
      auto it = ref.begin();
      if (!rng.chance(head_p)) {
        std::advance(it, rng.uniform(0, static_cast<std::int64_t>(ref.size()) - 1));
      }
      const std::int64_t key = it->first;
      if (rng.chance(0.5)) {
        const std::optional<std::int64_t> got = flat.extract(key);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, it->second);
      } else {
        EXPECT_TRUE(flat.erase(key));
      }
      ref.erase(it);
    }
    // Lookups of present and absent keys, including below the dead prefix.
    const std::int64_t probe = rng.uniform(-5, next + 5);
    const auto it = ref.find(probe);
    const std::int64_t* got = flat.find(probe);
    ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << probe;
    if (got) {
      EXPECT_EQ(*got, it->second);
    }
    if (ref.find(probe) == ref.end()) {
      EXPECT_FALSE(flat.extract(probe).has_value());
      EXPECT_FALSE(flat.erase(probe));
    }
    expect_same(flat, ref);
  }
}

TEST(FlatMapDifferential, AppendAndHeadPops) {
  // In-order traffic: appends plus min-key pops, the replica steady state.
  for (std::uint64_t seed : {1ull, 2ull}) fuzz_map(seed, 4000, 0.55, 0.0, 1.0);
}

TEST(FlatMapDifferential, OutOfOrderInsertsAndInteriorRemovals) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    fuzz_map(seed, 4000, 0.55, 0.3, 0.4);
  }
}

TEST(FlatMapDifferential, DeadPrefixCompaction) {
  // Grow to a few hundred entries, then pop heads while appending: the dead
  // prefix passes 64 entries and half the vector over and over, so the
  // compaction path runs while the table never drains.
  FlatMap<std::int64_t, std::int64_t> flat;
  Ref ref;
  std::int64_t next = 0;
  for (int i = 0; i < 300; ++i, ++next) {
    flat.insert_or_assign(next, -next);
    ref.insert_or_assign(next, -next);
  }
  for (int round = 0; round < 2000; ++round) {
    ASSERT_TRUE(flat.erase(ref.begin()->first));
    ref.erase(ref.begin());
    if (round % 3 != 0) {
      flat.insert_or_assign(next, -next);
      ref.insert_or_assign(next, -next);
      ++next;
    }
    if (round % 97 == 0) {
      // Interior removal and an out-of-order re-insert mid-compaction.
      auto it = std::next(ref.begin(), static_cast<std::ptrdiff_t>(ref.size() / 2));
      const std::int64_t key = it->first;
      ASSERT_EQ(flat.extract(key), std::optional<std::int64_t>(it->second));
      ref.erase(it);
      flat.insert_or_assign(key, 7);
      ref.insert_or_assign(key, 7);
    }
    expect_same(flat, ref);
    if (ref.empty()) break;
  }
}

TEST(FlatMapDifferential, ClearOnDrainAndReuse) {
  // Drain to empty repeatedly (the dead prefix is reclaimed wholesale), then
  // reuse with keys below and above the previous rounds'.
  FlatMap<std::int64_t, std::int64_t> flat;
  Ref ref;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t base = round % 2 == 0 ? 1000 * round : -1000 * round;
    for (std::int64_t k = 0; k < 100; ++k) {
      flat.insert_or_assign(base + k, k);
      ref.insert_or_assign(base + k, k);
    }
    flat.insert_or_assign(base + 50, -1);  // overwrite in place
    ref.insert_or_assign(base + 50, -1);
    expect_same(flat, ref);
    while (!ref.empty()) {
      ASSERT_EQ(flat.extract(ref.begin()->first),
                std::optional<std::int64_t>(ref.begin()->second));
      ref.erase(ref.begin());
      expect_same(flat, ref);
    }
    EXPECT_TRUE(flat.empty());
    EXPECT_EQ(flat.find(base), nullptr);
  }
  flat.insert_or_assign(3, 3);
  ref.insert_or_assign(3, 3);
  flat.clear();
  ref.clear();
  expect_same(flat, ref);
}

TEST(FlatMapDifferential, TimestampKeysIterateInOrder) {
  // The replica tables are keyed by Timestamp (clock_time, then pid).
  FlatMap<Timestamp, int> flat;
  std::map<Timestamp, int> ref;
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const Timestamp ts{rng.uniform(0, 60), static_cast<ProcessId>(rng.uniform(0, 3))};
    flat.insert_or_assign(ts, i);
    ref.insert_or_assign(ts, i);
    if (rng.chance(0.3)) {
      const Timestamp gone{rng.uniform(0, 60), static_cast<ProcessId>(rng.uniform(0, 3))};
      EXPECT_EQ(flat.erase(gone), ref.erase(gone) > 0);
    }
  }
  std::vector<std::pair<Timestamp, int>> got;
  flat.for_each([&](const Timestamp& k, int v) { got.emplace_back(k, v); });
  EXPECT_EQ(got, (std::vector<std::pair<Timestamp, int>>(ref.begin(), ref.end())));
}

TEST(FlatSetDifferential, InsertMatchesStdSet) {
  // Mostly-increasing keys with duplicates and out-of-order arrivals.
  FlatSet<std::int64_t> flat;
  std::set<std::int64_t> ref;
  Rng rng(5);
  std::int64_t next = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3000; ++i) {
      std::int64_t key;
      const double r = rng.uniform01();
      if (r < 0.6) {
        next += rng.uniform(0, 2);  // 0: a duplicate of the newest key
        key = next;
      } else {
        key = rng.uniform(next - 200, next);
      }
      ASSERT_EQ(flat.insert(key), ref.insert(key).second) << "key " << key;
      ASSERT_EQ(flat.size(), ref.size());
      ASSERT_EQ(flat.empty(), ref.empty());
    }
    flat.clear();
    ref.clear();
    EXPECT_TRUE(flat.empty());
    next = -next;  // the next round starts below everything seen so far
  }
}

}  // namespace
}  // namespace linbound
