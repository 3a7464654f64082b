//===- tests/engine/ShardedLruTest.cpp ------------------------------------===//
//
// The ShardedLru primitive behind every cross-run store, run over two
// key/cost instantiations: integer keys whose value is its own cost, and
// string keys weighed by value length. Both hash so that key I lands in
// shard I % shards, which makes per-shard behaviour observable.
//
//===----------------------------------------------------------------------===//

#include "engine/ShardedLru.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace regel::engine;

namespace {

struct IdentityHash {
  size_t operator()(uint64_t K) const { return static_cast<size_t>(K); }
};

/// uint64 -> uint64, the value being the entry's cost.
struct IntKeys {
  struct Cost {
    uint64_t operator()(uint64_t V) const { return V; }
  };
  using Lru = ShardedLru<uint64_t, uint64_t, IdentityHash,
                         std::equal_to<uint64_t>, Cost>;
  static uint64_t key(uint64_t I) { return I; }
  static uint64_t value(uint64_t Cost) { return Cost; }
};

/// "k<I>" -> a string of Cost bytes, weighed by its length.
struct StringKeys {
  struct Hash {
    size_t operator()(const std::string &K) const {
      return static_cast<size_t>(std::stoull(K.substr(1)));
    }
  };
  struct Cost {
    uint64_t operator()(const std::string &V) const { return V.size(); }
  };
  using Lru = ShardedLru<std::string, std::string, Hash,
                         std::equal_to<std::string>, Cost>;
  static std::string key(uint64_t I) { return "k" + std::to_string(I); }
  static std::string value(uint64_t Cost) {
    return std::string(static_cast<size_t>(Cost), 'v');
  }
};

template <typename T> class ShardedLruTest : public ::testing::Test {
protected:
  using Lru = typename T::Lru;
  static auto key(uint64_t I) { return T::key(I); }
  static auto value(uint64_t Cost) { return T::value(Cost); }

  static bool has(Lru &L, uint64_t I) {
    decltype(value(0)) Out;
    return L.lookup(key(I), Out);
  }
};

using Instantiations = ::testing::Types<IntKeys, StringKeys>;
TYPED_TEST_SUITE(ShardedLruTest, Instantiations);

} // namespace

TYPED_TEST(ShardedLruTest, LookupCopiesValueAndCounts) {
  typename TestFixture::Lru L(4);
  auto Out = this->value(0);
  EXPECT_FALSE(L.lookup(this->key(1), Out));
  L.publish(this->key(1), this->value(3));
  ASSERT_TRUE(L.lookup(this->key(1), Out));
  EXPECT_EQ(Out, this->value(3));
  EXPECT_EQ(L.hits(), 1u);
  EXPECT_EQ(L.misses(), 1u);
  EXPECT_EQ(L.size(), 1u);
  EXPECT_EQ(L.costUnits(), 3u);
  L.clear();
  EXPECT_EQ(L.size(), 0u);
  EXPECT_EQ(L.costUnits(), 0u);
}

TYPED_TEST(ShardedLruTest, EntryCapIsPerShard) {
  // 8 entries over 4 shards = 2 per shard: three keys in one shard
  // overflow it although the store holds far fewer than 8.
  typename TestFixture::Lru L(4, CacheLimits{/*MaxEntries=*/8, 0});
  for (uint64_t I : {0, 4, 8})
    L.publish(this->key(I), this->value(1));
  EXPECT_EQ(L.size(), 2u);
  EXPECT_EQ(L.evictions(), 1u);
  EXPECT_FALSE(this->has(L, 0)); // the oldest in shard 0

  // Filling every shard reaches the global figure and stops there, each
  // shard keeping its two newest keys.
  for (uint64_t I = 16; I < 32; ++I)
    L.publish(this->key(I), this->value(1));
  EXPECT_EQ(L.size(), 8u);
  for (uint64_t I = 24; I < 32; ++I)
    EXPECT_TRUE(this->has(L, I)) << I;
}

TYPED_TEST(ShardedLruTest, CapBelowShardCountKeepsOnePerShard) {
  typename TestFixture::Lru L(4, CacheLimits{/*MaxEntries=*/2, 0});
  for (uint64_t I = 0; I < 8; ++I)
    L.publish(this->key(I), this->value(1));
  EXPECT_EQ(L.size(), 4u);
}

TYPED_TEST(ShardedLruTest, LookupMovesEntryAwayFromColdEnd) {
  typename TestFixture::Lru L(1, CacheLimits{/*MaxEntries=*/2, 0});
  L.publish(this->key(1), this->value(1));
  L.publish(this->key(2), this->value(1));
  EXPECT_TRUE(this->has(L, 1)); // 2 is now the least recently used
  L.publish(this->key(3), this->value(1));
  EXPECT_EQ(L.evictions(), 1u);
  EXPECT_FALSE(this->has(L, 2));
  EXPECT_TRUE(this->has(L, 1));
  EXPECT_TRUE(this->has(L, 3));
}

TYPED_TEST(ShardedLruTest, CostCapEvictsColdestUntilUnderCap) {
  // Entry count unlimited: only the summed cost decides.
  typename TestFixture::Lru L(1, CacheLimits{0, /*MaxCost=*/10});
  L.publish(this->key(1), this->value(4));
  L.publish(this->key(2), this->value(4));
  EXPECT_EQ(L.costUnits(), 8u);
  L.publish(this->key(3), this->value(4));
  EXPECT_EQ(L.evictions(), 1u);
  EXPECT_EQ(L.costUnits(), 8u);
  EXPECT_FALSE(this->has(L, 1));
  EXPECT_TRUE(this->has(L, 2));
  EXPECT_TRUE(this->has(L, 3));
}

TYPED_TEST(ShardedLruTest, EntryCostingMoreThanTheCapIsEvicted) {
  typename TestFixture::Lru L(1, CacheLimits{0, /*MaxCost=*/10});
  L.publish(this->key(1), this->value(3));
  // Over the cap on its own: the sweep empties the shard, the newcomer
  // included, rather than pin it over budget.
  L.publish(this->key(2), this->value(11));
  EXPECT_EQ(L.size(), 0u);
  EXPECT_EQ(L.costUnits(), 0u);
  EXPECT_EQ(L.evictions(), 2u);
  // The shard works normally afterwards.
  L.publish(this->key(3), this->value(10));
  EXPECT_TRUE(this->has(L, 3));
}

TYPED_TEST(ShardedLruTest, ReferencedEntrySurvivesExactlyOneSweep) {
  typename TestFixture::Lru L(1, CacheLimits{/*MaxEntries=*/2, 0});
  L.publish(this->key(1), this->value(1));
  EXPECT_TRUE(this->has(L, 1)); // referenced
  L.publish(this->key(2), this->value(1));
  // Entry 1 is at the cold end but referenced: it is cycled back with its
  // bit cleared, and the unreferenced, newer entry 2 goes instead.
  L.publish(this->key(3), this->value(1));
  EXPECT_EQ(L.evictions(), 1u);
  EXPECT_FALSE(this->has(L, 2)); // a miss touches nothing
  EXPECT_EQ(L.size(), 2u);       // so 1 and 3 are resident
  // Entry 3 now sits at the cold end, unreferenced.
  L.publish(this->key(4), this->value(1));
  EXPECT_FALSE(this->has(L, 3));
  // Entry 1 reaches the cold end again, unreferenced since: evicted.
  L.publish(this->key(5), this->value(1));
  EXPECT_EQ(L.evictions(), 3u);
  EXPECT_FALSE(this->has(L, 1));
  EXPECT_TRUE(this->has(L, 4));
  EXPECT_TRUE(this->has(L, 5));
}

TYPED_TEST(ShardedLruTest, DuplicatePublishCountsAsReference) {
  typename TestFixture::Lru L(1, CacheLimits{/*MaxEntries=*/2, 0});
  L.publish(this->key(1), this->value(1));
  // The first publisher wins: the duplicate changes neither the value
  // nor the cost, but references the entry like a hit would.
  L.publish(this->key(1), this->value(2));
  EXPECT_EQ(L.size(), 1u);
  EXPECT_EQ(L.costUnits(), 1u);
  L.publish(this->key(2), this->value(1));
  L.publish(this->key(3), this->value(1));
  EXPECT_FALSE(this->has(L, 2)); // entry 1 got its second chance
  auto Out = this->value(0);
  ASSERT_TRUE(L.lookup(this->key(1), Out));
  EXPECT_EQ(Out, this->value(1));
}

TYPED_TEST(ShardedLruTest, ConcurrentPublishersHoldTheCaps) {
  const size_t MaxEntries = 16;
  const uint64_t MaxCost = 48;
  typename TestFixture::Lru L(4, CacheLimits{MaxEntries, MaxCost});
  const uint64_t Keys = 200;
  std::vector<std::thread> Threads;
  for (uint64_t T = 0; T < 4; ++T)
    Threads.emplace_back([&L, T, Keys, MaxEntries, MaxCost] {
      for (uint64_t I = 0; I < Keys; ++I) {
        const uint64_t K = (I * 7 + T * 31) % Keys;
        auto Out = TypeParam::value(0);
        if (L.lookup(TypeParam::key(K), Out)) {
          EXPECT_EQ(Out, TypeParam::value(1 + K % 5));
          continue;
        }
        L.publish(TypeParam::key(K), TypeParam::value(1 + K % 5));
        EXPECT_LE(L.size(), MaxEntries);
        EXPECT_LE(L.costUnits(), MaxCost);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_LE(L.size(), MaxEntries);
  EXPECT_LE(L.costUnits(), MaxCost);
  EXPECT_GT(L.evictions(), 0u);
  EXPECT_EQ(L.hits() + L.misses(), 4 * Keys);
}
