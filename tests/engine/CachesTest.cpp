//===- tests/engine/CachesTest.cpp ----------------------------------------===//

#include "engine/Caches.h"

#include "regex/Parser.h"
#include "sketch/SketchParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

using namespace regel;
using namespace regel::engine;

TEST(ShardedDfaStore, LookupMissThenPublishThenHit) {
  ShardedDfaStore Store(4);
  RegexPtr R = parseRegex("Concat(<cap>,Repeat(<num>,2))");
  EXPECT_EQ(Store.lookup(R), nullptr);
  EXPECT_EQ(Store.misses(), 1u);

  Store.publish(R, std::make_shared<const Dfa>(compileRegex(R)));
  EXPECT_EQ(Store.size(), 1u);

  // A structurally equal (but distinct) regex object hits.
  RegexPtr R2 = parseRegex("Concat(<cap>,Repeat(<num>,2))");
  ASSERT_NE(R.get(), R2.get());
  std::shared_ptr<const Dfa> D = Store.lookup(R2);
  ASSERT_NE(D, nullptr);
  EXPECT_TRUE(D->matches("B42"));
  EXPECT_FALSE(D->matches("B4"));
  EXPECT_EQ(Store.hits(), 1u);
}

TEST(ShardedDfaStore, LocalCachesShareCompilations) {
  ShardedDfaStore Store(4);
  RegexPtr R = parseRegex("Or(RepeatAtLeast(<num>,1),<let>)");

  DfaCache A;
  A.setSharedStore(&Store);
  EXPECT_TRUE(A.matches(R, "123"));
  EXPECT_EQ(A.sharedHits(), 0u); // A compiled it and published

  DfaCache B;
  B.setSharedStore(&Store);
  EXPECT_TRUE(B.matches(R, "7"));
  EXPECT_EQ(B.sharedHits(), 1u); // B got A's compilation
  EXPECT_EQ(Store.size(), 1u);
}

TEST(ShardedApproxStore, RoundTripsByStructuralKey) {
  ShardedApproxStore Store(4);
  SketchPtr S = parseSketch("hole{Repeat(<num>,2)}");
  Approx Out;
  EXPECT_FALSE(Store.lookup(S, 1, false, Out));

  Approx A = approximateSketch(S, 1, false);
  Store.publish(S, 1, false, A);

  // Distinct sketch object, same structure: hit. Different depth or
  // widened flag: miss.
  SketchPtr S2 = parseSketch("hole{Repeat(<num>,2)}");
  EXPECT_TRUE(Store.lookup(S2, 1, false, Out));
  EXPECT_TRUE(regexEquals(Out.Over, A.Over));
  EXPECT_TRUE(regexEquals(Out.Under, A.Under));
  EXPECT_FALSE(Store.lookup(S2, 2, false, Out));
  EXPECT_FALSE(Store.lookup(S2, 1, true, Out));
}

TEST(ShardedApproxStore, MemoizedApproximationMatchesUncached) {
  ShardedApproxStore Store(4);
  std::vector<const char *> Sketches = {
      "hole{Repeat(<num>,2)}",
      "Concat(hole{<cap>},hole{RepeatAtLeast(<num>,1)})",
      "Not(hole{<num>})",
      "hole{Concat(<a>,<b>),Or(<num>,<let>)}",
  };
  for (const char *Text : Sketches) {
    SketchPtr S = parseSketch(Text);
    ASSERT_TRUE(S) << Text;
    for (unsigned Depth = 1; Depth <= 3; ++Depth) {
      Approx Plain = approximateSketch(S, Depth, false);
      Approx Memoed = approximateSketch(S, Depth, false, &Store);
      EXPECT_TRUE(regexEquals(Plain.Over, Memoed.Over)) << Text;
      EXPECT_TRUE(regexEquals(Plain.Under, Memoed.Under)) << Text;
      // Second call must be served from the store and agree.
      uint64_t HitsBefore = Store.hits();
      Approx Again = approximateSketch(S, Depth, false, &Store);
      EXPECT_GT(Store.hits(), HitsBefore);
      EXPECT_TRUE(regexEquals(Again.Over, Plain.Over)) << Text;
    }
  }
}

TEST(ShardedDfaStore, CostTriggerEvictsByAutomatonSize) {
  RegexPtr A = parseRegex("Repeat(<num>,4)");
  RegexPtr B = parseRegex("Repeat(<let>,3)");
  auto DfaA = std::make_shared<const Dfa>(compileRegex(A));
  auto DfaB = std::make_shared<const Dfa>(compileRegex(B));
  const uint64_t CostA = ShardedDfaStore::dfaCost(*DfaA);
  const uint64_t CostB = ShardedDfaStore::dfaCost(*DfaB);
  ASSERT_GT(CostA, 0u);

  // Entry count is unlimited; the cost cap fits either DFA alone but not
  // both, so the second publish must evict the first by size, which an
  // entry-count cap could never notice.
  ShardedDfaStore Store(1,
                        CacheLimits{/*MaxEntries=*/0,
                                    /*MaxCost=*/CostA + CostB - 1});
  Store.publish(A, DfaA);
  EXPECT_EQ(Store.size(), 1u);
  EXPECT_EQ(Store.costUnits(), CostA);
  Store.publish(B, DfaB);
  EXPECT_EQ(Store.size(), 1u);
  EXPECT_EQ(Store.costUnits(), CostB);
  EXPECT_EQ(Store.evictions(), 1u);
  EXPECT_EQ(Store.lookup(A), nullptr);
  EXPECT_NE(Store.lookup(B), nullptr);
}

TEST(ShardedDfaStore, EvictedEntryRecompilesIdentically) {
  ShardedDfaStore Store(1, CacheLimits{/*MaxEntries=*/1, /*MaxCost=*/0});
  RegexPtr R = parseRegex("Concat(<cap>,Repeat(<num>,2))");
  Dfa Reference = compileRegex(R);

  DfaCache FirstRun;
  FirstRun.setSharedStore(&Store);
  EXPECT_TRUE(FirstRun.matches(R, "B42"));

  // Evict R by publishing something else into the 1-entry store.
  RegexPtr Other = parseRegex("KleeneStar(<let>)");
  Store.publish(Other, std::make_shared<const Dfa>(compileRegex(Other)));
  EXPECT_EQ(Store.lookup(R), nullptr);
  EXPECT_GE(Store.evictions(), 1u);

  // A later run recompiles on the miss and the result is the same
  // automaton: eviction costs time, never answers.
  DfaCache SecondRun;
  SecondRun.setSharedStore(&Store);
  EXPECT_TRUE(SecondRun.matches(R, "B42"));
  EXPECT_EQ(SecondRun.sharedHits(), 0u); // re-lookup was a shared miss
  std::shared_ptr<const Dfa> Recompiled = Store.lookup(R);
  ASSERT_NE(Recompiled, nullptr);
  EXPECT_TRUE(Dfa::equivalent(Reference, *Recompiled));
}

TEST(ShardedApproxStore, MaxCostCountsEntries) {
  // Approximations weigh 1 each, so the cost cap caps the entry count.
  ShardedApproxStore Store(1, CacheLimits{/*MaxEntries=*/0, /*MaxCost=*/2});
  SketchPtr S = parseSketch("hole{Repeat(<num>,2)}");
  for (unsigned Depth = 1; Depth <= 5; ++Depth)
    Store.publish(S, Depth, false, approximateSketch(S, Depth, false));
  EXPECT_EQ(Store.size(), 2u);
  EXPECT_EQ(Store.evictions(), 3u);
  Approx Out;
  EXPECT_FALSE(Store.lookup(S, 1, false, Out)); // evicted
  EXPECT_TRUE(Store.lookup(S, 4, false, Out));  // still resident
  EXPECT_TRUE(Store.lookup(S, 5, false, Out));
}

TEST(ShardedApproxStore, KeyHashSpreadsConsecutiveDepthsAcrossShards) {
  // The old hash XORed (Depth << 1) straight into the sketch hash, so the
  // 16-way shard pick (low 4 bits) saw at most 8 distinct values over any
  // run of consecutive depths — half the shards could never be used by a
  // depth sweep of one sketch. The mixed hash must not have that ceiling.
  const size_t NumShards = 16;
  SketchPtr S = parseSketch("hole{Repeat(<num>,2)}");
  std::vector<unsigned> Load(NumShards, 0);
  unsigned Distinct = 0;
  for (unsigned Depth = 0; Depth < 16; ++Depth)
    for (bool WithClasses : {false, true}) {
      size_t Shard =
          ShardedApproxStore::hashKey(S, Depth, WithClasses) % NumShards;
      if (Load[Shard]++ == 0)
        ++Distinct;
    }
  EXPECT_GT(Distinct, 8u) << "depth sweep stuck on a subset of shards";
  for (size_t I = 0; I < NumShards; ++I)
    EXPECT_LE(Load[I], 8u) << "shard " << I << " absorbed most keys";

  // And across several sketches the spread must cover nearly everything.
  std::vector<const char *> Sketches = {
      "hole{Repeat(<num>,2)}",
      "Concat(hole{<cap>},hole{RepeatAtLeast(<num>,1)})",
      "Not(hole{<num>})",
      "hole{Concat(<a>,<b>),Or(<num>,<let>)}",
  };
  std::fill(Load.begin(), Load.end(), 0u);
  Distinct = 0;
  for (const char *Text : Sketches) {
    SketchPtr Sk = parseSketch(Text);
    ASSERT_TRUE(Sk) << Text;
    for (unsigned Depth = 0; Depth < 8; ++Depth)
      for (bool WithClasses : {false, true}) {
        size_t Shard =
            ShardedApproxStore::hashKey(Sk, Depth, WithClasses) % NumShards;
        if (Load[Shard]++ == 0)
          ++Distinct;
      }
  }
  EXPECT_GE(Distinct, 12u);
}

TEST(ShardedDfaStore, ConcurrentPublishersConverge) {
  ShardedDfaStore Store(8);
  std::vector<const char *> Patterns = {
      "<num>", "Repeat(<num>,2)", "Concat(<cap>,<num>)", "KleeneStar(<let>)",
      "Or(<a>,<b>)", "RepeatAtLeast(<num>,1)",
  };
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&Store, &Patterns] {
      for (int Round = 0; Round < 20; ++Round)
        for (const char *P : Patterns) {
          RegexPtr R = parseRegex(P);
          if (std::shared_ptr<const Dfa> D = Store.lookup(R))
            continue;
          Store.publish(R, std::make_shared<const Dfa>(compileRegex(R)));
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Store.size(), Patterns.size());
}
