//===- tests/engine/CachesTest.cpp ----------------------------------------===//

#include "engine/Caches.h"

#include "regex/Parser.h"

#include <gtest/gtest.h>

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
