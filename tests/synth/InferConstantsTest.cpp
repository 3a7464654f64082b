//===- tests/synth/InferConstantsTest.cpp ---------------------------------===//
//
// Tests of SMT-guided constant inference (Fig. 14 / Sec. 4.2), including
// the Theorem 4.7 completeness property on small instances.
//
//===----------------------------------------------------------------------===//

#include "synth/InferConstants.h"

#include "regex/Matcher.h"
#include "regex/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace regel;

namespace {

std::vector<RegexPtr> infer(const PartialRegex &P, Examples E,
                            SynthConfig Cfg = SynthConfig()) {
  FeasibilityChecker Checker(E);
  InferStats Stats;
  return inferConstants(P, E, Cfg, Checker, Stats);
}

bool containsRegex(const std::vector<RegexPtr> &Set, const char *Text) {
  RegexPtr R = parseRegex(Text);
  for (const RegexPtr &C : Set)
    if (regexEquals(C, R))
      return true;
  return false;
}

} // namespace

TEST(InferConstants, SingleVarExact) {
  // Repeat(<num>, k): positives of lengths 3 force k == 3.
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"123", "456"};
  auto Out = infer(PartialRegex(Root, 1), E);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(containsRegex(Out, "Repeat(<num>,3)"));
}

TEST(InferConstants, AscendingOrder) {
  // RepeatAtLeast(<num>, k) with shortest positive of length 2: candidates
  // come out k = 1, 2 in ascending order.
  PNodePtr Root = PNode::opNode(
      RegexKind::RepeatAtLeast,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"12", "123456"};
  auto Out = infer(PartialRegex(Root, 1), E);
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0]->getK1(), 1);
  EXPECT_EQ(Out[1]->getK1(), 2);
}

TEST(InferConstants, RangeOrderEnforced) {
  // RepeatRange(<num>, k1, k2) never yields k1 > k2.
  PNodePtr Root = PNode::opNode(
      RegexKind::RepeatRange,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0),
       PNode::symIntNode(1)});
  Examples E;
  E.Pos = {"12", "1234"};
  SynthConfig Cfg;
  Cfg.MaxInt = 6;
  auto Out = infer(PartialRegex(Root, 2), E, Cfg);
  ASSERT_FALSE(Out.empty());
  for (const RegexPtr &R : Out) {
    EXPECT_LE(R->getK1(), R->getK2());
    EXPECT_LE(R->getK1(), 2);
    EXPECT_GE(R->getK2(), 4);
  }
}

TEST(InferConstants, Section2Decimal) {
  // The motivating example: the intended constants (1, 15) must be among
  // the candidates.
  PNodePtr Left = PNode::opNode(
      RegexKind::RepeatRange,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0),
       PNode::symIntNode(1)});
  PNodePtr Tail = PNode::leafNode(
      parseRegex("Optional(Concat(<.>,RepeatRange(<num>,1,3)))"));
  PNodePtr Root = PNode::opNode(RegexKind::Concat, {Left, Tail});
  Examples E;
  E.Pos = {"123456789.123", "123456789123456.12", "12345.1",
           "123456789123456"};
  E.Neg = {"1234567891234567", "123.1234", "1.12345", ".1234"};
  auto Out = infer(PartialRegex(Root, 2), E);
  EXPECT_TRUE(containsRegex(
      Out, "Concat(RepeatRange(<num>,1,15),Optional(Concat(<.>,RepeatRange(<"
           "num>,1,3))))"));
}

TEST(InferConstants, UnsatisfiableLengthsYieldNothing) {
  // Repeat(Repeat(<num>,2), k): even lengths only; positive of length 3.
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("Repeat(<num>,2)")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"123"};
  auto Out = infer(PartialRegex(Root, 1), E);
  EXPECT_TRUE(Out.empty());
}

TEST(InferConstants, ResultCapRespected) {
  PNodePtr Root = PNode::opNode(
      RegexKind::RepeatAtLeast,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"12345678901234567890"};
  SynthConfig Cfg;
  Cfg.MaxInferResults = 3;
  auto Out = infer(PartialRegex(Root, 1), E, Cfg);
  EXPECT_EQ(Out.size(), 3u);
}

// Theorem 4.7 analogue (completeness): every consistent instantiation is
// in the returned set.
TEST(InferConstants, CompletenessBruteForce) {
  PNodePtr Root = PNode::opNode(
      RegexKind::Concat,
      {PNode::opNode(RegexKind::Repeat, {PNode::leafNode(parseRegex("<a>")),
                                         PNode::symIntNode(0)}),
       PNode::opNode(RegexKind::Repeat, {PNode::leafNode(parseRegex("<b>")),
                                         PNode::symIntNode(1)})});
  Examples E;
  E.Pos = {"aabbb", "aabbb"};
  E.Neg = {"ab"};
  SynthConfig Cfg;
  Cfg.MaxInt = 8;
  auto Out = infer(PartialRegex(Root, 2), E, Cfg);
  // Brute force: which (k0,k1) are consistent?
  unsigned ConsistentCount = 0;
  for (int K0 = 1; K0 <= 8; ++K0)
    for (int K1 = 1; K1 <= 8; ++K1) {
      PartialRegex P(Root, 2);
      RegexPtr R = P.assignSymInt(0, K0).assignSymInt(1, K1).toRegex();
      bool Ok = matchesDirect(R, "aabbb") && !matchesDirect(R, "ab");
      if (!Ok)
        continue;
      ++ConsistentCount;
      EXPECT_TRUE(std::any_of(Out.begin(), Out.end(), [&](const RegexPtr &C) {
        return regexEquals(C, R);
      })) << "missing k0=" << K0 << " k1=" << K1;
    }
  EXPECT_EQ(ConsistentCount, 1u); // only (2,3)
}

TEST(InferConstants, StatsPopulated) {
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"1234"};
  FeasibilityChecker Checker(E);
  InferStats Stats;
  SynthConfig Cfg;
  auto Out = inferConstants(PartialRegex(Root, 1), E, Cfg, Checker, Stats);
  EXPECT_EQ(Out.size(), 1u);
  // The split counters: interval sweeps drive the enumeration, the
  // length pre-check runs at least one real solve.
  EXPECT_GT(Stats.IntervalEvals, 0u);
  EXPECT_GT(Stats.SmtSolves, 0u);
  EXPECT_GT(Stats.Iterations, 0u);
  EXPECT_FALSE(Stats.HitIterationCap);
}

TEST(InferConstants, IterationCapMidEnumerationIsCleanPrefix) {
  // Two variables, so the iteration cap fires mid-loop at depth 1 with
  // the depth-0 domain still restricted. Regression for the stale-domain
  // bug: an early unwind must restore every Domains entry (DomainScope)
  // and stop the whole walk promptly (Stop flag) — the capped run's
  // results must be exactly a prefix of the uncapped run's, and the
  // iteration counter must not keep charging siblings on the way out.
  PNodePtr Root = PNode::opNode(
      RegexKind::Concat,
      {PNode::opNode(RegexKind::RepeatAtLeast,
                     {PNode::leafNode(parseRegex("<a>")),
                      PNode::symIntNode(0)}),
       PNode::opNode(RegexKind::RepeatAtLeast,
                     {PNode::leafNode(parseRegex("<b>")),
                      PNode::symIntNode(1)})});
  Examples E;
  E.Pos = {"aaaabbbb"};
  SynthConfig Cfg;
  Cfg.MaxInt = 4;
  FeasibilityChecker Checker(E);
  InferStats Full;
  auto All = inferConstants(PartialRegex(Root, 2), E, Cfg, Checker, Full);
  ASSERT_GT(All.size(), 2u);
  EXPECT_FALSE(Full.HitIterationCap);

  Cfg.MaxInferIters = Full.Iterations / 2;
  InferStats Capped;
  auto Some = inferConstants(PartialRegex(Root, 2), E, Cfg, Checker, Capped);
  EXPECT_TRUE(Capped.HitIterationCap);
  // Prompt stop: the cap charges exactly one extra iteration (the one
  // that trips it), not one per remaining sibling frame.
  EXPECT_EQ(Capped.Iterations, Cfg.MaxInferIters + 1);
  ASSERT_LE(Some.size(), All.size());
  for (size_t I = 0; I < Some.size(); ++I)
    EXPECT_TRUE(regexEquals(Some[I], All[I]))
        << "capped run diverged at result " << I;
}

TEST(InferConstants, RerunIsIdentical) {
  // Inference keeps no state across runs: rerunning the same inference
  // gives identical results and runs exactly as many solves again.
  auto RunTwice = [](const PNodePtr &Root, const Examples &E,
                     InferStats &Second) {
    SynthConfig Cfg;
    FeasibilityChecker Checker(E);
    InferStats First;
    auto A = inferConstants(PartialRegex(Root, 1), E, Cfg, Checker, First);
    auto B = inferConstants(PartialRegex(Root, 1), E, Cfg, Checker, Second);
    EXPECT_GT(First.SmtSolves, 0u);
    EXPECT_EQ(First.SmtSolves, Second.SmtSolves);
    EXPECT_EQ(First.UnsatShortCircuits, Second.UnsatShortCircuits);
    EXPECT_EQ(First.Iterations, Second.Iterations);
    EXPECT_EQ(A.size(), B.size());
    for (size_t I = 0; I < std::min(A.size(), B.size()); ++I)
      EXPECT_TRUE(regexEquals(A[I], B[I]));
    return B;
  };

  Examples E;
  E.Pos = {"1234", "12345"};
  InferStats Sat;
  EXPECT_FALSE(RunTwice(PNode::opNode(RegexKind::RepeatAtLeast,
                                      {PNode::leafNode(parseRegex("<num>")),
                                       PNode::symIntNode(0)}),
                        E, Sat)
                   .empty());

  // Unsatisfiable lengths: both runs short-circuit before enumerating.
  E.Pos = {"123"};
  InferStats Unsat;
  EXPECT_TRUE(
      RunTwice(PNode::opNode(RegexKind::Repeat,
                             {PNode::leafNode(parseRegex("Repeat(<num>,2)")),
                              PNode::symIntNode(0)}),
               E, Unsat)
          .empty());
  EXPECT_EQ(Unsat.UnsatShortCircuits, 1u);
  EXPECT_EQ(Unsat.Iterations, 0u);
}

TEST(InferConstants, DuplicateLengthsSolvedOnce) {
  // A repeated positive length adds no constraint and no solve: the
  // session checks each distinct length once, in first-occurrence order.
  PNodePtr Root = PNode::opNode(
      RegexKind::RepeatAtLeast,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  auto Run = [&Root](std::vector<std::string> Pos, InferStats &Stats) {
    Examples E;
    E.Pos = std::move(Pos);
    SynthConfig Cfg;
    FeasibilityChecker Checker(E);
    return inferConstants(PartialRegex(Root, 1), E, Cfg, Checker, Stats);
  };
  InferStats Dup, Distinct;
  auto A = Run({"1234", "12345", "1234"}, Dup);
  auto B = Run({"1234", "12345"}, Distinct);
  // Two per-length checks plus the joint check.
  EXPECT_EQ(Distinct.SmtSolves, 3u);
  EXPECT_EQ(Dup.SmtSolves, Distinct.SmtSolves);
  EXPECT_EQ(Dup.Iterations, Distinct.Iterations);
  ASSERT_FALSE(B.empty());
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_TRUE(regexEquals(A[I], B[I]));
}
