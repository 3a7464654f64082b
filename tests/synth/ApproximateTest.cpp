//===- tests/synth/ApproximateTest.cpp ------------------------------------===//
//
// Tests of the over/under-approximation rules (Figs. 11/12), including the
// paper's Example 4.3 and the soundness properties of Theorem 4.4.
//
//===----------------------------------------------------------------------===//

#include "synth/Approximate.h"

#include "regex/Matcher.h"
#include "regex/Parser.h"
#include "regex/Printer.h"
#include "sketch/SketchParser.h"

#include <gtest/gtest.h>

using namespace regel;

namespace {

Approx approxOfSketch(const char *Text, unsigned Depth,
                      bool WithClasses = false) {
  SketchPtr S = parseSketch(Text);
  EXPECT_TRUE(S) << Text;
  return approximateSketch(S, Depth, WithClasses);
}

} // namespace

TEST(Approximate, TopBottomBasics) {
  EXPECT_EQ(printRegex(topRegex()), "KleeneStar(<any>)");
  EXPECT_EQ(printRegex(botRegex()), "empty");
}

TEST(Approximate, ConcreteIsExact) {
  Approx A = approxOfSketch("Repeat(<num>,3)", 1);
  EXPECT_TRUE(regexEquals(A.Over, A.Under));
  EXPECT_TRUE(regexEquals(A.Over, parseRegex("Repeat(<num>,3)")));
}

TEST(Approximate, DeepHoleIsTopBottom) {
  Approx A = approxOfSketch("hole{<num>}", 2);
  EXPECT_TRUE(regexEquals(A.Over, topRegex()));
  EXPECT_TRUE(regexEquals(A.Under, botRegex()));
}

TEST(Approximate, DepthOneHoleUnionIntersection) {
  // Rule 2: over = union of component overs, under = intersection.
  Approx A = approxOfSketch("hole{<num>,<,>}", 1);
  EXPECT_EQ(printRegex(A.Over), "Or(<num>,<,>)");
  EXPECT_EQ(printRegex(A.Under), "And(<num>,<,>)");
}

TEST(Approximate, SingletonHoleIsComponent) {
  // Rule 1: a depth-1 hole with one component approximates as it.
  Approx A = approxOfSketch("hole{RepeatRange(<num>,1,3)}", 1);
  EXPECT_TRUE(regexEquals(A.Over, parseRegex("RepeatRange(<num>,1,3)")));
  EXPECT_TRUE(regexEquals(A.Under, parseRegex("RepeatRange(<num>,1,3)")));
}

TEST(Approximate, NotSwapsApproximations) {
  // Rule 5: Not(S) ~ (Not(u), Not(o)).
  Approx A = approxOfSketch("Not(hole{<num>,<,>})", 1);
  EXPECT_EQ(printRegex(A.Over), "Not(And(<num>,<,>))");
  EXPECT_EQ(printRegex(A.Under), "Not(Or(<num>,<,>))");
}

TEST(Approximate, SymbolicRepeatIsAtLeastOne) {
  // Rule 6: g with symbolic integers over-approximates as
  // RepeatAtLeast(o, 1) and under-approximates as bottom.
  Approx A = approxOfSketch("Repeat(hole{<num>,<,>},?)", 1);
  EXPECT_EQ(printRegex(A.Over), "RepeatAtLeast(Or(<num>,<,>),1)");
  EXPECT_TRUE(regexEquals(A.Under, botRegex()));
}

TEST(Approximate, PaperExample43) {
  // Figure 3's partial regex: Concat(<num>, Not(S')) where S' is the hole
  // with components {<,>, RepeatRange(<num>,1,3)} at depth 1.
  PNodePtr NotNode = PNode::opNode(
      RegexKind::Not,
      {PNode::sketchNode(parseSketch("hole{<,>,RepeatRange(<num>,1,3)}"), 1,
                         false)});
  PNodePtr Root = PNode::opNode(
      RegexKind::Concat, {PNode::leafNode(parseRegex("<num>")), NotNode});
  Approx A = approximatePartial(Root);
  // Under-approximation per Eq. 2.
  EXPECT_EQ(printRegex(A.Under),
            "Concat(<num>,Not(Or(<,>,RepeatRange(<num>,1,3))))");
  // Eq. 2's under-approximation accepts the negative example from Sec. 2,
  // which is what justified pruning this partial regex.
  EXPECT_TRUE(matchesDirect(A.Under, "1234567891234567"));
}

TEST(Approximate, SimplificationKeepsRegexesSmall) {
  // Or with bottom folds away; And with top folds away.
  PNodePtr Root = PNode::opNode(
      RegexKind::Or,
      {PNode::sketchNode(Sketch::unconstrained(), 3, true), // top/bottom
       PNode::leafNode(parseRegex("<a>"))});
  Approx A = approximatePartial(Root);
  EXPECT_TRUE(regexEquals(A.Over, topRegex()));
  EXPECT_EQ(printRegex(A.Under), "<a>");
}

TEST(Approximate, OptionalOfBottomIsEpsilon) {
  PNodePtr Root = PNode::opNode(
      RegexKind::Optional,
      {PNode::sketchNode(Sketch::unconstrained(), 3, true)});
  Approx A = approximatePartial(Root);
  EXPECT_EQ(A.Under->getKind(), RegexKind::Epsilon);
  EXPECT_TRUE(regexEquals(A.Over, topRegex()));
}

// Soundness sweep (Theorem 4.4 property): for sketches whose completion set
// we can enumerate by hand, the over-approximation accepts every string a
// completion accepts, and the under-approximation only accepts strings all
// completions accept.
TEST(Approximate, SoundnessOnDepthOneHole) {
  SketchPtr S = parseSketch("hole{Repeat(<num>,2),RepeatRange(<num>,2,3)}");
  Approx A = approximateSketch(S, 1, false);
  // Completions: exactly the two components.
  std::vector<RegexPtr> Completions = {
      parseRegex("Repeat(<num>,2)"), parseRegex("RepeatRange(<num>,2,3)")};
  for (const char *Probe : {"", "1", "12", "123", "1234", "ab"}) {
    bool Any = false, All = true;
    for (const RegexPtr &C : Completions) {
      bool M = matchesDirect(C, Probe);
      Any |= M;
      All &= M;
    }
    if (Any)
      EXPECT_TRUE(matchesDirect(A.Over, Probe)) << Probe;
    if (matchesDirect(A.Under, Probe))
      EXPECT_TRUE(All) << Probe;
  }
}

// Approximations depend only on a sketch's structure: two separately
// parsed but structurally equal sketches approximate identically at every
// depth.
TEST(Approximate, StructurallyEqualSketchesApproximateEqually) {
  for (const char *Text : {"hole{Repeat(<num>,2)}",
                           "Concat(hole{<cap>},hole{RepeatAtLeast(<num>,1)})",
                           "Not(hole{<num>})",
                           "hole{Concat(<a>,<b>),Or(<num>,<let>)}"}) {
    SketchPtr S1 = parseSketch(Text);
    SketchPtr S2 = parseSketch(Text);
    ASSERT_TRUE(S1 && S2) << Text;
    ASSERT_NE(S1.get(), S2.get());
    for (unsigned Depth = 1; Depth <= 3; ++Depth) {
      Approx A1 = approximateSketch(S1, Depth, false);
      Approx A2 = approximateSketch(S2, Depth, false);
      EXPECT_TRUE(regexEquals(A1.Over, A2.Over)) << Text << " d=" << Depth;
      EXPECT_TRUE(regexEquals(A1.Under, A2.Under)) << Text << " d=" << Depth;
    }
  }
}

TEST(FeasibilityChecker, PrunesOverViolation) {
  // Partial regex Repeat(<let>, k) cannot match positive "123".
  Examples E;
  E.Pos = {"123"};
  E.Neg = {"x"};
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<let>")), PNode::symIntNode(0)});
  FeasibilityChecker Checker(E);
  EXPECT_TRUE(Checker.infeasible(PartialRegex(Root, 1)));
}

TEST(FeasibilityChecker, PrunesUnderViolation) {
  // Fully concrete partial that accepts a negative example.
  Examples E;
  E.Pos = {};
  E.Neg = {"ab"};
  PNodePtr Root = PNode::leafNode(parseRegex("Concat(<a>,<b>)"));
  FeasibilityChecker Checker(E);
  EXPECT_TRUE(Checker.infeasible(PartialRegex(Root, 0)));
}

TEST(FeasibilityChecker, KeepsFeasiblePartial) {
  Examples E;
  E.Pos = {"123", "45"};
  E.Neg = {"abc"};
  PNodePtr Root = PNode::opNode(
      RegexKind::RepeatAtLeast,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  FeasibilityChecker Checker(E);
  EXPECT_FALSE(Checker.infeasible(PartialRegex(Root, 1)));
}

TEST(FeasibilityChecker, CachesVerdicts) {
  Examples E;
  E.Pos = {"123"};
  E.Neg = {};
  FeasibilityChecker Checker(E);
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<let>")), PNode::symIntNode(0)});
  PartialRegex P(Root, 1);
  EXPECT_TRUE(Checker.infeasible(P));
  EXPECT_TRUE(Checker.infeasible(P));
  EXPECT_EQ(Checker.checksRun(), 2u);
}
