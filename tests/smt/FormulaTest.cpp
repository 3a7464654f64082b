//===- tests/smt/FormulaTest.cpp ------------------------------------------===//

#include "smt/Formula.h"

#include <gtest/gtest.h>

using namespace regel::smt;

namespace {

TermPtr K0() { return Term::var(0); }
TermPtr C(int64_t V) { return Term::constant(V); }

} // namespace

TEST(Formula, TruthTables) {
  std::vector<Interval> Dom{{1, 10}};
  EXPECT_EQ(Formula::truth()->eval(Dom), Tri::True);
  EXPECT_EQ(Formula::falsity()->eval(Dom), Tri::False);
}

TEST(Formula, AtomThreeValued) {
  std::vector<Interval> Dom{{3, 7}};
  EXPECT_EQ(Formula::le(K0(), C(10))->eval(Dom), Tri::True);
  EXPECT_EQ(Formula::le(K0(), C(2))->eval(Dom), Tri::False);
  EXPECT_EQ(Formula::le(K0(), C(5))->eval(Dom), Tri::Unknown);
  EXPECT_EQ(Formula::ge(K0(), C(3))->eval(Dom), Tri::True);
  EXPECT_EQ(Formula::ge(K0(), C(8))->eval(Dom), Tri::False);
}

TEST(Formula, EqNeOnPoints) {
  std::vector<Interval> Point{{4, 4}};
  EXPECT_EQ(Formula::eq(K0(), C(4))->eval(Point), Tri::True);
  EXPECT_EQ(Formula::eq(K0(), C(5))->eval(Point), Tri::False);
  EXPECT_EQ(Formula::ne(K0(), C(5))->eval(Point), Tri::True);
  std::vector<Interval> Wide{{1, 9}};
  EXPECT_EQ(Formula::eq(K0(), C(4))->eval(Wide), Tri::Unknown);
  EXPECT_EQ(Formula::eq(K0(), C(50))->eval(Wide), Tri::False);
  EXPECT_EQ(Formula::ne(K0(), C(50))->eval(Wide), Tri::True);
}

TEST(Formula, ConjSimplification) {
  EXPECT_EQ(Formula::conj({})->getKind(), FormulaKind::True);
  EXPECT_EQ(Formula::conj({Formula::truth(), Formula::falsity()})->getKind(),
            FormulaKind::False);
  FormulaPtr A = Formula::le(K0(), C(5));
  EXPECT_EQ(Formula::conj({Formula::truth(), A}), A);
  // Nested conjunctions flatten, keeping their parts in order.
  FormulaPtr B = Formula::ge(K0(), C(1));
  FormulaPtr N = Formula::ne(K0(), C(2));
  FormulaPtr Nested = Formula::conj({A, Formula::conj({B, N})});
  EXPECT_EQ(Nested->getKind(), FormulaKind::And);
  ASSERT_EQ(Nested->getParts().size(), 3u);
  EXPECT_EQ(Nested->getParts()[0], A);
  EXPECT_EQ(Nested->getParts()[1], B);
  EXPECT_EQ(Nested->getParts()[2], N);
}

TEST(Formula, DisjSimplification) {
  EXPECT_EQ(Formula::disj({})->getKind(), FormulaKind::False);
  EXPECT_EQ(Formula::disj({Formula::falsity(), Formula::truth()})->getKind(),
            FormulaKind::True);
  FormulaPtr A = Formula::ge(K0(), C(2));
  EXPECT_EQ(Formula::disj({Formula::falsity(), A}), A);
}

TEST(Formula, AndOrThreeValued) {
  std::vector<Interval> Dom{{3, 7}};
  FormulaPtr T = Formula::le(K0(), C(10)); // true
  FormulaPtr F = Formula::le(K0(), C(1));  // false
  FormulaPtr U = Formula::le(K0(), C(5));  // unknown
  EXPECT_EQ(Formula::conj({T, U})->eval(Dom), Tri::Unknown);
  EXPECT_EQ(Formula::conj({F, U})->eval(Dom), Tri::False);
  EXPECT_EQ(Formula::disj({T, U})->eval(Dom), Tri::True);
  EXPECT_EQ(Formula::disj({F, U})->eval(Dom), Tri::Unknown);
  EXPECT_EQ(Formula::disj({F, F})->eval(Dom), Tri::False);
}

TEST(Formula, PointEval) {
  FormulaPtr F = Formula::conj(
      {Formula::ge(Term::add(K0(), Term::var(1)), C(5)),
       Formula::le(K0(), C(3))});
  EXPECT_TRUE(F->evalPoint({3, 2}));
  EXPECT_FALSE(F->evalPoint({4, 2}));
  EXPECT_FALSE(F->evalPoint({1, 1}));
}

TEST(Formula, VarsSortedUnique) {
  FormulaPtr F = Formula::conj({Formula::le(Term::var(3), Term::var(1)),
                                Formula::ge(Term::var(1), C(0))});
  auto Vars = F->vars();
  ASSERT_EQ(Vars.size(), 2u);
  EXPECT_EQ(Vars[0], 1u);
  EXPECT_EQ(Vars[1], 3u);
}

TEST(Formula, Printing) {
  FormulaPtr F = Formula::conj(
      {Formula::le(K0(), C(5)), Formula::ne(K0(), C(2))});
  EXPECT_EQ(F->str(), "(k0 <= 5 & k0 != 2)");
}
