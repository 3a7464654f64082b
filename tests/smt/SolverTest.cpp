//===- tests/smt/SolverTest.cpp -------------------------------------------===//

#include "smt/Solver.h"

#include <gtest/gtest.h>

using namespace regel::smt;

namespace {

TermPtr V(VarId Id) { return Term::var(Id); }
TermPtr C(int64_t Val) { return Term::constant(Val); }

} // namespace

TEST(Solver, TrivialSat) {
  Solver S;
  S.declareVar(1, 10);
  SolveResult R = S.solve();
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.Assignment[0], 1); // smallest value first
}

TEST(Solver, SimpleConstraint) {
  Solver S;
  VarId K = S.declareVar(1, 10);
  S.addConstraint(Formula::ge(V(K), C(7)));
  SolveResult R = S.solve();
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.Assignment[K], 7);
}

TEST(Solver, Unsat) {
  Solver S;
  VarId K = S.declareVar(1, 5);
  S.addConstraint(Formula::ge(V(K), C(6)));
  EXPECT_EQ(S.solve().Status, SolveStatus::Unsat);
}

TEST(Solver, Example46FromPaper) {
  // psi_0 = (k1 + k2 <= 7) with k1, k2 in [1, MAX]: the paper's
  // simplified decimal-benchmark constraint (Eq. 5).
  Solver S;
  VarId K1 = S.declareVar(1, 20), K2 = S.declareVar(1, 20);
  S.addConstraint(Formula::le(Term::add(V(K1), V(K2)), C(7)));
  SolveResult R = S.solve();
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.Assignment[K1], 1);
  EXPECT_EQ(R.Assignment[K2], 1);
}

TEST(Solver, BlockingEnumeratesAllModels) {
  Solver S;
  VarId K = S.declareVar(1, 4);
  S.addConstraint(Formula::ne(V(K), C(2)));
  int Models = 0;
  while (true) {
    SolveResult R = S.solve();
    if (!R.isSat())
      break;
    ++Models;
    ASSERT_LE(Models, 10) << "runaway enumeration";
    S.blockValue(K, R.Assignment[K]);
  }
  EXPECT_EQ(Models, 3); // 1, 3, 4
}

TEST(Solver, NonLinearProduct) {
  // k0 * k1 == 12, ascending: first model is (1,12)... but 12 > 10 domain,
  // so (2,6).
  Solver S;
  VarId K0 = S.declareVar(1, 10), K1 = S.declareVar(1, 10);
  S.addConstraint(Formula::eq(Term::mul(V(K0), V(K1)), C(12)));
  SolveResult R = S.solve();
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.Assignment[K0] * R.Assignment[K1], 12);
  EXPECT_EQ(R.Assignment[K0], 2);
  EXPECT_EQ(R.Assignment[K1], 6);
}

TEST(Solver, DisjunctiveConstraint) {
  Solver S;
  VarId K = S.declareVar(1, 10);
  S.addConstraint(Formula::disj(
      {Formula::eq(V(K), C(9)), Formula::eq(V(K), C(4))}));
  SolveResult R = S.solve();
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.Assignment[K], 4);
}

TEST(Solver, MultiVarPropagationPrunes) {
  // k0 + k1 + k2 <= 3 forces all-ones.
  Solver S;
  for (int I = 0; I < 3; ++I)
    S.declareVar(1, 20);
  S.addConstraint(Formula::le(
      Term::add(V(0), Term::add(V(1), V(2))), C(3)));
  SolveResult R = S.solve();
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.Assignment, (Model{1, 1, 1}));
  // Interval pruning should keep the search tiny.
  EXPECT_LT(S.lastSearchNodes(), 20u);
}

TEST(Solver, NodeBudgetYieldsResourceOut) {
  Solver S;
  for (int I = 0; I < 4; ++I)
    S.declareVar(1, 30);
  // Interval reasoning alone cannot decide this: the search must branch,
  // and a budget of 2 nodes is exhausted before the first model.
  S.addConstraint(Formula::eq(
      Term::mul(V(0), V(1)), Term::add(Term::mul(V(2), V(3)), C(1))));
  SolveResult R = S.solve(/*NodeBudget=*/2);
  EXPECT_EQ(R.Status, SolveStatus::ResourceOut);
}

TEST(Solver, SmallestModelOrderingDeterministic) {
  // Ascending enumeration is a spec, not an accident: two fresh solvers
  // over the same constraints emit the same model sequence, and each
  // model is lexicographically larger than the one before.
  auto Enumerate = [] {
    Solver S;
    VarId K0 = S.declareVar(1, 4), K1 = S.declareVar(1, 4);
    S.addConstraint(Formula::le(Term::add(V(K0), V(K1)), C(5)));
    std::vector<Model> Out;
    while (true) {
      SolveResult R = S.solve();
      if (!R.isSat())
        break;
      Out.push_back(R.Assignment);
      S.blockValue(K0, R.Assignment[K0]);
    }
    return Out;
  };
  std::vector<Model> A = Enumerate(), B = Enumerate();
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.front(), (Model{1, 1})); // smallest model first
  for (size_t I = 1; I < A.size(); ++I)
    EXPECT_LT(A[I - 1], A[I]);
}

TEST(Solver, PushPopRestoresConstraints) {
  Solver S;
  VarId K = S.declareVar(1, 5);
  S.addConstraint(Formula::ge(V(K), C(2)));
  S.push();
  S.addConstraint(Formula::ge(V(K), C(6))); // contradicts the domain
  EXPECT_EQ(S.solve().Status, SolveStatus::Unsat);
  S.pop();
  SolveResult R = S.solve();
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.Assignment[K], 2);

  // Nested frames unwind independently.
  S.push();
  S.addConstraint(Formula::le(V(K), C(3)));
  S.push();
  S.addConstraint(Formula::ge(V(K), C(3)));
  ASSERT_TRUE(S.solve().isSat());
  EXPECT_EQ(S.solve().Assignment[K], 3);
  S.pop();
  EXPECT_EQ(S.solve().Assignment[K], 2);
  S.pop();
}

TEST(Solver, ModelSatisfiesAllConstraints) {
  Solver S;
  VarId K0 = S.declareVar(1, 15), K1 = S.declareVar(1, 15);
  std::vector<FormulaPtr> Fs = {
      Formula::ge(Term::add(V(K0), V(K1)), C(10)),
      Formula::le(V(K0), C(4)),
      Formula::ne(V(K1), C(7)),
  };
  for (const FormulaPtr &F : Fs)
    S.addConstraint(F);
  SolveResult R = S.solve();
  ASSERT_TRUE(R.isSat());
  for (const FormulaPtr &F : Fs)
    EXPECT_TRUE(F->evalPoint(R.Assignment)) << F->str();
}
