//===- smt/Solver.cpp -----------------------------------------------------===//

#include "smt/Solver.h"

#include <cassert>

using namespace regel::smt;

VarId Solver::declareVar(int64_t Lo, int64_t Hi) {
  assert(Lo >= 0 && Lo <= Hi && Hi < Infinity && "finite domain required");
  Domains.push_back({Lo, Hi});
  return static_cast<VarId>(Domains.size() - 1);
}

void Solver::addConstraint(FormulaPtr F) {
  assert(F && "null constraint");
  Constraints.push_back(std::move(F));
}

void Solver::blockValue(VarId Var, int64_t V) {
  addConstraint(Formula::ne(Term::var(Var), Term::constant(V)));
}

void Solver::push() { Frames.push_back(Constraints.size()); }

void Solver::pop() {
  assert(!Frames.empty() && "pop without matching push");
  Constraints.resize(Frames.back());
  Frames.pop_back();
}

SolveResult Solver::solve(uint64_t NodeBudget) {
  SearchNodes = 0;
  ++Solves;
  std::vector<Interval> Work = Domains;
  Model Out(Domains.size(), 0);
  bool OutOfBudget = false;
  if (dfs(Work, 0, Out, NodeBudget, OutOfBudget))
    return {SolveStatus::Sat, std::move(Out)};
  return {OutOfBudget ? SolveStatus::ResourceOut : SolveStatus::Unsat, {}};
}

bool Solver::dfs(std::vector<Interval> &Work, unsigned Depth, Model &Out,
                 uint64_t NodeBudget, bool &OutOfBudget) {
  ++SearchNodes;
  if (NodeBudget && SearchNodes > NodeBudget) {
    OutOfBudget = true;
    return false;
  }

  // Three-valued pruning: if any constraint is definitely violated, stop;
  // if every constraint is definitely satisfied, any completion works.
  bool AllTrue = true;
  for (const FormulaPtr &C : Constraints) {
    Tri T = C->eval(Work);
    if (T == Tri::False)
      return false;
    if (T == Tri::Unknown)
      AllTrue = false;
  }
  if (AllTrue) {
    for (size_t I = 0; I < Work.size(); ++I)
      Out[I] = Work[I].Lo;
    return true;
  }

  // Branch on the first unassigned variable (declaration order keeps the
  // symbolic integers of the regex in left-to-right order; ascending values
  // find the smallest constants first).
  unsigned BranchVar = UINT32_MAX;
  for (size_t I = 0; I < Work.size(); ++I) {
    if (!Work[I].isPoint()) {
      BranchVar = static_cast<unsigned>(I);
      break;
    }
  }
  if (BranchVar == UINT32_MAX) {
    // Fully assigned but some constraint still Unknown — cannot happen with
    // exact point intervals, but guard against it.
    for (size_t I = 0; I < Work.size(); ++I)
      Out[I] = Work[I].Lo;
    for (const FormulaPtr &C : Constraints)
      if (!C->evalPoint(Out))
        return false;
    return true;
  }

  Interval Saved = Work[BranchVar];
  for (int64_t V = Saved.Lo; V <= Saved.Hi; ++V) {
    Work[BranchVar] = {V, V};
    if (dfs(Work, Depth + 1, Out, NodeBudget, OutOfBudget))
      return true;
    if (OutOfBudget)
      break;
  }
  Work[BranchVar] = Saved;
  return false;
}
