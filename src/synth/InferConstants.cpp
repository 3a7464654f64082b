//===- synth/InferConstants.cpp -------------------------------------------===//

#include "synth/InferConstants.h"

#include "smt/Solver.h"
#include "synth/Approximate.h"
#include "synth/Encode.h"

#include <algorithm>

using namespace regel;

namespace {

/// Depth-first enumeration of the feasible assignments, in ascending value
/// order per variable (so the smallest constants — which Regel prefers —
/// come out first). Equivalent to Fig. 14's model-enumeration-with-blocking
/// loop, but incremental: instead of re-solving psi_0 with an ever-growing
/// set of blocking clauses, we walk the assignment tree directly and use
/// three-valued interval evaluation of psi_0 to skip definitely-infeasible
/// subtrees. The partial-assignment feasibility check (footnote 4) prunes
/// whole families of constants exactly as in the paper.
///
/// Before enumerating at all, one batched solver session checks the
/// length constraints for satisfiability: variables are declared once,
/// the example-independent prefix (range-order constraints) is asserted
/// once, and each distinct example length is checked under push/pop
/// against that shared prefix, followed by a joint check of the full
/// conjunction. Any Unsat refutes every concretization at once — the
/// enumeration would have rejected each of its up-to-MaxInt^n leaves one
/// interval sweep at a time.
class InferSession {
public:
  InferSession(const PartialRegex &P0, const Examples &E,
               const SynthConfig &Cfg, FeasibilityChecker &Checker,
               InferStats &Stats, const Deadline *Budget)
      : Cfg(Cfg), Checker(Checker), Stats(Stats), Budget(Budget) {
    NumVars = P0.numSymInts();
    Domains.assign(NumVars, {1, Cfg.MaxInt});
    // Well-formedness: RepeatRange(r, k1, k2) requires k1 <= k2. This is
    // the example-independent prefix shared by every check below.
    addRangeOrderConstraints(P0.root());
    const size_t PrefixEnd = Constraints.size();

    // One length constraint per distinct positive-example length, in
    // first-occurrence order (the per-example checks stop at the first
    // Unsat, so the order decides how many solves run).
    SymIntervalSet Lengths = encodeLengths(P0.root());
    std::vector<int64_t> SeenLengths;
    std::vector<smt::FormulaPtr> LengthConstraints;
    for (const std::string &S : E.Pos) {
      const int64_t Len = static_cast<int64_t>(S.size());
      if (std::find(SeenLengths.begin(), SeenLengths.end(), Len) !=
          SeenLengths.end())
        continue;
      SeenLengths.push_back(Len);
      LengthConstraints.push_back(lengthMembership(Lengths, Len));
    }
    Constraints.insert(Constraints.end(), LengthConstraints.begin(),
                       LengthConstraints.end());

    if (Budget && Budget->expired())
      return;
    if (!checkLengthsSatisfiable(PrefixEnd, LengthConstraints)) {
      ++Stats.UnsatShortCircuits;
      return;
    }
    enumerate(P0, 0, 0);
  }

  std::vector<RegexPtr> take() { return std::move(Results); }

private:
  void addRangeOrderConstraints(const PNodePtr &N) {
    if (N->getKind() == PLabelKind::OpLabel &&
        N->op() == RegexKind::RepeatRange) {
      const PNodePtr &K1 = N->children()[1];
      const PNodePtr &K2 = N->children()[2];
      auto toTerm = [](const PNodePtr &C) {
        return C->getKind() == PLabelKind::IntLabel
                   ? smt::Term::constant(C->intValue())
                   : smt::Term::var(C->symInt());
      };
      Constraints.push_back(smt::Formula::le(toTerm(K1), toTerm(K2)));
    }
    for (const PNodePtr &C : N->children())
      addRangeOrderConstraints(C);
  }

  /// One batched solver session over the shared prefix: a per-example
  /// push/pop check for each distinct length, then (when there is more
  /// than one) a joint check of the full conjunction. Returns false when
  /// any check is Unsat — no concretization can satisfy the examples.
  /// ResourceOut is "unknown": the enumeration proceeds, its exactness
  /// does not depend on any solve finishing.
  bool checkLengthsSatisfiable(
      size_t PrefixEnd, const std::vector<smt::FormulaPtr> &LengthConstraints) {
    smt::Solver S;
    for (uint32_t I = 0; I < NumVars; ++I)
      S.declareVar(1, Cfg.MaxInt);
    for (size_t I = 0; I < PrefixEnd; ++I)
      S.addConstraint(Constraints[I]);
    bool AnyUnsat = false;
    for (const smt::FormulaPtr &LenC : LengthConstraints) {
      if (AnyUnsat)
        break;
      S.push();
      S.addConstraint(LenC);
      if (S.solve(Cfg.SmtNodeBudget).Status == smt::SolveStatus::Unsat)
        AnyUnsat = true;
      S.pop();
    }
    if (!AnyUnsat && LengthConstraints.size() > 1) {
      // No length was refuted on its own, but the examples can still
      // disagree on the constants (e.g. one needs k <= 2, another k >= 3).
      for (const smt::FormulaPtr &LenC : LengthConstraints)
        S.addConstraint(LenC);
      if (S.solve(Cfg.SmtNodeBudget).Status == smt::SolveStatus::Unsat)
        AnyUnsat = true;
    }
    Stats.SmtSolves += S.solves();
    return !AnyUnsat;
  }

  /// True when some constraint is already definitely violated under the
  /// current variable domains. Constraints whose \p TrueMask bit is set
  /// were proven definitely-true at an ancestor node and are skipped:
  /// three-valued evaluation is monotone under domain restriction, so
  /// True can never degrade. Newly proven constraints are recorded into
  /// \p ChildMask (first 64 constraints; the tail is simply re-checked).
  bool definitelyInfeasible(uint64_t TrueMask, uint64_t *ChildMask) {
    ++Stats.IntervalEvals;
    for (size_t I = 0; I < Constraints.size(); ++I) {
      if (I < 64 && (TrueMask >> I) & 1)
        continue;
      smt::Tri T = Constraints[I]->eval(Domains);
      if (T == smt::Tri::False)
        return true;
      if (T == smt::Tri::True && ChildMask && I < 64)
        *ChildMask |= uint64_t(1) << I;
    }
    return false;
  }

  /// Restores one variable's domain to its full range on scope exit, so
  /// EVERY exit path of an enumeration frame — result cap, deadline,
  /// iteration cap — leaves Domains clean. (The cap used to be able to
  /// fire mid-loop and leave a stale singleton behind, corrupting the
  /// sibling subtrees the caller visits next.)
  class DomainScope {
  public:
    DomainScope(std::vector<smt::Interval> &D, uint32_t I)
        : D(D), I(I), Saved(D[I]) {}
    ~DomainScope() { D[I] = Saved; }
    DomainScope(const DomainScope &) = delete;
    DomainScope &operator=(const DomainScope &) = delete;

  private:
    std::vector<smt::Interval> &D;
    uint32_t I;
    smt::Interval Saved;
  };

  /// True when the enumeration should unwind completely: result cap,
  /// deadline, or the iteration cap (which, once hit, must stop the
  /// whole walk rather than charge one wasted iteration per remaining
  /// sibling on the way out).
  bool stopped() const {
    return Stop || Results.size() >= Cfg.MaxInferResults ||
           (Budget && Budget->expired());
  }

  void enumerate(const PartialRegex &P, uint32_t VarIdx, uint64_t TrueMask) {
    if (stopped())
      return;
    if (++Stats.Iterations > Cfg.MaxInferIters) {
      Stats.HitIterationCap = true;
      Stop = true;
      return;
    }
    if (VarIdx == NumVars) {
      if (!definitelyInfeasible(TrueMask, nullptr))
        Results.push_back(P.toRegex());
      return;
    }
    DomainScope Scope(Domains, VarIdx);
    for (int V = 1; V <= Cfg.MaxInt && !stopped(); ++V) {
      Domains[VarIdx] = {V, V};
      // Cheap length-based check before touching automata; constraints
      // proven at this node stay proven for the whole subtree.
      uint64_t ChildMask = TrueMask;
      if (definitelyInfeasible(TrueMask, &ChildMask))
        continue;
      PartialRegex PPrime = P.assignSymInt(VarIdx, V);
      // Partial-assignment feasibility (footnote 4): one infeasible value
      // of kappa_i prunes every extension at once.
      if (VarIdx + 1 < NumVars && Cfg.UseApprox &&
          Checker.infeasible(PPrime)) {
        ++Stats.PrunedPartialAssignments;
        continue;
      }
      enumerate(PPrime, VarIdx + 1, ChildMask);
    }
  }

  const SynthConfig &Cfg;
  FeasibilityChecker &Checker;
  InferStats &Stats;
  const Deadline *Budget;

  uint32_t NumVars = 0;
  bool Stop = false;
  std::vector<smt::Interval> Domains;
  std::vector<smt::FormulaPtr> Constraints;
  std::vector<RegexPtr> Results;
};

} // namespace

std::vector<RegexPtr> regel::inferConstants(const PartialRegex &P0,
                                            const Examples &E,
                                            const SynthConfig &Cfg,
                                            FeasibilityChecker &Checker,
                                            InferStats &Stats,
                                            const Deadline *Budget) {
  assert(P0.isSymbolic() && "inferConstants expects a symbolic regex");
  InferSession Session(P0, E, Cfg, Checker, Stats, Budget);
  return Session.take();
}
