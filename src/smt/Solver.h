//===- smt/Solver.h - Bounded-domain constraint solver ----------*- C++ -*-===//
//
// Part of the Regel reproduction; this is the Z3 substitute used by
// InferConstants (Sec. 4.2). Variables have finite non-negative domains
// (symbolic integers live in [1, MAX]); solving is depth-first search with
// interval-based three-valued pruning at every node, ascending value order
// (so the first model uses the smallest constants — matching Regel's
// preference for small regexes), and blocking clauses for model
// enumeration. push()/pop() frames let one session check many examples
// against a shared constraint prefix. Every solve() runs a fresh search:
// nothing is cached across calls or across solvers.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SMT_SOLVER_H
#define REGEL_SMT_SOLVER_H

#include "smt/Formula.h"

#include <optional>
#include <vector>

namespace regel::smt {

/// A full assignment of the declared variables.
using Model = std::vector<int64_t>;

enum class SolveStatus : uint8_t { Sat, Unsat, ResourceOut };

/// Result of a solve call; Model is populated iff Status == Sat.
struct SolveResult {
  SolveStatus Status;
  Model Assignment;

  bool isSat() const { return Status == SolveStatus::Sat; }
};

/// Bounded-domain solver with DFS + interval pruning.
class Solver {
public:
  /// Declares a variable with inclusive domain [Lo, Hi]; returns its id.
  VarId declareVar(int64_t Lo, int64_t Hi);

  /// Conjoins \p F onto the constraint store.
  void addConstraint(FormulaPtr F);

  /// Adds a blocking clause excluding value \p V for variable \p Var
  /// (the paper's "kappa != sigma[kappa]" strengthening, Fig. 14 line 8).
  void blockValue(VarId Var, int64_t V);

  /// Opens a backtracking frame: constraints added after push() are
  /// retracted by the matching pop(). Variables are session-scoped, not
  /// frame-scoped — declare them before the first push. This is what
  /// lets one session check many examples against a shared constraint
  /// prefix (declare once, push/pop per example).
  void push();
  void pop();

  /// Searches for a model. \p NodeBudget bounds the number of DFS nodes
  /// (0 = unlimited); exceeding it yields ResourceOut.
  SolveResult solve(uint64_t NodeBudget = 0);

  /// Number of DFS nodes visited by the last solve call.
  uint64_t lastSearchNodes() const { return SearchNodes; }

  /// DFS searches run across this solver's lifetime (the "smt_solves"
  /// figure).
  uint64_t solves() const { return Solves; }

  unsigned numVars() const { return static_cast<unsigned>(Domains.size()); }

private:
  bool dfs(std::vector<Interval> &Domains, unsigned Depth, Model &Out,
           uint64_t NodeBudget, bool &OutOfBudget);

  std::vector<Interval> Domains;
  std::vector<FormulaPtr> Constraints;
  std::vector<size_t> Frames; ///< constraint count at each push()
  uint64_t SearchNodes = 0;
  uint64_t Solves = 0;
};

} // namespace regel::smt

#endif // REGEL_SMT_SOLVER_H
