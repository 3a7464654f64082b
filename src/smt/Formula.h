//===- smt/Formula.h - Quantifier-free formulas over terms ------*- C++ -*-===//
//
// Part of the Regel reproduction. Boolean combinations of comparison atoms
// over smt terms, with three-valued interval evaluation (the Solver's
// pruning oracle). Substitutes for the formula layer of Z3.
//
// conj/disj flatten nested conjunctions/disjunctions, drop units (true in
// a conjunction, false in a disjunction) and collapse to the absorbing
// element when one occurs. Parts keep their given order and duplicates
// are kept: evaluation does not depend on either.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SMT_FORMULA_H
#define REGEL_SMT_FORMULA_H

#include "smt/Term.h"

#include <memory>
#include <string>
#include <vector>

namespace regel::smt {

enum class CmpOp : uint8_t { Le, Ge, Eq, Ne };

enum class FormulaKind : uint8_t { True, False, Atom, And, Or };

/// Three-valued logic result of interval evaluation.
enum class Tri : uint8_t { False, True, Unknown };

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// An immutable quantifier-free formula.
class Formula {
public:
  FormulaKind getKind() const { return Kind; }
  CmpOp getOp() const { return Op; }
  const TermPtr &getLhs() const { return Lhs; }
  const TermPtr &getRhs() const { return Rhs; }
  const std::vector<FormulaPtr> &getParts() const { return Parts; }

  static FormulaPtr truth();
  static FormulaPtr falsity();
  static FormulaPtr atom(CmpOp Op, TermPtr Lhs, TermPtr Rhs);
  static FormulaPtr conj(std::vector<FormulaPtr> Parts);
  static FormulaPtr disj(std::vector<FormulaPtr> Parts);

  /// Convenience comparisons.
  static FormulaPtr le(TermPtr A, TermPtr B) {
    return atom(CmpOp::Le, std::move(A), std::move(B));
  }
  static FormulaPtr ge(TermPtr A, TermPtr B) {
    return atom(CmpOp::Ge, std::move(A), std::move(B));
  }
  static FormulaPtr eq(TermPtr A, TermPtr B) {
    return atom(CmpOp::Eq, std::move(A), std::move(B));
  }
  static FormulaPtr ne(TermPtr A, TermPtr B) {
    return atom(CmpOp::Ne, std::move(A), std::move(B));
  }

  /// Three-valued evaluation under interval domains: returns True (resp.
  /// False) only when every (resp. no) completion satisfies the formula.
  Tri eval(const std::vector<Interval> &Domains) const;

  /// Exact evaluation under a full assignment.
  bool evalPoint(const std::vector<int64_t> &Assignment) const;

  /// Variables occurring in the formula (sorted, unique).
  std::vector<VarId> vars() const;

  /// Printable form for diagnostics and tests.
  std::string str() const;

private:
  Formula(FormulaKind Kind, CmpOp Op, TermPtr Lhs, TermPtr Rhs,
          std::vector<FormulaPtr> Parts)
      : Kind(Kind), Op(Op), Lhs(std::move(Lhs)), Rhs(std::move(Rhs)),
        Parts(std::move(Parts)) {}

  FormulaKind Kind;
  CmpOp Op = CmpOp::Le;
  TermPtr Lhs, Rhs;
  std::vector<FormulaPtr> Parts;

  void collectVars(std::vector<VarId> &Out) const;
};

} // namespace regel::smt

#endif // REGEL_SMT_FORMULA_H
