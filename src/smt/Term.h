//===- smt/Term.h - Arithmetic terms over bounded integers ------*- C++ -*-===//
//
// Part of the Regel reproduction. Non-negative integer terms with addition
// and multiplication (the non-linear `x >= x1*k` constraints of Fig. 13
// need products of a variable with a term). Infinity is a first-class
// constant because the DSL's unbounded repetitions yield upper bounds of
// "no bound". This module substitutes for the term layer of Z3.
//
// The factory functions fold constants (2 + 3 is 5) and identities
// (x + 0, x * 1, x * 0, min(x, inf), max(x, 0)) and otherwise build a
// fresh node with the operands in the order given. Terms are immutable
// and shared by pointer, but two equal terms need not be one object:
// nothing compares or hashes terms, it only evaluates them.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SMT_TERM_H
#define REGEL_SMT_TERM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace regel::smt {

/// Variable identifier (dense index issued by the Solver/encoder).
using VarId = uint32_t;

/// Saturating extended naturals: values in [0, Infinity].
constexpr int64_t Infinity = INT64_MAX;

/// Saturating addition on extended naturals.
int64_t satAdd(int64_t A, int64_t B);

/// Saturating multiplication on extended naturals.
int64_t satMul(int64_t A, int64_t B);

/// An inclusive interval over extended naturals.
struct Interval {
  int64_t Lo = 0;
  int64_t Hi = Infinity;

  bool isPoint() const { return Lo == Hi; }
  bool contains(int64_t V) const { return V >= Lo && V <= Hi; }
};

enum class TermKind : uint8_t { Const, Var, Add, Mul, Min, Max };

class Term;
using TermPtr = std::shared_ptr<const Term>;

/// An immutable arithmetic term.
class Term {
public:
  TermKind getKind() const { return Kind; }

  int64_t getValue() const { return Value; } ///< Const only.
  VarId getVar() const { return Var; }       ///< Var only.

  const TermPtr &getLhs() const { return Lhs; }
  const TermPtr &getRhs() const { return Rhs; }

  static TermPtr constant(int64_t V);
  static TermPtr infinity() { return constant(Infinity); }
  static TermPtr var(VarId V);
  static TermPtr add(TermPtr A, TermPtr B);
  static TermPtr mul(TermPtr A, TermPtr B);
  static TermPtr min(TermPtr A, TermPtr B);
  static TermPtr max(TermPtr A, TermPtr B);

  /// Interval evaluation under per-variable domains. All variables are
  /// non-negative, so +/* are monotone and interval arithmetic is exact on
  /// the endpoints.
  Interval eval(const std::vector<Interval> &Domains) const;

  /// Exact evaluation under a full assignment.
  int64_t evalPoint(const std::vector<int64_t> &Assignment) const;

  /// Collects the variables occurring in the term into \p Out (may repeat).
  void collectVars(std::vector<VarId> &Out) const;

  /// Printable form, e.g. "(k0 + 2*k1)".
  std::string str() const;

private:
  Term(TermKind Kind, int64_t Value, VarId Var, TermPtr Lhs, TermPtr Rhs)
      : Kind(Kind), Value(Value), Var(Var), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)) {}

  TermKind Kind;
  int64_t Value;
  VarId Var;
  TermPtr Lhs, Rhs;
};

} // namespace regel::smt

#endif // REGEL_SMT_TERM_H
