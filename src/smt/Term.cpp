//===- smt/Term.cpp -------------------------------------------------------===//

#include "smt/Term.h"

#include <algorithm>
#include <cassert>

using namespace regel::smt;

int64_t regel::smt::satAdd(int64_t A, int64_t B) {
  assert(A >= 0 && B >= 0 && "extended naturals only");
  if (A == Infinity || B == Infinity)
    return Infinity;
  if (A > Infinity - B)
    return Infinity;
  return A + B;
}

int64_t regel::smt::satMul(int64_t A, int64_t B) {
  assert(A >= 0 && B >= 0 && "extended naturals only");
  if (A == 0 || B == 0)
    return 0;
  if (A == Infinity || B == Infinity)
    return Infinity;
  if (A > Infinity / B)
    return Infinity;
  return A * B;
}

TermPtr Term::constant(int64_t V) {
  assert(V >= 0 && "terms range over extended naturals");
  return TermPtr(new Term(TermKind::Const, V, 0, nullptr, nullptr));
}

TermPtr Term::var(VarId V) {
  return TermPtr(new Term(TermKind::Var, 0, V, nullptr, nullptr));
}

TermPtr Term::add(TermPtr A, TermPtr B) {
  assert(A && B && "null term");
  // Constant folding keeps encoder output small.
  if (A->getKind() == TermKind::Const && B->getKind() == TermKind::Const)
    return constant(satAdd(A->getValue(), B->getValue()));
  if (A->getKind() == TermKind::Const && A->getValue() == 0)
    return B;
  if (B->getKind() == TermKind::Const && B->getValue() == 0)
    return A;
  return TermPtr(
      new Term(TermKind::Add, 0, 0, std::move(A), std::move(B)));
}

TermPtr Term::mul(TermPtr A, TermPtr B) {
  assert(A && B && "null term");
  if (A->getKind() == TermKind::Const && B->getKind() == TermKind::Const)
    return constant(satMul(A->getValue(), B->getValue()));
  if (A->getKind() == TermKind::Const && A->getValue() == 1)
    return B;
  if (B->getKind() == TermKind::Const && B->getValue() == 1)
    return A;
  if ((A->getKind() == TermKind::Const && A->getValue() == 0) ||
      (B->getKind() == TermKind::Const && B->getValue() == 0))
    return constant(0);
  return TermPtr(
      new Term(TermKind::Mul, 0, 0, std::move(A), std::move(B)));
}

TermPtr Term::min(TermPtr A, TermPtr B) {
  assert(A && B && "null term");
  if (A->getKind() == TermKind::Const && B->getKind() == TermKind::Const)
    return constant(std::min(A->getValue(), B->getValue()));
  if (A->getKind() == TermKind::Const && A->getValue() == Infinity)
    return B;
  if (B->getKind() == TermKind::Const && B->getValue() == Infinity)
    return A;
  return TermPtr(new Term(TermKind::Min, 0, 0, std::move(A), std::move(B)));
}

TermPtr Term::max(TermPtr A, TermPtr B) {
  assert(A && B && "null term");
  if (A->getKind() == TermKind::Const && B->getKind() == TermKind::Const)
    return constant(std::max(A->getValue(), B->getValue()));
  if (A->getKind() == TermKind::Const && A->getValue() == 0)
    return B;
  if (B->getKind() == TermKind::Const && B->getValue() == 0)
    return A;
  return TermPtr(new Term(TermKind::Max, 0, 0, std::move(A), std::move(B)));
}

Interval Term::eval(const std::vector<Interval> &Domains) const {
  switch (Kind) {
  case TermKind::Const:
    return {Value, Value};
  case TermKind::Var:
    assert(Var < Domains.size() && "undeclared variable");
    return Domains[Var];
  case TermKind::Add: {
    Interval A = Lhs->eval(Domains);
    Interval B = Rhs->eval(Domains);
    return {satAdd(A.Lo, B.Lo), satAdd(A.Hi, B.Hi)};
  }
  case TermKind::Mul: {
    Interval A = Lhs->eval(Domains);
    Interval B = Rhs->eval(Domains);
    return {satMul(A.Lo, B.Lo), satMul(A.Hi, B.Hi)};
  }
  case TermKind::Min: {
    Interval A = Lhs->eval(Domains);
    Interval B = Rhs->eval(Domains);
    return {std::min(A.Lo, B.Lo), std::min(A.Hi, B.Hi)};
  }
  case TermKind::Max: {
    Interval A = Lhs->eval(Domains);
    Interval B = Rhs->eval(Domains);
    return {std::max(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
  }
  }
  assert(false && "unknown term kind");
  return {};
}

int64_t Term::evalPoint(const std::vector<int64_t> &Assignment) const {
  switch (Kind) {
  case TermKind::Const:
    return Value;
  case TermKind::Var:
    assert(Var < Assignment.size() && "undeclared variable");
    return Assignment[Var];
  case TermKind::Add:
    return satAdd(Lhs->evalPoint(Assignment), Rhs->evalPoint(Assignment));
  case TermKind::Mul:
    return satMul(Lhs->evalPoint(Assignment), Rhs->evalPoint(Assignment));
  case TermKind::Min:
    return std::min(Lhs->evalPoint(Assignment), Rhs->evalPoint(Assignment));
  case TermKind::Max:
    return std::max(Lhs->evalPoint(Assignment), Rhs->evalPoint(Assignment));
  }
  assert(false && "unknown term kind");
  return 0;
}

void Term::collectVars(std::vector<VarId> &Out) const {
  switch (Kind) {
  case TermKind::Const:
    return;
  case TermKind::Var:
    Out.push_back(Var);
    return;
  case TermKind::Add:
  case TermKind::Mul:
  case TermKind::Min:
  case TermKind::Max:
    Lhs->collectVars(Out);
    Rhs->collectVars(Out);
    return;
  }
}

std::string Term::str() const {
  switch (Kind) {
  case TermKind::Const:
    return Value == Infinity ? "inf" : std::to_string(Value);
  case TermKind::Var:
    return "k" + std::to_string(Var);
  case TermKind::Add:
    return "(" + Lhs->str() + " + " + Rhs->str() + ")";
  case TermKind::Mul:
    return "(" + Lhs->str() + " * " + Rhs->str() + ")";
  case TermKind::Min:
    return "min(" + Lhs->str() + ", " + Rhs->str() + ")";
  case TermKind::Max:
    return "max(" + Lhs->str() + ", " + Rhs->str() + ")";
  }
  return "?";
}
