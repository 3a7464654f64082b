//===- smt/Formula.cpp ----------------------------------------------------===//

#include "smt/Formula.h"

#include <algorithm>
#include <cassert>

using namespace regel::smt;

FormulaPtr Formula::truth() {
  return FormulaPtr(
      new Formula(FormulaKind::True, CmpOp::Le, nullptr, nullptr, {}));
}

FormulaPtr Formula::falsity() {
  return FormulaPtr(
      new Formula(FormulaKind::False, CmpOp::Le, nullptr, nullptr, {}));
}

FormulaPtr Formula::atom(CmpOp Op, TermPtr Lhs, TermPtr Rhs) {
  assert(Lhs && Rhs && "null atom operand");
  return FormulaPtr(new Formula(FormulaKind::Atom, Op, std::move(Lhs),
                                std::move(Rhs), {}));
}

FormulaPtr Formula::conj(std::vector<FormulaPtr> Parts) {
  std::vector<FormulaPtr> Kept;
  for (FormulaPtr &P : Parts) {
    assert(P && "null conjunct");
    if (P->Kind == FormulaKind::False)
      return falsity();
    if (P->Kind == FormulaKind::True)
      continue;
    if (P->Kind == FormulaKind::And) {
      for (const FormulaPtr &Q : P->Parts)
        Kept.push_back(Q);
      continue;
    }
    Kept.push_back(std::move(P));
  }
  if (Kept.empty())
    return truth();
  if (Kept.size() == 1)
    return Kept[0];
  return FormulaPtr(
      new Formula(FormulaKind::And, CmpOp::Le, nullptr, nullptr,
                  std::move(Kept)));
}

FormulaPtr Formula::disj(std::vector<FormulaPtr> Parts) {
  std::vector<FormulaPtr> Kept;
  for (FormulaPtr &P : Parts) {
    assert(P && "null disjunct");
    if (P->Kind == FormulaKind::True)
      return truth();
    if (P->Kind == FormulaKind::False)
      continue;
    if (P->Kind == FormulaKind::Or) {
      for (const FormulaPtr &Q : P->Parts)
        Kept.push_back(Q);
      continue;
    }
    Kept.push_back(std::move(P));
  }
  if (Kept.empty())
    return falsity();
  if (Kept.size() == 1)
    return Kept[0];
  return FormulaPtr(
      new Formula(FormulaKind::Or, CmpOp::Le, nullptr, nullptr,
                  std::move(Kept)));
}

namespace {

Tri evalCmp(CmpOp Op, const Interval &A, const Interval &B) {
  switch (Op) {
  case CmpOp::Le:
    if (A.Hi <= B.Lo)
      return Tri::True;
    if (A.Lo > B.Hi)
      return Tri::False;
    return Tri::Unknown;
  case CmpOp::Ge:
    return evalCmp(CmpOp::Le, B, A);
  case CmpOp::Eq:
    if (A.isPoint() && B.isPoint())
      return A.Lo == B.Lo ? Tri::True : Tri::False;
    if (A.Hi < B.Lo || B.Hi < A.Lo)
      return Tri::False;
    return Tri::Unknown;
  case CmpOp::Ne:
    if (A.isPoint() && B.isPoint())
      return A.Lo != B.Lo ? Tri::True : Tri::False;
    if (A.Hi < B.Lo || B.Hi < A.Lo)
      return Tri::True;
    return Tri::Unknown;
  }
  assert(false && "unknown comparison");
  return Tri::Unknown;
}

} // namespace

Tri Formula::eval(const std::vector<Interval> &Domains) const {
  switch (Kind) {
  case FormulaKind::True:
    return Tri::True;
  case FormulaKind::False:
    return Tri::False;
  case FormulaKind::Atom:
    return evalCmp(Op, Lhs->eval(Domains), Rhs->eval(Domains));
  case FormulaKind::And: {
    bool AnyUnknown = false;
    for (const FormulaPtr &P : Parts) {
      Tri T = P->eval(Domains);
      if (T == Tri::False)
        return Tri::False;
      if (T == Tri::Unknown)
        AnyUnknown = true;
    }
    return AnyUnknown ? Tri::Unknown : Tri::True;
  }
  case FormulaKind::Or: {
    bool AnyUnknown = false;
    for (const FormulaPtr &P : Parts) {
      Tri T = P->eval(Domains);
      if (T == Tri::True)
        return Tri::True;
      if (T == Tri::Unknown)
        AnyUnknown = true;
    }
    return AnyUnknown ? Tri::Unknown : Tri::False;
  }
  }
  assert(false && "unknown formula kind");
  return Tri::Unknown;
}

bool Formula::evalPoint(const std::vector<int64_t> &Assignment) const {
  switch (Kind) {
  case FormulaKind::True:
    return true;
  case FormulaKind::False:
    return false;
  case FormulaKind::Atom: {
    int64_t A = Lhs->evalPoint(Assignment);
    int64_t B = Rhs->evalPoint(Assignment);
    switch (Op) {
    case CmpOp::Le:
      return A <= B;
    case CmpOp::Ge:
      return A >= B;
    case CmpOp::Eq:
      return A == B;
    case CmpOp::Ne:
      return A != B;
    }
    return false;
  }
  case FormulaKind::And:
    for (const FormulaPtr &P : Parts)
      if (!P->evalPoint(Assignment))
        return false;
    return true;
  case FormulaKind::Or:
    for (const FormulaPtr &P : Parts)
      if (P->evalPoint(Assignment))
        return true;
    return false;
  }
  assert(false && "unknown formula kind");
  return false;
}

void Formula::collectVars(std::vector<VarId> &Out) const {
  switch (Kind) {
  case FormulaKind::True:
  case FormulaKind::False:
    return;
  case FormulaKind::Atom:
    Lhs->collectVars(Out);
    Rhs->collectVars(Out);
    return;
  case FormulaKind::And:
  case FormulaKind::Or:
    for (const FormulaPtr &P : Parts)
      P->collectVars(Out);
    return;
  }
}

std::vector<VarId> Formula::vars() const {
  std::vector<VarId> Out;
  collectVars(Out);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::string Formula::str() const {
  switch (Kind) {
  case FormulaKind::True:
    return "true";
  case FormulaKind::False:
    return "false";
  case FormulaKind::Atom: {
    const char *OpStr = "?";
    switch (Op) {
    case CmpOp::Le:
      OpStr = "<=";
      break;
    case CmpOp::Ge:
      OpStr = ">=";
      break;
    case CmpOp::Eq:
      OpStr = "=";
      break;
    case CmpOp::Ne:
      OpStr = "!=";
      break;
    }
    return Lhs->str() + " " + OpStr + " " + Rhs->str();
  }
  case FormulaKind::And:
  case FormulaKind::Or: {
    std::string Sep = Kind == FormulaKind::And ? " & " : " | ";
    std::string Out = "(";
    for (size_t I = 0; I < Parts.size(); ++I) {
      if (I)
        Out += Sep;
      Out += Parts[I]->str();
    }
    return Out + ")";
  }
  }
  return "?";
}
