//===- engine/Caches.cpp --------------------------------------------------===//

#include "engine/Caches.h"

using namespace regel;
using namespace regel::engine;

std::shared_ptr<const Dfa> ShardedDfaStore::lookup(const RegexPtr &R) {
  std::shared_ptr<const Dfa> D;
  Lru.lookup(R, D);
  return D;
}

void ShardedDfaStore::publish(const RegexPtr &R,
                              std::shared_ptr<const Dfa> D) {
  Lru.publish(R, std::move(D));
}

bool ShardedApproxStore::lookup(const SketchPtr &S, unsigned Depth,
                                bool WithClasses, Approx &Out) {
  return Lru.lookup({S, Depth, WithClasses}, Out);
}

void ShardedApproxStore::publish(const SketchPtr &S, unsigned Depth,
                                 bool WithClasses, const Approx &A) {
  Lru.publish({S, Depth, WithClasses}, A);
}

size_t ShardedSmtCache::hashKey(const smt::FormulaPtr &F,
                                const std::vector<smt::Interval> &Domains) {
  uint64_t H = mix64(static_cast<uint64_t>(F->hash()));
  for (const auto &I : Domains)
    H = mix64(H ^ mix64(static_cast<uint64_t>(I.Lo) * 0x9e3779b97f4a7c15ull ^
                        static_cast<uint64_t>(I.Hi)));
  return static_cast<size_t>(H);
}

bool ShardedSmtCache::lookup(const smt::FormulaPtr &F,
                             const std::vector<smt::Interval> &Domains,
                             smt::SolveResult &Out) {
  return Lru.lookup({F, Domains}, Out);
}

void ShardedSmtCache::publish(const smt::FormulaPtr &F,
                              const std::vector<smt::Interval> &Domains,
                              const smt::SolveResult &R) {
  // A budget-truncated search is about the budget, not the formula.
  if (R.Status == smt::SolveStatus::ResourceOut)
    return;
  Lru.publish({F, Domains}, R);
}
