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
