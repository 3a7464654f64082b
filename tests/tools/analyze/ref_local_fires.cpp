// Fixture: the lock is reached through a reference local declared in
// the tree's `Type &Name = ...` style, inside a class template (the
// ShardedLru shape). The local must be typed for the shard lock to
// resolve; once it is, the socket write under it is the finding.
#include <sys/socket.h>
#include "support/Mutex.h"

template <typename K> class Lru {
  struct Shard {
    regel::Mutex M;
    int Fd REGEL_GUARDED_BY(M) = -1;
  };
  Shard Shards[4];

  Shard &shardFor(const K &Key) { return Shards[Key % 4]; }

public:
  void publish(const K &Key, const char *Buf, long N) {
    Shard &S = shardFor(Key);
    regel::MutexLock Guard(S.M);
    ::send(S.Fd, Buf, N, 0);              // socket-io under Shard::M
  }
};
