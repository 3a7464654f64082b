//===- automata/Compile.h - Regex-to-automaton compilation ------*- C++ -*-===//
//
// Part of the Regel reproduction. Compiles regex DSL terms (Fig. 5) into
// minimized DFAs. Not/And are handled through complement/intersection of
// the children's DFAs, mirroring how the paper uses the Brics library.
//
// A DfaCache memoizes the (structural) regex -> DFA mapping; the PBE engine
// issues very many membership queries over regexes that share subterms, so
// this cache is one of the design choices ablated in bench/micro_kernels.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_AUTOMATA_COMPILE_H
#define REGEL_AUTOMATA_COMPILE_H

#include "automata/Dfa.h"
#include "regex/Ast.h"

#include <memory>
#include <unordered_map>

namespace regel {

namespace obs {
struct SynthProbe;
}

/// Compiles \p R to a minimized complete DFA (no caching).
Dfa compileRegex(const RegexPtr &R);

/// Backing store a DfaCache may consult on a local miss and publish fresh
/// compilations to. Implementations must be thread-safe: the concurrent
/// engine shares one store (sharded, see engine/Caches.h) across all
/// synthesis runs so DFA compilations amortize over a whole workload.
class DfaStore {
public:
  virtual ~DfaStore() = default;

  /// Returns the stored DFA for \p R, or nullptr.
  virtual std::shared_ptr<const Dfa> lookup(const RegexPtr &R) = 0;

  /// Offers a freshly compiled DFA to the store (keep-or-drop is up to the
  /// implementation).
  virtual void publish(const RegexPtr &R, std::shared_ptr<const Dfa> D) = 0;
};

/// Structural-hash cache from regex to compiled DFA.
///
/// Not thread-safe by itself; each synthesis run owns one. When a shared
/// backing store is attached, local misses consult it before compiling and
/// publish what they compile — the lock-free fast path stays local while
/// compilations are shared across runs and threads.
class DfaCache {
public:
  /// Returns the DFA for \p R, compiling it on first use.
  const Dfa &get(const RegexPtr &R);

  /// Attaches (or detaches, with nullptr) a shared backing store.
  void setSharedStore(DfaStore *S) { Shared = S; }

  /// Attaches (or detaches, with nullptr) an instrumentation probe: each
  /// full compilation this cache pays — a local miss the shared store
  /// could not serve — is timed into the probe's DfaCompileUs histogram
  /// and, when the run is traced, recorded as a `dfa_compile` span.
  void setProbe(const obs::SynthProbe *P) { Probe = P; }

  /// Membership through the cache.
  bool matches(const RegexPtr &R, const std::string &Input) {
    return get(R).matches(Input);
  }

  /// True if \p R matches every string in \p Examples.
  bool acceptsAll(const RegexPtr &R, const std::vector<std::string> &Examples);

  /// True if \p R matches no string in \p Examples.
  bool rejectsAll(const RegexPtr &R, const std::vector<std::string> &Examples);

  size_t size() const { return Cache.size(); }
  void clear() { Cache.clear(); }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t sharedHits() const { return SharedHits; }

private:
  std::unordered_map<RegexPtr, std::shared_ptr<const Dfa>, RegexPtrHash,
                     RegexPtrEq>
      Cache;
  DfaStore *Shared = nullptr;
  const obs::SynthProbe *Probe = nullptr;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t SharedHits = 0; ///< local misses served by the shared store
};

/// Semantic equivalence of two DSL regexes (full printable-ASCII alphabet).
bool regexEquivalent(const RegexPtr &A, const RegexPtr &B);

} // namespace regel

#endif // REGEL_AUTOMATA_COMPILE_H
