// Topology fingerprint binding persisted results to the exact graph they
// were computed on.
//
// A 64-bit FNV-1a hash over everything that determines per-origin
// reachability: the dense-id → ASN mapping, the full typed adjacency
// structure, and the Tier-1/Tier-2 masks. Metadata (names, user counts)
// is deliberately excluded — it cannot change a reachability count.
// The same Internet always hashes to the same value across runs and
// machines, so a persisted store — sweep/leak/fail results or a binary
// `.graph` topology — can be validated before it is served.
//
// The hash is computed once per Internet, when it is constructed, and
// Internet::fingerprint() returns the stored value, so campaigns and store
// attaches never re-walk the adjacency.
#ifndef FLATNET_CORE_FINGERPRINT_H_
#define FLATNET_CORE_FINGERPRINT_H_

#include <cstdint>

#include "asgraph/as_graph.h"
#include "asgraph/tiers.h"

namespace flatnet {

// 64-bit FNV-1a over a stream of u64 values, each mixed as its eight
// bytes in little-endian order. Campaign fingerprints and journals key on
// these values, so the mixing order is frozen.
class Fnv1a64 {
 public:
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (i * 8)) & 0xFFu;
      hash_ *= 0x100000001b3ULL;
    }
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// The from-scratch hash, O(n + E): what Internet's constructor stores.
std::uint64_t HashTopology(const AsGraph& graph, const TierSets& tiers);

}  // namespace flatnet

#endif  // FLATNET_CORE_FINGERPRINT_H_
