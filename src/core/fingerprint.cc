#include "core/fingerprint.h"

namespace flatnet {
namespace {

void MixBitset(Fnv1a64& h, const Bitset& mask) {
  h.Mix(mask.size());
  // Set-bit indices rather than raw words: independent of Bitset's
  // internal word layout.
  mask.ForEachSet([&](std::size_t i) { h.Mix(i); });
}

}  // namespace

std::uint64_t HashTopology(const AsGraph& graph, const TierSets& tiers) {
  Fnv1a64 h;
  h.Mix(graph.num_ases());
  h.Mix(graph.num_edges());
  for (AsId id = 0; id < graph.num_ases(); ++id) {
    h.Mix(graph.AsnOf(id));
    for (const Neighbor& nb : graph.NeighborsOf(id)) {
      h.Mix((static_cast<std::uint64_t>(nb.id) << 2) |
            static_cast<std::uint64_t>(nb.rel));
    }
  }
  MixBitset(h, tiers.tier1_mask);
  MixBitset(h, tiers.tier2_mask);
  return h.value();
}

}  // namespace flatnet
