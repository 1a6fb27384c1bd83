#include "core/internet.h"

#include "core/fingerprint.h"
#include "util/error.h"

namespace flatnet {

Internet::Internet() : fingerprint_(HashTopology(graph_, tiers_)) {}

Internet::Internet(AsGraph graph, TierSets tiers, AsMetadata metadata)
    : graph_(std::move(graph)),
      tiers_(std::move(tiers)),
      metadata_(std::move(metadata)),
      fingerprint_(HashTopology(graph_, tiers_)) {
  if (tiers_.tier1_mask.size() != graph_.num_ases() ||
      metadata_.size() != graph_.num_ases()) {
    throw InvalidArgument("Internet: tier/metadata size mismatch with graph");
  }
}

Bitset Internet::ProviderFreeExclusion(AsId origin) const {
  Bitset mask(graph_.num_ases());
  for (const Neighbor& nb : graph_.Providers(origin)) mask.Set(nb.id);
  return mask;
}

Bitset Internet::Tier1FreeExclusion(AsId origin) const {
  Bitset mask = tiers_.tier1_mask;
  for (const Neighbor& nb : graph_.Providers(origin)) mask.Set(nb.id);
  mask.Reset(origin);
  return mask;
}

Bitset Internet::HierarchyFreeExclusion(AsId origin) const {
  Bitset mask = tiers_.tier1_mask;
  mask |= tiers_.tier2_mask;
  for (const Neighbor& nb : graph_.Providers(origin)) mask.Set(nb.id);
  mask.Reset(origin);
  return mask;
}

}  // namespace flatnet
