// The analysis topology: an AS graph plus tier sets and metadata, with the
// exclusion-mask vocabulary of §6 (provider-free, Tier-1-free,
// hierarchy-free).
#ifndef FLATNET_CORE_INTERNET_H_
#define FLATNET_CORE_INTERNET_H_

#include <cstdint>
#include <string>

#include "asgraph/as_graph.h"
#include "asgraph/metadata.h"
#include "asgraph/tiers.h"
#include "util/bitset.h"

namespace flatnet {

class Internet {
 public:
  Internet();
  Internet(AsGraph graph, TierSets tiers, AsMetadata metadata);

  const AsGraph& graph() const { return graph_; }
  const TierSets& tiers() const { return tiers_; }
  const AsMetadata& metadata() const { return metadata_; }

  // The topology fingerprint (core/fingerprint.h) of the graph and tier
  // sets, hashed once at construction. The members are immutable, so the
  // value never goes stale; copies carry it along.
  std::uint64_t fingerprint() const { return fingerprint_; }

  std::size_t num_ases() const { return graph_.num_ases(); }
  const std::string& NameOf(AsId id) const { return metadata_.Get(id).name; }

  // reach(o, I \ Po): the origin's transit providers are removed.
  Bitset ProviderFreeExclusion(AsId origin) const;
  // reach(o, I \ Po \ T1).
  Bitset Tier1FreeExclusion(AsId origin) const;
  // reach(o, I \ Po \ T1 \ T2) — hierarchy-free (§6.4). The origin itself
  // is never excluded, even when it is a Tier-1/Tier-2.
  Bitset HierarchyFreeExclusion(AsId origin) const;

 private:
  AsGraph graph_;
  TierSets tiers_;
  AsMetadata metadata_;
  std::uint64_t fingerprint_;  // declared last: hashed from the members above
};

}  // namespace flatnet

#endif  // FLATNET_CORE_INTERNET_H_
