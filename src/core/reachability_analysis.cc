#include "core/reachability_analysis.h"

#include "bgp/propagation.h"
#include "bgp/reachability.h"

namespace flatnet {

ReachabilitySummary AnalyzeReachability(const Internet& internet, AsId origin) {
  ReachabilityEngine engine(internet.graph());
  ReachabilitySummary summary;
  Bitset mask = internet.ProviderFreeExclusion(origin);
  summary.provider_free = engine.Count(origin, &mask);
  mask = internet.Tier1FreeExclusion(origin);
  summary.tier1_free = engine.Count(origin, &mask);
  mask = internet.HierarchyFreeExclusion(origin);
  summary.hierarchy_free = engine.Count(origin, &mask);
  return summary;
}

Bitset HierarchyFreeUnreachable(const Internet& internet, AsId origin) {
  ReachabilityEngine engine(internet.graph());
  Bitset mask = internet.HierarchyFreeExclusion(origin);
  Bitset reached = engine.Compute(origin, &mask);
  Bitset unreachable = ~reached;
  unreachable.Reset(origin);
  return unreachable;
}

TypeBreakdown BreakdownByType(const Internet& internet, const Bitset& nodes) {
  TypeBreakdown breakdown;
  nodes.ForEachSet([&](std::size_t id) {
    switch (internet.metadata().Get(static_cast<AsId>(id)).type) {
      case AsType::kContent:
      case AsType::kCloud:
        ++breakdown.content;
        break;
      case AsType::kTransit:
        ++breakdown.transit;
        break;
      case AsType::kAccess:
        ++breakdown.access;
        break;
      case AsType::kEnterprise:
        ++breakdown.enterprise;
        break;
    }
  });
  return breakdown;
}

PathLengthBins PathLengths(const Internet& internet, AsId origin,
                           const std::vector<double>* weights) {
  AnnouncementSource source;
  source.node = origin;
  RouteComputation computation(internet.graph(), {source});
  PathLengthBins bins;
  for (AsId node = 0; node < internet.num_ases(); ++node) {
    if (node == origin) continue;
    const RouteEntry& entry = computation.Route(node);
    if (!entry.HasRoute()) continue;
    double w = weights != nullptr ? (*weights)[node] : 1.0;
    if (w <= 0.0) continue;
    if (entry.length <= 1) {
      bins.one_hop += w;
    } else if (entry.length == 2) {
      bins.two_hops += w;
    } else {
      bins.three_plus += w;
    }
  }
  return bins;
}

}  // namespace flatnet
