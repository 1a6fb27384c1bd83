// §6's reachability analyses over an Internet topology.
#ifndef FLATNET_CORE_REACHABILITY_ANALYSIS_H_
#define FLATNET_CORE_REACHABILITY_ANALYSIS_H_

#include <vector>

#include "asgraph/metadata.h"
#include "core/internet.h"
#include "util/bitset.h"

namespace flatnet {

struct ReachabilitySummary {
  std::size_t provider_free = 0;   // reach(o, I \ Po), §6.2
  std::size_t tier1_free = 0;      // reach(o, I \ Po \ T1), §6.3
  std::size_t hierarchy_free = 0;  // reach(o, I \ Po \ T1 \ T2), §6.4
};

// The three nested reachability figures for one origin.
ReachabilitySummary AnalyzeReachability(const Internet& internet, AsId origin);

// The set of ASes `origin` cannot reach hierarchy-free (§6.7).
Bitset HierarchyFreeUnreachable(const Internet& internet, AsId origin);

// Breakdown of a node set by AS type (content/transit/access/enterprise;
// clouds are counted as content, matching the paper's four categories).
struct TypeBreakdown {
  std::size_t content = 0;
  std::size_t transit = 0;
  std::size_t access = 0;
  std::size_t enterprise = 0;
  std::size_t Total() const { return content + transit + access + enterprise; }
};
TypeBreakdown BreakdownByType(const Internet& internet, const Bitset& nodes);

// Best-path length histogram from `origin` to every reachable AS on the
// full topology (Appendix E / Fig 13): counts of 1-hop, 2-hop, and >=3-hop
// destinations, optionally weighted (e.g. by user population).
struct PathLengthBins {
  double one_hop = 0.0;
  double two_hops = 0.0;
  double three_plus = 0.0;
  double Total() const { return one_hop + two_hops + three_plus; }
};
PathLengthBins PathLengths(const Internet& internet, AsId origin,
                           const std::vector<double>* weights = nullptr);

}  // namespace flatnet

#endif  // FLATNET_CORE_REACHABILITY_ANALYSIS_H_
