// Fast valley-free reachability.
//
// reach(o, G): the set of ASes that receive an announcement originated at
// `o` under valley-free export rules. Computed with a two-state BFS in
// O(V + E): a node holding a customer-learned route may export to all
// neighbors ("up" state); a node holding a peer- or provider-learned route
// may export only to customers ("down" state). This is the engine behind
// provider-free, Tier-1-free, and hierarchy-free reachability (§6.1).
#ifndef FLATNET_BGP_REACHABILITY_H_
#define FLATNET_BGP_REACHABILITY_H_

#include <span>

#include "asgraph/as_graph.h"
#include "bgp/policy.h"
#include "util/bitset.h"
#include "util/epoch.h"

namespace flatnet {

// An undirected adjacency between two ASes, in either orientation. A graph
// holds at most one edge per pair, so the pair names the edge.
struct AsLink {
  AsId a;
  AsId b;
};

// Returns the reachable set, origin included. Nodes in `excluded` (when
// non-null) neither receive nor forward; an excluded origin yields the
// empty set.
Bitset ReachableSet(const AsGraph& graph, AsId origin, const Bitset* excluded = nullptr);

// |ReachableSet| minus the origin itself — the paper's "number of ASes
// reachable" counts destinations only.
std::size_t ReachableCount(const AsGraph& graph, AsId origin, const Bitset* excluded = nullptr);

// Reusable workspace for sweeps over many origins: avoids reallocating the
// per-node state between calls. Not thread-safe; use one per thread.
class ReachabilityEngine {
 public:
  explicit ReachabilityEngine(const AsGraph& graph);

  // Allocates and returns a fresh reached set.
  Bitset Compute(AsId origin, const Bitset* excluded = nullptr);

  // Reuse path for tight sweep loops: fills `reached` (resized to the
  // graph when needed) without allocating once the caller recycles the
  // same bitset across calls.
  //
  // `failed` links (here and in Count) are treated as absent in both
  // directions, exactly as if the graph had been rebuilt without them.
  // Sized for a handful of links — a traversal at an endpoint of a failed
  // link scans the whole span. An empty span runs the unfiltered BFS.
  void ComputeInto(AsId origin, const Bitset* excluded, Bitset& reached);
  void ComputeInto(AsId origin, const Bitset* excluded, std::span<const AsLink> failed,
                   Bitset& reached);

  // Destination count only. Never materializes a reached bitset — the BFS
  // queue already holds every reached node exactly once — so a counting
  // sweep is allocation-free after the first call.
  std::size_t Count(AsId origin, const Bitset* excluded = nullptr,
                    std::span<const AsLink> failed = {});

  // Forces the internal epoch counter for the wraparound regression test
  // (2^32 real RunBfs calls are out of reach for a unit test).
  void SetEpochForTesting(std::uint32_t epoch) { stamps_.SetEpochForTesting(epoch); }

 private:
  // Runs the two-state BFS; when `reached` is non-null it is overwritten
  // entirely with the reach set (assumed sized to the graph). Returns the
  // number of reached nodes, origin included (0 when the origin is
  // excluded). The exclusion mask is folded into the stamp array up front
  // (excluded nodes look already-visited), so the inner loops pay one
  // epoch compare per edge and no per-bit Test.
  //
  // kFilterLinks selects the link-failure instantiation: it tests
  // link_endpoint_ once per node it pops or probes and, only at endpoints,
  // skips the neighbors across a failed link. The unfiltered instantiation
  // ignores `failed` and compiles to the plain loops.
  template <bool kFilterLinks>
  std::size_t RunBfs(AsId origin, const Bitset* excluded, std::span<const AsLink> failed,
                     Bitset* reached);

  // Dispatches to the filtered instantiation only when links failed.
  std::size_t Run(AsId origin, const Bitset* excluded, std::span<const AsLink> failed,
                  Bitset* reached);

  const AsGraph& graph_;
  // Visited stamp per node, epoch-numbered to avoid clearing between
  // sweeps. The up/down BFS stages run strictly in sequence, so one merged
  // array serves both (stage 1 only ever sees up-state stamps). The
  // wraparound guard lives in EpochStamps::NextEpoch — shared with
  // CustomerConeSizes — so stale stamps from 2^32 calls ago can never
  // collide.
  EpochStamps stamps_;
  std::vector<AsId> queue_;
  // Static id-ordered list of nodes with at least one provider — the only
  // nodes the bottom-up down-flood ever needs to visit. Built once per
  // engine so stage 3 starts its first round without an O(n) filter pass.
  std::vector<AsId> downable_;
  // Scratch for the bottom-up down-flood: unvisited nodes still waiting
  // for a visited provider, compacted every round.
  std::vector<AsId> candidates_;
  // Endpoints of the current call's failed links; set on entry to a
  // filtered BFS and cleared on exit, so it is all-zero between calls.
  Bitset link_endpoint_;
};

}  // namespace flatnet

#endif  // FLATNET_BGP_REACHABILITY_H_
