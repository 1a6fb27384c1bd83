// Bit-parallel reachability for many origins at once: the all-origins
// sweep's three reach columns for 64 origins in one pass over the graph.
//
// Every sweep column excludes the origin's own providers, so the
// two-state BFS (bgp/reachability.h) never leaves the origin in its up
// stage. A column is therefore the customer-edge closure of the origin and
// its peers, inside I \ P(o) \ B, with the origin itself never excluded:
//
//   column 0   B = ∅       provider-free
//   column 1   B = base1   Tier-1-free     (the sweep passes T1)
//   column 2   B = base2   hierarchy-free  (the sweep passes T1 ∪ T2)
//
// Lane l of a batch carries origin l, one bit per 64-bit word, in the
// multi-source layout of MS-BFS (Then et al., "The More the Merrier",
// PVLDB 2014). BatchReachLayout puts the provider→customer DAG in Kahn
// order once; BatchReachEngine then computes every node's three words in
// one sequential pull pass and counts each lane with a positional
// popcount:
//
//   w_c[r] = ((seed[r] | OR over providers p of w_c[p]) & ~(deny[r] | B_c(r))) | self[r]
//
// where seed holds the lanes whose origin peers with r, deny the lanes
// whose origin is r's customer, and self the lane whose origin is r.
// Nodes on or below a p2c cycle (untrusted CAIDA input can hold one) have
// no Kahn rank; they go last and the engine repeats the pass over them
// until no word changes. That is the least fixpoint, which is the BFS
// result; an acyclic graph pays exactly one pass.
//
// Lane l of column c is bit-equal to ReachabilityEngine's reached set for
// origin o under (B_c ∪ P(o)) \ {o}; check/diff.h holds the two to that.
//
// Instrumented with reachability.batch.passes / lanes / nodes_reached.
// The scalar engine's reachability.computes and nodes_reached count only
// scalar BFSes.
#ifndef FLATNET_BGP_BATCH_REACH_H_
#define FLATNET_BGP_BATCH_REACH_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "asgraph/as_graph.h"
#include "util/bitset.h"

namespace flatnet {

// Origins per batch, one per bit of a lane word.
inline constexpr std::size_t kBatchLanes = 64;
// Reach columns per batch; column c excludes baseline B_c (see above).
inline constexpr std::size_t kBatchColumns = 3;

// The graph in pass order, built once and shared read-only by every
// engine (and thread) that evaluates batches over it. `graph` must
// outlive the layout.
class BatchReachLayout {
 public:
  // `base1` and `base2` are sized to the graph; throws InvalidArgument
  // otherwise.
  BatchReachLayout(const AsGraph& graph, const Bitset& base1, const Bitset& base2);

  const AsGraph& graph() const { return graph_; }
  std::size_t num_ases() const { return id_at_.size(); }

 private:
  friend class BatchReachEngine;

  const AsGraph& graph_;
  std::vector<std::uint32_t> rank_of_;  // AsId → rank
  std::vector<AsId> id_at_;             // rank → AsId
  // Each rank's providers, as ranks: CSR bounds (num_ases + 1) and ids.
  std::vector<std::uint32_t> first_provider_;
  std::vector<std::uint32_t> provider_ranks_;
  // Per rank: bit c - 1 set when the node is in baseline B_c.
  std::vector<std::uint8_t> baseline_;
  // Ranks [0, ordered_) are in Kahn order; the rest sit on or below a cycle.
  std::size_t ordered_ = 0;
};

// One thread's batch state over a shared layout: three words per node plus
// the per-lane seed/deny/self patch. Not thread-safe; use one per thread.
class BatchReachEngine {
 public:
  explicit BatchReachEngine(const BatchReachLayout& layout);

  // Evaluates one batch, lane l carrying origins[l]. Throws
  // InvalidArgument on an empty batch, more than kBatchLanes origins, or an
  // origin out of range.
  void Run(std::span<const AsId> origins);

  // Destinations `lane` reached in `column` in the last Run, the origin
  // not counted (ReachabilityEngine::Count under the same exclusion).
  std::uint32_t Count(std::size_t column, std::size_t lane) const {
    return counts_[column][lane];
  }

  // The lane's reached set in `column` in the last Run, origin included.
  Bitset ReachedSet(std::size_t column, std::size_t lane) const;

 private:
  struct Patch {
    std::uint64_t seed = 0;  // lanes whose origin peers with this node
    std::uint64_t deny = 0;  // lanes whose origin is this node's customer
    std::uint64_t self = 0;  // the lane whose origin is this node
  };

  Patch& Touch(std::uint32_t rank) {
    touched_.push_back(rank);
    return patch_[rank];
  }
  // Recomputes the words of ranks [begin, end) in rank order; reports
  // whether any word changed when kTrackChange.
  template <bool kTrackChange>
  bool Pass(std::size_t begin, std::size_t end);
  void CountLanes(std::size_t lanes);

  const BatchReachLayout& layout_;
  // kBatchColumns words per rank, padded with zero ranks to a multiple of
  // 16 so the lane counter reads whole blocks.
  std::vector<std::uint64_t> words_;
  std::vector<Patch> patch_;            // all-zero between batches
  std::vector<std::uint32_t> touched_;  // ranks whose patch a batch set
  std::array<std::array<std::uint32_t, kBatchLanes>, kBatchColumns> counts_{};
};

}  // namespace flatnet

#endif  // FLATNET_BGP_BATCH_REACH_H_
