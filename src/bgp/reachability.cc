#include "bgp/reachability.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/error.h"

namespace flatnet {
namespace {

// Compute() runs tens of thousands of times per sweep; instrumentation is
// two relaxed increments per call, flushed after the BFS finishes.
struct ReachabilityCounters {
  obs::Counter& computes = obs::GetCounter("reachability.computes");
  obs::Counter& nodes_reached = obs::GetCounter("reachability.nodes_reached");
};

ReachabilityCounters& Counters() {
  static ReachabilityCounters counters;
  return counters;
}

// How many frontier slots ahead the adjacency walk prefetches. The CSR
// slice of a frontier node is a dependent load (offset array, then the id
// array); issuing it a few nodes early hides the miss on graphs that spill
// out of cache.
constexpr std::size_t kPrefetchAhead = 4;

// True when `node`–`nb` is one of the failed links. Only called for nodes
// whose endpoint bit is set, which keeps the scan off the common path.
bool LinkFailed(std::span<const AsLink> failed, AsId node, AsId nb) {
  for (const AsLink& link : failed) {
    if ((link.a == node && link.b == nb) || (link.a == nb && link.b == node)) return true;
  }
  return false;
}

}  // namespace

ReachabilityEngine::ReachabilityEngine(const AsGraph& graph)
    : graph_(graph), stamps_(graph.num_ases()), link_endpoint_(graph.num_ases()) {
  // The queue holds every reached node exactly once, so n slots is the
  // worst case; sizing it up front keeps the BFS free of growth checks
  // (the inner loops write through a raw cursor).
  std::size_t n = graph.num_ases();
  queue_.resize(n);
  for (AsId node = 0; node < n; ++node) {
    if (!graph.ProviderIds(node).empty()) downable_.push_back(node);
  }
  candidates_.resize(downable_.size());
}

template <bool kFilterLinks>
std::size_t ReachabilityEngine::RunBfs(AsId origin, const Bitset* excluded,
                                       std::span<const AsLink> failed, Bitset* reached) {
  std::size_t n = graph_.num_ases();
  if (origin >= n) throw InvalidArgument("ReachabilityEngine: origin out of range");
  if constexpr (kFilterLinks) {
    for (const AsLink& link : failed) {
      if (link.a >= n || link.b >= n) {
        throw InvalidArgument("ReachabilityEngine: failed link endpoint out of range");
      }
    }
  }
  if (excluded != nullptr && excluded->Test(origin)) {
    if (reached != nullptr) reached->ResetAll();
    return 0;
  }
  if constexpr (kFilterLinks) {
    for (const AsLink& link : failed) {
      link_endpoint_.Set(link.a);
      link_endpoint_.Set(link.b);
    }
  }

  // NextEpoch carries the wraparound guard: 2^32 sweeps later the counter
  // would return to 0 — the value every untouched stamp still holds — and
  // the BFS would silently truncate; the guard clears the array instead.
  stamps_.NextEpoch();
  const std::uint32_t cur = stamps_.epoch();
  std::uint32_t* stamp = stamps_.data();

  // Fold the exclusion mask into the stamps (word-level ctz iteration):
  // excluded nodes look already-visited, so the per-edge loops below need
  // no exclusion test at all. They never enter the queue, so they are
  // counted nowhere and forward nothing.
  if (excluded != nullptr) {
    excluded->ForEachSet([&](std::size_t id) { stamp[id] = cur; });
  }

  AsId* q = queue_.data();
  std::size_t tail = 0;
  stamp[origin] = cur;
  q[tail++] = origin;

  // Stage 1: "up" state — ASes holding a customer-learned route. These form
  // the set reachable from the origin by provider edges only; each can
  // export to every neighbor. The origin behaves like an up-state node (it
  // exports its own prefix everywhere).
  //
  // Every edge-crossing loop below reads the endpoint bit once per node;
  // in the unfiltered instantiation `endpoint` is the constant false and
  // the failed-link test folds away.
  for (std::size_t head = 0; head < tail; ++head) {
    AsId node = q[head];
    if (head + kPrefetchAhead < tail) {
      __builtin_prefetch(graph_.ProviderIds(q[head + kPrefetchAhead]).data());
    }
    const bool endpoint = kFilterLinks && link_endpoint_.Test(node);
    for (AsId nb : graph_.ProviderIds(node)) {
      if (stamp[nb] != cur && !(endpoint && LinkFailed(failed, node, nb))) {
        stamp[nb] = cur;
        q[tail++] = nb;
      }
    }
  }

  // Stage 2: one lateral peer step off any up-state node, then strictly
  // downward through customer edges. Seed the down queue with peers and
  // customers of every up-state node.
  std::size_t up_count = tail;
  for (std::size_t head = 0; head < up_count; ++head) {
    AsId node = q[head];
    const bool endpoint = kFilterLinks && link_endpoint_.Test(node);
    for (AsId nb : graph_.PeerIds(node)) {
      if (stamp[nb] != cur && !(endpoint && LinkFailed(failed, node, nb))) {
        stamp[nb] = cur;
        q[tail++] = nb;
      }
    }
    for (AsId nb : graph_.CustomerIds(node)) {
      if (stamp[nb] != cur && !(endpoint && LinkFailed(failed, node, nb))) {
        stamp[nb] = cur;
        q[tail++] = nb;
      }
    }
  }
  // Stage 3: the customer-edge closure of the seed set. Two strategies
  // computing the identical set:
  //   top-down — pop frontier nodes, push unvisited customers. O(reach)
  //     edge work, but every pop chases node bounds in random order.
  //   bottom-up — still-unvisited nodes probe their providers for a
  //     visited one, in id order, with the survivor list compacted every
  //     round. Sequential scans with independent loads win when most of
  //     the graph is about to be reached (the common no-exclusion case).
  // An exclusion mask forces top-down: excluded nodes carry the current
  // stamp (folded above), so a bottom-up provider probe could not tell
  // them from genuinely reached nodes — and excluded reach is small, which
  // is the regime where top-down is the right choice anyway.
  if (excluded == nullptr && tail >= n / 16) {
    // Round 1 runs straight over the static provider-owning list (id
    // order: the slice walk is sequential, so the hardware prefetcher does
    // the work); survivors compact into candidates_ for later rounds.
    AsId* cand = candidates_.data();
    auto probe = [&](AsId node, std::size_t& write) {
      const bool endpoint = kFilterLinks && link_endpoint_.Test(node);
      for (AsId p : graph_.ProviderIds(node)) {
        if (stamp[p] == cur && !(endpoint && LinkFailed(failed, node, p))) {
          stamp[node] = cur;
          q[tail++] = node;
          return;
        }
      }
      cand[write++] = node;
    };
    std::size_t cand_count = 0;
    std::size_t tail_before = tail;
    for (AsId node : downable_) {
      if (stamp[node] != cur) probe(node, cand_count);
    }
    while (tail != tail_before && cand_count != 0) {
      tail_before = tail;
      std::size_t write = 0;
      for (std::size_t i = 0; i < cand_count; ++i) probe(cand[i], write);
      cand_count = write;
    }
  } else {
    for (std::size_t head = up_count; head < tail; ++head) {
      AsId node = q[head];
      if (head + kPrefetchAhead < tail) {
        __builtin_prefetch(graph_.CustomerIds(q[head + kPrefetchAhead]).data());
      }
      const bool endpoint = kFilterLinks && link_endpoint_.Test(node);
      for (AsId nb : graph_.CustomerIds(node)) {
        if (stamp[nb] != cur && !(endpoint && LinkFailed(failed, node, nb))) {
          stamp[nb] = cur;
          q[tail++] = nb;
        }
      }
    }
  }
  if constexpr (kFilterLinks) {
    for (const AsLink& link : failed) {
      link_endpoint_.Reset(link.a);
      link_endpoint_.Reset(link.b);
    }
  }

  Counters().computes.Increment();
  // Destinations only, matching Count(): the queue holds every reached node
  // exactly once, origin included.
  Counters().nodes_reached.Increment(tail - 1);

  if (reached != nullptr) {
    if (tail >= n / 8) {
      // Dense reach (the common case: most origins reach most of the
      // graph): rebuild every output word from the stamps in one
      // sequential pass, masking excluded nodes back out word-at-a-time.
      std::size_t words = reached->num_words();
      for (std::size_t w = 0; w < words; ++w) {
        std::size_t base = w * 64;
        std::size_t limit = std::min<std::size_t>(64, n - base);
        std::uint64_t bits = 0;
        for (std::size_t b = 0; b < limit; ++b) {
          bits |= static_cast<std::uint64_t>(stamp[base + b] == cur) << b;
        }
        if (excluded != nullptr) bits &= ~excluded->Word(w);
        reached->StoreWord(w, bits);
      }
    } else {
      // Sparse reach: scattering the queue beats scanning all n stamps.
      reached->ResetAll();
      for (std::size_t i = 0; i < tail; ++i) reached->Set(q[i]);
    }
  }
  return tail;
}

std::size_t ReachabilityEngine::Run(AsId origin, const Bitset* excluded,
                                    std::span<const AsLink> failed, Bitset* reached) {
  return failed.empty() ? RunBfs<false>(origin, excluded, failed, reached)
                        : RunBfs<true>(origin, excluded, failed, reached);
}

Bitset ReachabilityEngine::Compute(AsId origin, const Bitset* excluded) {
  Bitset reached(graph_.num_ases());
  Run(origin, excluded, {}, &reached);
  return reached;
}

void ReachabilityEngine::ComputeInto(AsId origin, const Bitset* excluded, Bitset& reached) {
  ComputeInto(origin, excluded, {}, reached);
}

void ReachabilityEngine::ComputeInto(AsId origin, const Bitset* excluded,
                                     std::span<const AsLink> failed, Bitset& reached) {
  if (reached.size() != graph_.num_ases()) {
    reached.Resize(graph_.num_ases());
  }
  // No clear needed: RunBfs overwrites the full set.
  Run(origin, excluded, failed, &reached);
}

std::size_t ReachabilityEngine::Count(AsId origin, const Bitset* excluded,
                                      std::span<const AsLink> failed) {
  std::size_t reached = Run(origin, excluded, failed, nullptr);
  return reached > 0 ? reached - 1 : 0;  // exclude the origin itself
}

Bitset ReachableSet(const AsGraph& graph, AsId origin, const Bitset* excluded) {
  ReachabilityEngine engine(graph);
  return engine.Compute(origin, excluded);
}

std::size_t ReachableCount(const AsGraph& graph, AsId origin, const Bitset* excluded) {
  ReachabilityEngine engine(graph);
  return engine.Count(origin, excluded);
}

}  // namespace flatnet
