// Regression and property tests for the hot propagation kernels: the
// epoch-stamped BFS in ReachabilityEngine (unfiltered and link-filtered)
// and the SoA route state in RouteComputation, plus the once-per-Internet
// topology fingerprint. These pin the behaviours the speed passes are
// allowed to change only bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <initializer_list>
#include <span>
#include <tuple>
#include <vector>

#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "core/fingerprint.h"
#include "core/graph_store.h"
#include "core/internet.h"
#include "topogen/generate.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace flatnet {
namespace {

World MakeWorld(std::uint32_t ases, std::uint64_t seed) {
  GeneratorParams params = GeneratorParams::Era2020(ases);
  params.seed = seed;
  return GenerateWorld(params);
}

bool SameLink(const AsLink& x, AsId a, AsId b) {
  return (x.a == a && x.b == b) || (x.a == b && x.b == a);
}

// The reference the link filter must reproduce: `graph` rebuilt through
// AsGraphBuilder without the failed links. ASes are re-added in id order,
// so ids carry over and reach sets compare directly.
AsGraph WithoutLinks(const AsGraph& graph, std::span<const AsLink> failed) {
  AsGraphBuilder builder;
  for (AsId id = 0; id < graph.num_ases(); ++id) builder.AddAs(graph.AsnOf(id));
  for (const AsGraph::Edge& edge : graph.EdgeList()) {
    AsId a = *graph.IdOf(edge.a);
    AsId b = *graph.IdOf(edge.b);
    bool cut = std::any_of(failed.begin(), failed.end(),
                           [&](const AsLink& link) { return SameLink(link, a, b); });
    if (!cut) builder.AddEdge(edge.a, edge.b, edge.type);
  }
  return std::move(builder).Build();
}

// Builds a graph over ids [0, n) (ASN = id + 100) from (provider-or-peer,
// customer-or-peer, type) triples. Unlisted ids are isolated ASes.
AsGraph Handmade(AsId n, std::initializer_list<std::tuple<AsId, AsId, EdgeType>> edges) {
  AsGraphBuilder builder;
  for (AsId id = 0; id < n; ++id) builder.AddAs(id + 100);
  for (const auto& [a, b, type] : edges) builder.AddEdge(a + 100, b + 100, type);
  return std::move(builder).Build();
}

// Checks Count and ComputeInto with `failed` against `expected` and
// against a fresh engine on the rebuilt subgraph.
void ExpectFilteredReach(const AsGraph& graph, AsId origin, std::span<const AsLink> failed,
                         const std::vector<AsId>& expected) {
  Bitset want(graph.num_ases());
  for (AsId id : expected) want.Set(id);
  AsGraph sub = WithoutLinks(graph, failed);
  ASSERT_EQ(ReachabilityEngine(sub).Compute(origin), want);

  ReachabilityEngine engine(graph);
  Bitset got;
  engine.ComputeInto(origin, nullptr, failed, got);
  EXPECT_EQ(got, want);
  EXPECT_EQ(engine.Count(origin, nullptr, failed), expected.size() - 1);
}

// The visited stamps are 32-bit epochs. After 2^32 RunBfs calls the counter
// wraps to 0 — exactly the value every stamp starts at (and the value any
// node untouched since the last wrap still holds), so without the wrap
// reset the whole graph looks already-visited and the BFS silently
// truncates to the origin alone. The test forces the counter to the wrap
// boundary on an engine whose stamps still hold stale values and checks
// every post-wrap sweep against a fresh engine bit for bit (reverting the
// `++epoch_ == 0` reset in RunBfs fails this immediately).
TEST(ReachabilityEpochWrap, SweepAfterWrapMatchesFreshEngine) {
  World world = MakeWorld(600, 7);
  const AsGraph& graph = world.full_graph;
  ReachabilityEngine fresh(graph);
  ReachabilityEngine wrapped(graph);
  wrapped.SetEpochForTesting(0xffffffffu);
  for (AsId origin = 0; origin < 64; ++origin) {
    SCOPED_TRACE(origin);
    EXPECT_EQ(wrapped.Compute(origin), fresh.Compute(origin));
    EXPECT_EQ(wrapped.Count(origin), fresh.Count(origin));
  }
}

// Recompute() promises results identical to fresh construction while
// reusing allocations; after the SoA refactor the reset runs through one
// audited helper, and this test is the guard a forgotten new field fails.
TEST(RouteComputationReset, RecomputeEqualsFreshConstruction) {
  World world = MakeWorld(800, 11);
  const AsGraph& graph = world.full_graph;
  Rng rng(13);
  AnnouncementSource first{.node = static_cast<AsId>(rng.UniformU64(graph.num_ases()))};
  RouteComputation reused(graph, {first});
  for (int trial = 0; trial < 8; ++trial) {
    AnnouncementSource victim{.node = static_cast<AsId>(rng.UniformU64(graph.num_ases()))};
    AnnouncementSource leaker{.node = static_cast<AsId>(rng.UniformU64(graph.num_ases())),
                              .base_length = 3};
    std::vector<AnnouncementSource> sources = {victim};
    if (leaker.node != victim.node && trial % 2 == 0) sources.push_back(leaker);
    reused.Recompute(sources);
    RouteComputation scratch(graph, sources);
    ASSERT_EQ(reused.ReachedCount(), scratch.ReachedCount());
    ASSERT_EQ(reused.ReachedSet(), scratch.ReachedSet());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      ASSERT_EQ(reused.CountFromSource(i), scratch.CountFromSource(i));
    }
    for (AsId node = 0; node < graph.num_ases(); ++node) {
      RouteEntry a = reused.Route(node);
      RouteEntry b = scratch.Route(node);
      ASSERT_EQ(a.cls, b.cls) << "node " << node;
      ASSERT_EQ(a.length, b.length) << "node " << node;
      ASSERT_EQ(a.source_mask, b.source_mask) << "node " << node;
      std::span<const AsId> ap = reused.Predecessors(node);
      std::span<const AsId> bp = scratch.Predecessors(node);
      ASSERT_TRUE(std::equal(ap.begin(), ap.end(), bp.begin(), bp.end())) << "node " << node;
    }
  }
}

// ComputeInto/Count reuse engine scratch (stamps, queue, bottom-up
// candidate lists) and pick different code paths by reach density; whatever
// path they take, the results must stay bit-identical to a fresh
// Compute(). Random origins and random exclusion masks of varying density
// exercise the dense word-pack, the sparse scatter, and both the top-down
// and bottom-up stage-3 strategies at several graph sizes.
TEST(ReachabilityProperty, ReusedEngineMatchesFreshAcrossRandomMasks) {
  for (std::uint32_t ases : {220u, 900u, 2500u}) {
    World world = MakeWorld(ases, 17 + ases);
    const AsGraph& graph = world.full_graph;
    std::size_t n = graph.num_ases();
    ReachabilityEngine reused(graph);
    Bitset into(n);
    Rng rng(23 + ases);
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(trial);
      AsId origin = static_cast<AsId>(rng.UniformU64(n));
      const Bitset* excluded = nullptr;
      Bitset mask(n);
      if (trial % 3 != 0) {
        // Densities from a handful of nodes up to half the graph.
        std::size_t excluded_count = 1 + rng.UniformU64(trial % 2 ? n / 2 : 8);
        for (std::size_t i = 0; i < excluded_count; ++i) {
          mask.Set(rng.UniformU64(n));
        }
        excluded = &mask;
      }
      ReachabilityEngine fresh(graph);
      Bitset expected = fresh.Compute(origin, excluded);
      reused.ComputeInto(origin, excluded, into);
      ASSERT_EQ(into, expected);
      ASSERT_EQ(reused.Compute(origin, excluded), expected);
      std::size_t count = expected.Count();
      ASSERT_EQ(reused.Count(origin, excluded), count > 0 ? count - 1 : 0);
    }
  }
}

// The link-filtered BFS must equal a fresh engine on the graph rebuilt
// without the failed links: random origins, 1–4 links per trial mixing
// p2c and p2p links and links at the origin, sometimes combined with an
// exclusion mask. One engine serves every trial, so endpoint bits leaking
// from one call into the next also fail here — including into the
// unfiltered call after each filtered one.
TEST(ReachabilityLinkFilter, MatchesRebuiltSubgraph) {
  for (std::uint32_t ases : {220u, 900u, 2500u}) {
    World world = MakeWorld(ases, 31 + ases);
    const AsGraph& graph = world.full_graph;
    std::size_t n = graph.num_ases();
    std::vector<AsLink> p2c;
    std::vector<AsLink> p2p;
    for (AsId id = 0; id < n; ++id) {
      for (AsId c : graph.CustomerIds(id)) p2c.push_back({id, c});
      for (AsId p : graph.PeerIds(id)) {
        if (id < p) p2p.push_back({p, id});  // reversed: orientation must not matter
      }
    }
    ASSERT_FALSE(p2c.empty());
    ASSERT_FALSE(p2p.empty());
    ReachabilityEngine reused(graph);
    ReachabilityEngine intact(graph);
    Bitset into(n);
    Rng rng(41 + ases);
    std::size_t damaging = 0;
    for (int trial = 0; trial < 48; ++trial) {
      SCOPED_TRACE(trial);
      AsId origin = static_cast<AsId>(rng.UniformU64(n));
      std::size_t severity = 1 + trial % 4;
      std::vector<AsLink> failed;
      while (failed.size() < severity) {
        AsLink link;
        std::span<const Neighbor> at_origin = graph.NeighborsOf(origin);
        std::uint64_t kind = rng.UniformU64(3);
        if (kind == 0 && !at_origin.empty()) {
          link = {origin, at_origin[rng.UniformU64(at_origin.size())].id};
        } else if (kind == 1) {
          link = p2p[rng.UniformU64(p2p.size())];
        } else {
          link = p2c[rng.UniformU64(p2c.size())];
        }
        bool duplicate = std::any_of(failed.begin(), failed.end(), [&](const AsLink& f) {
          return SameLink(f, link.a, link.b);
        });
        if (!duplicate) failed.push_back(link);
      }
      Bitset mask(n);
      const Bitset* excluded = nullptr;
      if (trial % 5 == 4) {
        for (int i = 0; i < 6; ++i) mask.Set(rng.UniformU64(n));
        mask.Reset(origin);
        excluded = &mask;
      }

      AsGraph sub = WithoutLinks(graph, failed);
      ASSERT_EQ(sub.num_edges(), graph.num_edges() - severity);
      Bitset expected = ReachabilityEngine(sub).Compute(origin, excluded);
      reused.ComputeInto(origin, excluded, failed, into);
      ASSERT_EQ(into, expected);
      std::size_t count = expected.Count();
      ASSERT_EQ(reused.Count(origin, excluded, failed), count > 0 ? count - 1 : 0);
      ASSERT_EQ(reused.Count(origin, excluded), intact.Count(origin, excluded));
      if (count - 1 < intact.Count(origin, excluded)) ++damaging;
    }
    // Enough trials must actually cut reach for the comparison to bite.
    EXPECT_GT(damaging, 0u) << ases << " ASes";
  }
}

// Sparse reach in a padded graph forces the top-down stage 3. The four
// failed links sit at three of the four traversal sites: the origin's
// provider (stage-1 climb), its peer and its customer (stage-2 seed), and
// the reached peer's customer (stage-3 push). Dropping the filter at any
// of those sites reaches a node across a failed link.
TEST(ReachabilityLinkFilter, SparseTopDownHonoursEveryFailedLink) {
  // 0 origin; 1 its provider; 2 and 3 its peers; 4 customer of 3;
  // 5 customer of 0; ids 6..199 isolated padding.
  AsGraph graph = Handmade(200, {{1, 0, EdgeType::kP2C},
                                 {0, 2, EdgeType::kP2P},
                                 {0, 3, EdgeType::kP2P},
                                 {3, 4, EdgeType::kP2C},
                                 {0, 5, EdgeType::kP2C}});
  ExpectFilteredReach(graph, 0, {}, {0, 1, 2, 3, 4, 5});
  std::vector<AsLink> failed = {{0, 1}, {2, 0}, {0, 5}, {3, 4}};
  ExpectFilteredReach(graph, 0, failed, {0, 3});
}

// A dense graph (every node has a provider chain back to the origin's
// neighborhood) forces the bottom-up stage 3. Node 3's only reached
// provider is across the failed link 2–3 — its other provider 4 is never
// reached — so only the bottom-up probe's filter keeps it out. The origin's
// provider, peer, and customer links fail too, covering stages 1 and 2.
TEST(ReachabilityLinkFilter, DenseBottomUpHonoursEveryFailedLink) {
  // 0 origin; 2 its customer; 3 customer of 2 and of 4 (4 unreached);
  // 1 provider of 0; 5 peer of 0; 6 customer of 0.
  AsGraph graph = Handmade(7, {{0, 2, EdgeType::kP2C},
                               {2, 3, EdgeType::kP2C},
                               {4, 3, EdgeType::kP2C},
                               {1, 0, EdgeType::kP2C},
                               {0, 5, EdgeType::kP2P},
                               {0, 6, EdgeType::kP2C}});
  ExpectFilteredReach(graph, 0, {}, {0, 1, 2, 3, 5, 6});
  ExpectFilteredReach(graph, 0, std::vector<AsLink>{{3, 2}}, {0, 1, 2, 5, 6});
  std::vector<AsLink> failed = {{2, 3}, {1, 0}, {0, 5}, {6, 0}};
  ExpectFilteredReach(graph, 0, failed, {0, 2});
}

// Internet::fingerprint() is hashed once at construction; it must equal a
// from-scratch HashTopology for a built Internet, its copy, the same
// topology reloaded from a `.graph` store, and a default-constructed one.
TEST(TopologyFingerprint, StoredValueMatchesFromScratchHash) {
  World world = MakeWorld(300, 5);
  Internet built(world.full_graph, world.tiers, world.metadata);
  EXPECT_EQ(built.fingerprint(), HashTopology(built.graph(), built.tiers()));

  Internet copy = built;
  EXPECT_EQ(copy.fingerprint(), HashTopology(copy.graph(), copy.tiers()));
  EXPECT_EQ(copy.fingerprint(), built.fingerprint());

  std::string path =
      (std::filesystem::temp_directory_path() / "flatnet_kernel_fingerprint.graph").string();
  SaveInternetBinary(built, path);
  Internet loaded = LoadInternetBinary(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.fingerprint(), HashTopology(loaded.graph(), loaded.tiers()));
  EXPECT_EQ(loaded.fingerprint(), built.fingerprint());

  Internet empty;
  EXPECT_EQ(empty.fingerprint(), HashTopology(empty.graph(), empty.tiers()));
  EXPECT_NE(empty.fingerprint(), built.fingerprint());
}

}  // namespace
}  // namespace flatnet
