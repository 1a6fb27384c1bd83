// Engine microbenchmarks (google-benchmark): the per-operation costs that
// determine how far the experiment harness scales — valley-free BFS, the
// full best-route computation, reliance accumulation, leak trials, cone
// computation, and prefix-trie lookups.
#include <benchmark/benchmark.h>

#include <array>
#include <filesystem>
#include <memory>
#include <numeric>

#include "asgraph/cone.h"
#include "bgp/batch_reach.h"
#include "bgp/leak.h"
#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "bgp/reliance.h"
#include "core/graph_store.h"
#include "core/internet.h"
#include "core/serialize.h"
#include "net/prefix_trie.h"
#include "serve/dispatcher.h"
#include "sweep/engine.h"
#include "topogen/generate.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flatnet {
namespace {

const World& BenchWorld() {
  static const World world = [] {
    GeneratorParams params = GeneratorParams::Era2020(4000);
    return GenerateWorld(params);
  }();
  return world;
}

const Internet& BenchInternet() {
  static const Internet internet = [] {
    const World& world = BenchWorld();
    return Internet(world.full_graph, world.tiers, world.metadata);
  }();
  return internet;
}

void BM_ReachabilityBfs(benchmark::State& state) {
  const World& world = BenchWorld();
  ReachabilityEngine engine(world.full_graph);
  Rng rng(1);
  for (auto _ : state) {
    AsId origin = static_cast<AsId>(rng.UniformU64(world.num_ases()));
    benchmark::DoNotOptimize(engine.Count(origin));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReachabilityBfs);

void BM_ReachabilityHierarchyFree(benchmark::State& state) {
  const World& world = BenchWorld();
  ReachabilityEngine engine(world.full_graph);
  Bitset mask = world.tiers.HierarchyMask();
  Rng rng(2);
  for (auto _ : state) {
    AsId origin = static_cast<AsId>(rng.UniformU64(world.num_ases()));
    if (mask.Test(origin)) continue;
    benchmark::DoNotOptimize(engine.Count(origin, &mask));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReachabilityHierarchyFree);

// Reuse-path delta: the three ways to consume a BFS. Compute allocates a
// fresh bitset per origin; ComputeInto recycles one caller-owned bitset;
// Count never materializes the set at all.
void BM_ReachabilityComputeAlloc(benchmark::State& state) {
  const World& world = BenchWorld();
  ReachabilityEngine engine(world.full_graph);
  Rng rng(6);
  for (auto _ : state) {
    AsId origin = static_cast<AsId>(rng.UniformU64(world.num_ases()));
    Bitset reached = engine.Compute(origin);
    benchmark::DoNotOptimize(reached.Count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReachabilityComputeAlloc);

void BM_ReachabilityComputeReuse(benchmark::State& state) {
  const World& world = BenchWorld();
  ReachabilityEngine engine(world.full_graph);
  Bitset reached;
  Rng rng(6);
  for (auto _ : state) {
    AsId origin = static_cast<AsId>(rng.UniformU64(world.num_ases()));
    engine.ComputeInto(origin, nullptr, reached);
    benchmark::DoNotOptimize(reached.Count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReachabilityComputeReuse);

void BM_ReachabilityCountOnly(benchmark::State& state) {
  const World& world = BenchWorld();
  ReachabilityEngine engine(world.full_graph);
  Rng rng(6);
  for (auto _ : state) {
    AsId origin = static_cast<AsId>(rng.UniformU64(world.num_ases()));
    benchmark::DoNotOptimize(engine.Count(origin));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReachabilityCountOnly);

// One link_set failure trial: a count with two random failed links on the
// intact graph (the failsim default severity). Its distance above
// BM_ReachabilityCountOnly is the cost of the link filter.
void BM_ReachabilityLinkFailure(benchmark::State& state) {
  const AsGraph& graph = BenchWorld().full_graph;
  std::vector<AsLink> links;
  for (AsId id = 0; id < graph.num_ases(); ++id) {
    for (const Neighbor& nb : graph.NeighborsOf(id)) {
      if (id < nb.id) links.push_back({id, nb.id});
    }
  }
  ReachabilityEngine engine(graph);
  Rng rng(6);
  for (auto _ : state) {
    AsId origin = static_cast<AsId>(rng.UniformU64(graph.num_ases()));
    AsLink failed[2] = {links[rng.UniformU64(links.size())],
                        links[rng.UniformU64(links.size())]};
    benchmark::DoNotOptimize(engine.Count(origin, nullptr, failed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReachabilityLinkFailure);

// One batch of the sweep's bit-parallel kernel: all three reach columns
// for 64 consecutive origins at a random offset. Items are origins, so the
// per-item time is what the sweep pays per origin.
void BM_ReachabilityBatch64(benchmark::State& state) {
  const Internet& internet = BenchInternet();
  const TierSets& tiers = internet.tiers();
  BatchReachLayout layout(internet.graph(), tiers.tier1_mask, tiers.HierarchyMask());
  BatchReachEngine engine(layout);
  std::array<AsId, kBatchLanes> origins{};
  Rng rng(6);
  for (auto _ : state) {
    auto first = static_cast<AsId>(rng.UniformU64(internet.num_ases() - kBatchLanes + 1));
    std::iota(origins.begin(), origins.end(), first);
    engine.Run(origins);
    benchmark::DoNotOptimize(engine.Count(kBatchColumns - 1, kBatchLanes - 1));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatchLanes));
}
BENCHMARK(BM_ReachabilityBatch64);

// All-origins hierarchy-free sweep through the sharded engine; Arg is the
// thread count, so the 1-vs-8 ratio is the parallel speedup.
void BM_HierarchyFreeSweep(benchmark::State& state) {
  const Internet& internet = BenchInternet();
  for (auto _ : state) {
    std::vector<std::uint32_t> reach = sweep::HierarchyFreeSweep(
        internet, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(reach.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(internet.num_ases()));
}
BENCHMARK(BM_HierarchyFreeSweep)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_BestRouteComputation(benchmark::State& state) {
  const World& world = BenchWorld();
  Rng rng(3);
  for (auto _ : state) {
    AnnouncementSource source{.node = static_cast<AsId>(rng.UniformU64(world.num_ases()))};
    RouteComputation computation(world.full_graph, {source});
    benchmark::DoNotOptimize(computation.ReachedCount());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BestRouteComputation);

void BM_Reliance(benchmark::State& state) {
  const World& world = BenchWorld();
  AnnouncementSource source{.node = world.Cloud("Google").id};
  RouteComputation computation(world.full_graph, {source});
  for (auto _ : state) {
    RelianceResult result = ComputeReliance(computation);
    benchmark::DoNotOptimize(result.reliance.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Reliance);

void BM_LeakTrial(benchmark::State& state) {
  const World& world = BenchWorld();
  LeakExperiment experiment(world.full_graph, world.Cloud("Google").id, LeakConfig{});
  Rng rng(4);
  for (auto _ : state) {
    AsId leaker = static_cast<AsId>(rng.UniformU64(world.num_ases()));
    benchmark::DoNotOptimize(experiment.Run(leaker));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeakTrial);

// Fused Bitset kernels: one pass computing the count the caller actually
// wants, versus the materialize-then-Count sequences they replaced in the
// reliance and leak-overlap accumulators.
void BM_BitsetOrCountNew(benchmark::State& state) {
  const World& world = BenchWorld();
  std::size_t n = world.num_ases();
  Rng rng(6);
  Bitset acc(n);
  Bitset delta(n);
  for (std::size_t i = 0; i < n / 3; ++i) acc.Set(rng.UniformU64(n));
  for (std::size_t i = 0; i < n / 3; ++i) delta.Set(rng.UniformU64(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.OrCountNew(delta));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitsetOrCountNew);

void BM_BitsetAndNotCount(benchmark::State& state) {
  const World& world = BenchWorld();
  std::size_t n = world.num_ases();
  Rng rng(7);
  Bitset reach(n);
  Bitset mask(n);
  for (std::size_t i = 0; i < n / 2; ++i) reach.Set(rng.UniformU64(n));
  for (std::size_t i = 0; i < n / 8; ++i) mask.Set(rng.UniformU64(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reach.AndNotCount(mask));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitsetAndNotCount);

void BM_CustomerConeSizes(benchmark::State& state) {
  const World& world = BenchWorld();
  for (auto _ : state) {
    auto sizes = CustomerConeSizes(world.full_graph);
    benchmark::DoNotOptimize(sizes.data());
  }
}
BENCHMARK(BM_CustomerConeSizes);

void BM_PrefixTrieLookup(benchmark::State& state) {
  const World& world = BenchWorld();
  PrefixTrie<AsId> trie;
  for (AsId id = 0; id < world.prefixes.size(); ++id) {
    for (const Ipv4Prefix& prefix : world.prefixes[id]) trie.Insert(prefix, id);
  }
  Rng rng(5);
  for (auto _ : state) {
    Ipv4Address addr(static_cast<std::uint32_t>(rng.NextU64()));
    benchmark::DoNotOptimize(trie.Lookup(addr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixTrieLookup);

// Serve-path dispatch: full parse → cache → execute → encode round trip
// through the dispatcher (no sockets). The Timed variant carries
// `"timing":true`; its delta over the plain case bounds the tracing-on
// cost, and the plain case — run against a dispatcher with tracing off —
// is the number the <2% tracing-off overhead budget is judged on. Origins
// rotate through a small pool so most iterations hit the result cache,
// matching the steady state the overhead question is about.
serve::Dispatcher& BenchDispatcher() {
  static serve::Dispatcher* dispatcher = [] {
    serve::DispatcherOptions options;
    options.threads = 2;
    options.slow_query_ms = 0;  // tracing off: ignore FLATNET_SLOW_QUERY_MS
    return new serve::Dispatcher(BenchInternet(), options);
  }();
  return *dispatcher;
}

void BM_ServeDispatchReach(benchmark::State& state) {
  serve::Dispatcher& dispatcher = BenchDispatcher();
  const Internet& internet = BenchInternet();
  Rng rng(7);
  std::vector<std::string> requests;
  for (std::size_t i = 0; i < 16; ++i) {
    Asn origin = internet.graph().AsnOf(
        static_cast<AsId>(rng.UniformU64(internet.num_ases())));
    requests.push_back(StrFormat(
        "{\"op\":\"reach\",\"origin\":%u,\"mode\":\"hierarchy_free\",\"id\":1}", origin));
  }
  std::size_t at = 0;
  for (auto _ : state) {
    std::string response = dispatcher.HandleSync(requests[at]);
    at = (at + 1) % requests.size();
    benchmark::DoNotOptimize(response.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeDispatchReach);

void BM_ServeDispatchReachTimed(benchmark::State& state) {
  serve::Dispatcher& dispatcher = BenchDispatcher();
  const Internet& internet = BenchInternet();
  Rng rng(7);  // same seed: same origin pool as the untimed case
  std::vector<std::string> requests;
  for (std::size_t i = 0; i < 16; ++i) {
    Asn origin = internet.graph().AsnOf(
        static_cast<AsId>(rng.UniformU64(internet.num_ases())));
    requests.push_back(
        StrFormat("{\"op\":\"reach\",\"origin\":%u,\"mode\":\"hierarchy_free\",\"id\":1,"
                  "\"timing\":true}",
                  origin));
  }
  std::size_t at = 0;
  for (auto _ : state) {
    std::string response = dispatcher.HandleSync(requests[at]);
    at = (at + 1) % requests.size();
    benchmark::DoNotOptimize(response.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeDispatchReachTimed);

void BM_GenerateWorld(benchmark::State& state) {
  for (auto _ : state) {
    GeneratorParams params = GeneratorParams::Era2020(static_cast<std::uint32_t>(state.range(0)));
    World world = GenerateWorld(params);
    benchmark::DoNotOptimize(world.num_ases());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GenerateWorld)->Arg(1000)->Arg(4000)->Complexity(benchmark::oN);

// Binary store scaling: serialize, then serve straight from the mapping.
// Compare BM_GraphStoreLoad against BM_TextLoad at the same AS count — the
// gap is what ROADMAP item 1 buys every tool that opens a topology.
void BM_GraphStoreSave(benchmark::State& state) {
  auto params = GeneratorParams::Era2020(static_cast<std::uint32_t>(state.range(0)));
  World world = GenerateWorld(params);
  Internet internet(std::move(world.full_graph), std::move(world.tiers),
                    std::move(world.metadata));
  std::string path = (std::filesystem::temp_directory_path() /
                      StrFormat("bench_store_%ld.graph", state.range(0)))
                         .string();
  for (auto _ : state) {
    SaveInternetBinary(internet, path);
  }
  state.SetComplexityN(state.range(0));
  std::filesystem::remove(path);
}
BENCHMARK(BM_GraphStoreSave)->Arg(1000)->Arg(4000)->Arg(16000)->Complexity(benchmark::oN);

void BM_GraphStoreLoad(benchmark::State& state) {
  auto params = GeneratorParams::Era2020(static_cast<std::uint32_t>(state.range(0)));
  World world = GenerateWorld(params);
  Internet internet(std::move(world.full_graph), std::move(world.tiers),
                    std::move(world.metadata));
  std::string path = (std::filesystem::temp_directory_path() /
                      StrFormat("bench_load_%ld.graph", state.range(0)))
                         .string();
  SaveInternetBinary(internet, path);
  for (auto _ : state) {
    Internet loaded = LoadInternetBinary(path);
    benchmark::DoNotOptimize(loaded.num_ases());
  }
  state.SetComplexityN(state.range(0));
  std::filesystem::remove(path);
}
BENCHMARK(BM_GraphStoreLoad)->Arg(1000)->Arg(4000)->Arg(16000)->Complexity(benchmark::oN);

void BM_TextLoad(benchmark::State& state) {
  auto params = GeneratorParams::Era2020(static_cast<std::uint32_t>(state.range(0)));
  World world = GenerateWorld(params);
  Internet internet(std::move(world.full_graph), std::move(world.tiers),
                    std::move(world.metadata));
  std::string stem = (std::filesystem::temp_directory_path() /
                      StrFormat("bench_text_%ld", state.range(0)))
                         .string();
  SaveInternet(internet, stem);
  for (auto _ : state) {
    Internet loaded = LoadInternet(stem);
    benchmark::DoNotOptimize(loaded.num_ases());
  }
  state.SetComplexityN(state.range(0));
  std::filesystem::remove(stem + ".as-rel.txt");
  std::filesystem::remove(stem + ".meta.tsv");
}
BENCHMARK(BM_TextLoad)->Arg(1000)->Arg(4000)->Arg(16000)->Complexity(benchmark::oN);

}  // namespace
}  // namespace flatnet

BENCHMARK_MAIN();
