#include "check/diff.h"

#include <algorithm>
#include <vector>

#include "bgp/batch_reach.h"
#include "bgp/event_engine.h"
#include "bgp/paths.h"
#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "check/invariants.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flatnet::check {
namespace {

const char* RouteLabel(const RouteEntry& entry) {
  return entry.HasRoute() ? ToString(entry.cls) : "unreachable";
}

// Draws `want` distinct ids from [0, n), never `origin`, into a Bitset.
Bitset DrawDistinct(Rng& rng, std::size_t n, AsId origin, std::size_t want) {
  Bitset drawn(n);
  std::size_t cap = n > 1 ? n - 1 : 0;
  want = std::min(want, cap);
  std::size_t have = 0;
  while (have < want) {
    auto candidate = static_cast<AsId>(rng.UniformU64(n));
    if (candidate == origin || drawn.Test(candidate)) continue;
    drawn.Set(candidate);
    ++have;
  }
  return drawn;
}

// Every edge of `graph` once, as an AsId pair (provider first for p2c)
// plus its type.
struct TypedLink {
  AsLink link;
  EdgeType type;
};

std::vector<TypedLink> AllLinks(const AsGraph& graph) {
  std::vector<TypedLink> links;
  links.reserve(graph.num_edges());
  for (AsId id = 0; id < graph.num_ases(); ++id) {
    for (AsId c : graph.CustomerIds(id)) links.push_back({{id, c}, EdgeType::kP2C});
    for (AsId p : graph.PeerIds(id)) {
      if (id < p) links.push_back({{id, p}, EdgeType::kP2P});
    }
  }
  return links;
}

// Picks `want` distinct links of `all` by index; about a third of the
// draws take one of the origin's own links, the rest are uniform.
std::vector<std::size_t> DrawLinks(Rng& rng, const std::vector<TypedLink>& all, AsId origin,
                                   std::size_t want) {
  std::vector<std::size_t> at_origin;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].link.a == origin || all[i].link.b == origin) at_origin.push_back(i);
  }
  want = std::min(want, all.size());
  std::vector<std::size_t> drawn;
  while (drawn.size() < want) {
    std::size_t pick = !at_origin.empty() && rng.UniformU64(3) == 0
                           ? at_origin[rng.UniformU64(at_origin.size())]
                           : static_cast<std::size_t>(rng.UniformU64(all.size()));
    if (std::find(drawn.begin(), drawn.end(), pick) == drawn.end()) drawn.push_back(pick);
  }
  return drawn;
}

DiffReport Fail(std::string oracle, std::string detail, const AsGraph& graph,
                AsId node = kInvalidAsId) {
  DiffReport report;
  report.ok = false;
  report.oracle = std::move(oracle);
  report.detail = std::move(detail);
  report.first_mismatch = node;
  if (node != kInvalidAsId) report.first_mismatch_asn = graph.AsnOf(node);
  return report;
}

}  // namespace

const char* ToString(LockSetup setup) {
  switch (setup) {
    case LockSetup::kNone: return "none";
    case LockSetup::kFull: return "full";
    case LockSetup::kDirectOnly: return "direct";
  }
  return "?";
}

std::optional<LockSetup> ParseLockSetup(std::string_view text) {
  if (text == "none") return LockSetup::kNone;
  if (text == "full") return LockSetup::kFull;
  if (text == "direct") return LockSetup::kDirectOnly;
  return std::nullopt;
}

std::string DiffReport::Summary() const {
  if (ok) return "ok";
  std::string where = first_mismatch == kInvalidAsId
                          ? std::string("-")
                          : StrFormat("AS%u (id %u)", first_mismatch_asn, first_mismatch);
  return StrFormat("oracle=%s at %s: %s", oracle.c_str(), where.c_str(), detail.c_str());
}

DiffReport RunDiffCase(const AsGraph& graph, const DiffCaseConfig& config) {
  std::size_t n = graph.num_ases();
  if (n == 0) return Fail("config", "empty graph", graph);
  Rng rng(config.case_seed);
  auto origin = static_cast<AsId>(rng.UniformU64(n));

  Bitset excluded = DrawDistinct(rng, n, origin, config.excluded_count);
  Bitset locked;
  Bitset filtered_senders;
  PropagationOptions options;
  if (config.excluded_count > 0) options.excluded = &excluded;
  if (config.lock != LockSetup::kNone) {
    locked = DrawDistinct(rng, n, origin, config.locked_count);
    options.peer_locked = &locked;
    options.protected_origin = origin;
    options.lock_mode =
        config.lock == LockSetup::kFull ? PeerLockMode::kFull : PeerLockMode::kDirectOnly;
    if (config.lock == LockSetup::kDirectOnly) {
      filtered_senders = DrawDistinct(rng, n, origin, config.filtered_sender_count);
      options.lock_filtered_senders = &filtered_senders;
    }
  }

  std::vector<AnnouncementSource> sources{AnnouncementSource{.node = origin}};
  RouteComputation phase(graph, sources, options);

  if (auto failure = CheckRouteInvariants(phase, sources)) {
    return Fail("invariant", *failure, graph);
  }

  // Oracle 1: the message-passing engine must converge to the phase
  // engine's class and length at every node, and its single selected path
  // must be one of the phase engine's tied-best paths.
  EventBgpEngine event(graph, options);
  event.Originate(origin);
  for (AsId node = 0; node < n; ++node) {
    if (node == origin) continue;
    const std::optional<RibRoute>& event_best = event.BestRoute(node);
    const RouteEntry& phase_best = phase.Route(node);
    if (event_best.has_value() != phase_best.HasRoute()) {
      return Fail("event.reach",
                  StrFormat("phase=%s event=%s", RouteLabel(phase_best),
                            event_best ? ToString(event_best->cls) : "unreachable"),
                  graph, node);
    }
    if (!event_best) continue;
    if (event_best->cls != phase_best.cls) {
      return Fail("event.class",
                  StrFormat("phase=%s event=%s", ToString(phase_best.cls),
                            ToString(event_best->cls)),
                  graph, node);
    }
    if (event_best->Length() != phase_best.length) {
      return Fail("event.length",
                  StrFormat("phase=%u event=%u", static_cast<unsigned>(phase_best.length),
                            static_cast<unsigned>(event_best->Length())),
                  graph, node);
    }
    AsPath full_path{node};
    full_path.insert(full_path.end(), event_best->path.begin(), event_best->path.end());
    if (!IsBestPath(phase, full_path)) {
      return Fail("event.path", "selected path is not in the phase engine's tied-best set",
                  graph, node);
    }
  }
  if (event.ReachedCount() != phase.ReachedCount()) {
    return Fail("event.count",
                StrFormat("phase=%zu event=%zu", phase.ReachedCount(), event.ReachedCount()),
                graph);
  }

  // Oracle 2: the two-state BFS (which cannot model peer locking) must
  // produce exactly the phase engine's reached set.
  if (config.lock == LockSetup::kNone) {
    const Bitset* excluded_ptr = config.excluded_count > 0 ? &excluded : nullptr;
    Bitset bfs = ReachableSet(graph, origin, excluded_ptr);
    Bitset phase_set = phase.ReachedSet();
    if (!(bfs == phase_set)) {
      for (AsId node = 0; node < n; ++node) {
        if (bfs.Test(node) != phase_set.Test(node)) {
          return Fail("reachability.set",
                      StrFormat("phase=%s bfs=%s", phase_set.Test(node) ? "reached" : "not",
                                bfs.Test(node) ? "reached" : "not"),
                      graph, node);
        }
      }
    }
    std::size_t bfs_count = ReachableCount(graph, origin, excluded_ptr);
    if (bfs_count != phase.ReachedCount()) {
      return Fail("reachability.count",
                  StrFormat("phase=%zu bfs=%zu", phase.ReachedCount(), bfs_count), graph);
    }

    // Oracle 3: fail 1–4 random links. The link-filtered BFS on the intact
    // graph must reach exactly what the phase engine reaches on the graph
    // rebuilt without those links. An exclusion mask forces the BFS's
    // top-down stage 3, so half the cases without one draw their own and
    // both stage-3 strategies meet the filter.
    std::vector<TypedLink> all = AllLinks(graph);
    if (!all.empty()) {
      Bitset own_excluded;
      PropagationOptions link_options = options;
      if (excluded_ptr == nullptr && rng.UniformU64(2) == 0) {
        own_excluded = DrawDistinct(rng, n, origin, 1 + rng.UniformU64(n / 8 + 1));
        link_options.excluded = &own_excluded;
      }
      const Bitset* link_excluded = link_options.excluded;
      std::vector<std::size_t> drawn = DrawLinks(rng, all, origin, 1 + rng.UniformU64(4));
      std::vector<AsLink> failed;
      for (std::size_t i : drawn) failed.push_back(all[i].link);
      AsGraphBuilder builder;
      for (AsId id = 0; id < n; ++id) builder.AddAs(graph.AsnOf(id));
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (std::find(drawn.begin(), drawn.end(), i) != drawn.end()) continue;
        builder.AddEdge(graph.AsnOf(all[i].link.a), graph.AsnOf(all[i].link.b), all[i].type);
      }
      AsGraph rebuilt = std::move(builder).Build();
      RouteComputation cut(rebuilt, sources, link_options);
      Bitset cut_set = cut.ReachedSet();
      ReachabilityEngine engine(graph);
      Bitset filtered;
      engine.ComputeInto(origin, link_excluded, failed, filtered);
      std::string links;
      for (const AsLink& link : failed) {
        links += StrFormat(" AS%u-AS%u", graph.AsnOf(link.a), graph.AsnOf(link.b));
      }
      if (!(filtered == cut_set)) {
        for (AsId node = 0; node < n; ++node) {
          if (filtered.Test(node) != cut_set.Test(node)) {
            return Fail("links.set",
                        StrFormat("phase=%s bfs=%s failed:%s",
                                  cut_set.Test(node) ? "reached" : "not",
                                  filtered.Test(node) ? "reached" : "not", links.c_str()),
                        graph, node);
          }
        }
      }
      std::size_t filtered_count = engine.Count(origin, link_excluded, failed);
      if (filtered_count != cut.ReachedCount()) {
        return Fail("links.count",
                    StrFormat("phase=%zu bfs=%zu failed:%s", cut.ReachedCount(),
                              filtered_count, links.c_str()),
                    graph);
      }
    }
  }

  return DiffReport{};
}

DiffReport RunBatchReachCase(const AsGraph& graph, std::uint64_t case_seed) {
  std::size_t n = graph.num_ases();
  if (n == 0) return Fail("config", "empty graph", graph);
  Rng rng(case_seed);
  auto n32 = static_cast<std::uint32_t>(n);
  auto lanes = static_cast<std::uint32_t>(1 + rng.UniformU64(std::min(n, kBatchLanes)));
  std::vector<std::uint32_t> origins = rng.SampleWithoutReplacement(n32, lanes);
  // A small baseline (Tier-1-sized) and a larger one; neither spares any
  // origin, so the kernel's own-origin exemption is exercised too.
  Bitset base1 = DrawDistinct(rng, n, kInvalidAsId, 1 + rng.UniformU64(n / 32 + 1));
  Bitset base2 = DrawDistinct(rng, n, kInvalidAsId, 1 + rng.UniformU64(n / 4 + 1));

  BatchReachLayout layout(graph, base1, base2);
  BatchReachEngine batch(layout);
  batch.Run(origins);
  ReachabilityEngine engine(graph);
  Bitset bfs;
  const Bitset* baselines[kBatchColumns] = {nullptr, &base1, &base2};
  for (std::size_t lane = 0; lane < origins.size(); ++lane) {
    AsId origin = origins[lane];
    for (std::size_t c = 0; c < kBatchColumns; ++c) {
      Bitset mask = baselines[c] != nullptr ? *baselines[c] : Bitset(n);
      for (AsId provider : graph.ProviderIds(origin)) mask.Set(provider);
      mask.Reset(origin);
      engine.ComputeInto(origin, &mask, bfs);
      Bitset lane_set = batch.ReachedSet(c, lane);
      std::string where =
          StrFormat("column %zu lane %zu origin AS%u", c, lane, graph.AsnOf(origin));
      if (!(lane_set == bfs)) {
        for (AsId node = 0; node < n; ++node) {
          if (lane_set.Test(node) != bfs.Test(node)) {
            return Fail("batch.set",
                        StrFormat("%s: bfs=%s batch=%s", where.c_str(),
                                  bfs.Test(node) ? "reached" : "not",
                                  lane_set.Test(node) ? "reached" : "not"),
                        graph, node);
          }
        }
      }
      if (batch.Count(c, lane) != bfs.Count() - 1) {
        return Fail("batch.count",
                    StrFormat("%s: bfs=%zu batch=%u", where.c_str(), bfs.Count() - 1,
                              batch.Count(c, lane)),
                    graph);
      }
    }
  }
  return DiffReport{};
}

}  // namespace flatnet::check
