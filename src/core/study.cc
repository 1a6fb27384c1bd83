#include "core/study.h"

namespace flatnet {

StudyOptions EraStudyOptions(bool era2020, std::uint32_t ases, std::uint64_t seed) {
  StudyOptions options;
  options.generator = era2020 ? GeneratorParams::Era2020(ases) : GeneratorParams::Era2015(ases);
  if (seed != 0) options.generator.seed = seed;
  options.campaign.seed = options.generator.seed ^ 0xca3;
  return options;
}

Study::Study(const StudyOptions& options)
    : world_(GenerateWorld(options.generator)),
      plan_(std::make_unique<AddressPlan>(world_, options.generator.seed ^ 0xaddf00d)),
      cymru_(std::make_unique<CymruResolver>(world_)),
      peeringdb_(std::make_unique<PeeringDbResolver>(world_, *plan_, /*record_coverage=*/0.9,
                                                     /*wrong_record_fraction=*/0.07,
                                                     options.generator.seed ^ 0x9db)),
      whois_(std::make_unique<WhoisResolver>(world_, /*stale_fraction=*/0.04,
                                             options.generator.seed ^ 0x3015)),
      campaign_(std::make_unique<TracerouteCampaign>(world_, *plan_, options.campaign)),
      inference_(cymru_.get(), peeringdb_.get(), whois_.get()) {
  inferred_ = InferAtStage(options.stage);

  AsGraph merged = BuildMergedGraph();
  // Tier sets and metadata share the AsId space of the world's graphs.
  internet_ = Internet(std::move(merged), world_.tiers, world_.metadata);
  truth_ = Internet(world_.full_graph, world_.tiers, world_.metadata);
}

std::vector<std::set<Asn>> Study::InferAtStage(MethodologyStage stage) const {
  InferenceRules rules = InferenceRules::ForStage(stage);
  std::vector<std::set<Asn>> result(world_.clouds.size());
  for (std::uint32_t c = 0; c < world_.clouds.size(); ++c) {
    const CloudInstance& cloud = world_.clouds[c];
    if (cloud.archetype.vm_locations == 0) continue;
    result[c] = inference_.InferNeighbors(campaign_->traces(), c, cloud.archetype.asn,
                                          cloud.archetype.vm_locations, rules);
  }
  return result;
}

AsGraph Study::BuildMergedGraph() const {
  AsGraphBuilder builder;
  // Register every AS in id order so the merged graph shares the AsId
  // space of the world's graphs.
  for (AsId id = 0; id < world_.num_ases(); ++id) {
    builder.AddAs(world_.full_graph.AsnOf(id));
  }
  for (const AsGraph::Edge& e : world_.bgp_graph.EdgeList()) {
    builder.AddEdge(e.a, e.b, e.type);
  }
  // §4.1 merge rule: traceroute-discovered neighbors enter as p2p links;
  // when the BGP view already has the link, its type is kept. Inferred
  // ASNs outside the topology (e.g. IXP management ASes captured by an
  // early pipeline stage) cannot be added as nodes meaningfully and are
  // dropped.
  for (std::uint32_t c = 0; c < world_.clouds.size(); ++c) {
    Asn cloud_asn = world_.clouds[c].archetype.asn;
    for (Asn neighbor : inferred_[c]) {
      if (!world_.full_graph.IdOf(neighbor) && !world_.bgp_graph.IdOf(neighbor)) continue;
      builder.AddEdgeIfAbsent(cloud_asn, neighbor, EdgeType::kP2P);
    }
  }
  return std::move(builder).Build();
}

std::vector<CloudPeerCounts> Study::PeerCounts() const {
  std::vector<CloudPeerCounts> counts;
  for (std::uint32_t c = 0; c < world_.clouds.size(); ++c) {
    const CloudInstance& cloud = world_.clouds[c];
    if (!cloud.archetype.is_study_cloud) continue;
    CloudPeerCounts row;
    row.name = cloud.archetype.name;
    row.bgp_only = world_.bgp_graph.PeerCount(cloud.id);
    row.merged = internet_.graph().PeerCount(cloud.id);
    row.ground_truth = world_.full_graph.PeerCount(cloud.id);
    counts.push_back(std::move(row));
  }
  return counts;
}

}  // namespace flatnet
