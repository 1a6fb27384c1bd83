// End-to-end integration: the full §4-§8 pipeline on a small world, plus
// cross-module invariants that only hold when every layer cooperates.
#include <gtest/gtest.h>

#include "core/reachability_analysis.h"
#include "core/leak_scenarios.h"
#include "core/study.h"
#include "measure/validation.h"
#include "pops/pop_map.h"
#include "pops/rdns.h"
#include "sweep/engine.h"

namespace flatnet {
namespace {

class StudyIntegrationTest : public ::testing::Test {
 protected:
  static const Study& study() {
    static const Study s = [] {
      StudyOptions options;
      options.generator = GeneratorParams::Era2020(1500);
      options.generator.seed = 1234;
      options.campaign.seed = 99;
      return Study(options);
    }();
    return s;
  }
};

TEST_F(StudyIntegrationTest, MergedGraphSharesIdSpace) {
  const Internet& merged = study().internet();
  const World& w = study().world();
  ASSERT_EQ(merged.num_ases(), w.num_ases());
  for (AsId id = 0; id < w.num_ases(); id += 131) {
    EXPECT_EQ(merged.graph().AsnOf(id), w.full_graph.AsnOf(id));
  }
}

TEST_F(StudyIntegrationTest, MergedGraphBetweenBgpAndTruth) {
  const World& w = study().world();
  const AsGraph& merged = study().internet().graph();
  for (const CloudInstance& cloud : w.clouds) {
    if (cloud.archetype.vm_locations == 0) continue;
    std::size_t bgp = w.bgp_graph.PeerCount(cloud.id);
    std::size_t merged_peers = merged.PeerCount(cloud.id);
    EXPECT_GT(merged_peers, bgp) << cloud.archetype.name;
  }
  // Non-cloud edges are untouched: merged edge count == bgp edges + added
  // cloud p2p links.
  EXPECT_GE(merged.num_edges(), w.bgp_graph.num_edges());
}

TEST_F(StudyIntegrationTest, MergeNeverOverridesExistingLinkTypes) {
  const World& w = study().world();
  const AsGraph& merged = study().internet().graph();
  for (const AsGraph::Edge& e : w.bgp_graph.EdgeList()) {
    auto a = *merged.IdOf(e.a);
    auto b = *merged.IdOf(e.b);
    auto rel = merged.RelationshipBetween(a, b);
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(*rel == Relationship::kPeer, e.type == EdgeType::kP2P);
  }
}

TEST_F(StudyIntegrationTest, InferredNeighborsMostlyReal) {
  const World& w = study().world();
  for (std::uint32_t c = 0; c < w.clouds.size(); ++c) {
    const CloudInstance& cloud = w.clouds[c];
    if (cloud.archetype.vm_locations == 0) continue;
    auto truth = TrueNeighborAsns(w.full_graph, cloud.id);
    ValidationStats stats = ValidateNeighbors(study().inferred_neighbors()[c], truth);
    EXPECT_LT(stats.Fdr(), 0.35) << cloud.archetype.name;
    EXPECT_GT(stats.true_positives, 5u) << cloud.archetype.name;
  }
}

TEST_F(StudyIntegrationTest, MeasuredReachabilityTracksTruth) {
  for (const CloudInstance& cloud : study().world().clouds) {
    if (!cloud.archetype.is_study_cloud || cloud.archetype.vm_locations == 0) continue;
    ReachabilitySummary merged = AnalyzeReachability(study().internet(), cloud.id);
    ReachabilitySummary truth = AnalyzeReachability(study().truth(), cloud.id);
    // The measured topology misses some peers (FNR) but must land in the
    // truth's neighborhood.
    EXPECT_GT(merged.hierarchy_free, truth.hierarchy_free / 2) << cloud.archetype.name;
    EXPECT_LT(merged.hierarchy_free, truth.hierarchy_free * 12 / 10 + 50)
        << cloud.archetype.name;
  }
}

TEST_F(StudyIntegrationTest, CloudsBeatMostNetworksHierarchyFree) {
  // The paper's headline on the measured topology: clouds rank above the
  // overwhelming majority of ASes.
  std::vector<std::uint32_t> sweep = sweep::HierarchyFreeSweep(study().internet());
  AsId google = study().world().Cloud("Google").id;
  std::size_t above = 0;
  for (AsId id = 0; id < sweep.size(); ++id) {
    if (sweep[id] > sweep[google]) ++above;
  }
  EXPECT_LT(above, sweep.size() / 20);
}

TEST_F(StudyIntegrationTest, LeakResilienceBeatsBaselineOnMergedTopology) {
  const Internet& internet = study().internet();
  AsId google = study().world().Cloud("Google").id;
  LeakTrialSeries series =
      RunLeakScenario(internet, google, LeakScenario::kAnnounceAll, 30, 5);
  BaselineResult baseline = AverageResilienceBaseline(internet, 5, 6, 6);
  double mean_google = 0, mean_base = 0;
  for (double f : series.fraction_ases_detoured) mean_google += f;
  mean_google /= static_cast<double>(series.fraction_ases_detoured.size());
  for (double f : baseline.fractions) mean_base += f;
  mean_base /= static_cast<double>(baseline.fractions.size());
  EXPECT_LT(mean_google, mean_base);
}

TEST_F(StudyIntegrationTest, PopsAndRdnsRunOnStudyWorld) {
  auto deployments = BuildDeployments(study().world());
  EXPECT_GE(deployments.size(), 10u);
  RdnsDatabase rdns(study().world(), deployments, 17);
  EXPECT_GT(rdns.entries().size(), 1000u);
  // Extraction works on the generated namespace.
  auto city = ExtractLocationManual(rdns.entries().front().hostname);
  EXPECT_TRUE(city.has_value());
}

}  // namespace
}  // namespace flatnet
