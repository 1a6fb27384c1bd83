#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/internet.h"
#include "core/leak_scenarios.h"
#include "core/reachability_analysis.h"
#include "core/serialize.h"
#include "bgp/reachability.h"
#include "sweep/engine.h"
#include "topogen/generate.h"
#include "util/error.h"

namespace flatnet {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  static const World& world() {
    static const World w = [] {
      GeneratorParams params = GeneratorParams::Era2020(1500);
      params.seed = 4242;
      return GenerateWorld(params);
    }();
    return w;
  }
  static const Internet& internet() {
    static const Internet net(world().full_graph, world().tiers, world().metadata);
    return net;
  }
};

TEST_F(CoreTest, ExclusionMasksNest) {
  for (AsId origin : {world().Cloud("Google").id, world().tiers.tier1[0],
                      world().tiers.tier2[0], AsId{1400}}) {
    Bitset pf = internet().ProviderFreeExclusion(origin);
    Bitset t1f = internet().Tier1FreeExclusion(origin);
    Bitset hf = internet().HierarchyFreeExclusion(origin);
    EXPECT_TRUE(pf.IsSubsetOf(t1f));
    EXPECT_TRUE(t1f.IsSubsetOf(hf));
    EXPECT_FALSE(hf.Test(origin)) << "origin must never be excluded";
  }
}

TEST_F(CoreTest, ReachabilitySummariesAreMonotone) {
  for (AsId origin : {world().Cloud("Google").id, world().Cloud("Amazon").id,
                      world().tiers.tier2[0]}) {
    ReachabilitySummary summary = AnalyzeReachability(internet(), origin);
    EXPECT_GE(summary.provider_free, summary.tier1_free);
    EXPECT_GE(summary.tier1_free, summary.hierarchy_free);
    EXPECT_GT(summary.hierarchy_free, 0u);
  }
}

TEST_F(CoreTest, Tier1ProviderFreeIsMaximal) {
  // Tier-1s have no providers: provider-free == full reachability.
  AsId t1 = world().tiers.tier1[0];
  ReachabilitySummary summary = AnalyzeReachability(internet(), t1);
  std::size_t full = ReachableCount(internet().graph(), t1);
  EXPECT_EQ(summary.provider_free, full);
}

TEST_F(CoreTest, SweepMatchesSingleOriginAnalysis) {
  std::vector<std::uint32_t> sweep = sweep::HierarchyFreeSweep(internet());
  ASSERT_EQ(sweep.size(), internet().num_ases());
  for (AsId origin : {AsId{0}, world().Cloud("IBM").id, AsId{777}, AsId{1499}}) {
    ReachabilitySummary summary = AnalyzeReachability(internet(), origin);
    EXPECT_EQ(sweep[origin], summary.hierarchy_free) << "origin " << origin;
  }
}

TEST_F(CoreTest, UnreachableSetComplementsReachability) {
  AsId google = world().Cloud("Google").id;
  ReachabilitySummary summary = AnalyzeReachability(internet(), google);
  Bitset unreachable = HierarchyFreeUnreachable(internet(), google);
  EXPECT_EQ(unreachable.Count() + summary.hierarchy_free, internet().num_ases() - 1);
  TypeBreakdown breakdown = BreakdownByType(internet(), unreachable);
  EXPECT_EQ(breakdown.Total(), unreachable.Count());
}

TEST_F(CoreTest, PathLengthsCoverReachableSet) {
  AsId google = world().Cloud("Google").id;
  PathLengthBins bins = PathLengths(internet(), google);
  std::size_t full = ReachableCount(internet().graph(), google);
  EXPECT_DOUBLE_EQ(bins.Total(), static_cast<double>(full));
  // Every 1-hop destination is a direct neighbor — but not every neighbor
  // is 1 hop: Gao-Rexford lets a peer prefer a longer customer-learned
  // route over the direct peering, so one_hop can fall short of the degree.
  EXPECT_LE(bins.one_hop, static_cast<double>(internet().graph().Degree(google)));
  EXPECT_GT(bins.one_hop, 0.8 * static_cast<double>(internet().graph().Degree(google)));

  // Weighted variant: weights of 0 drop ASes from the bins.
  std::vector<double> weights(internet().num_ases(), 0.0);
  weights[world().tiers.tier1[0]] = 2.5;
  PathLengthBins weighted = PathLengths(internet(), google, &weights);
  EXPECT_DOUBLE_EQ(weighted.Total(), 2.5);
}

TEST_F(CoreTest, LeakScenarioSeriesFillTrials) {
  AsId google = world().Cloud("Google").id;
  LeakTrialSeries series =
      RunLeakScenario(internet(), google, LeakScenario::kAnnounceAll, 20, 7);
  EXPECT_EQ(series.fraction_ases_detoured.size(), 20u);
  for (double f : series.fraction_ases_detoured) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  EXPECT_TRUE(series.fraction_users_detoured.empty());  // no users passed

  std::vector<double> users = world().metadata.UserArray();
  LeakTrialSeries weighted =
      RunLeakScenario(internet(), google, LeakScenario::kAnnounceAll, 10, 7, &users);
  EXPECT_EQ(weighted.fraction_users_detoured.size(), 10u);
}

TEST_F(CoreTest, BaselineProducesSamples) {
  BaselineResult baseline = AverageResilienceBaseline(internet(), 4, 5, 3);
  EXPECT_EQ(baseline.fractions.size(), 20u);
  ASSERT_EQ(baseline.per_victim.size(), 4u);
  std::size_t collected = 0;
  for (const BaselineVictimStats& v : baseline.per_victim) {
    EXPECT_EQ(v.requested, 5u);
    EXPECT_GE(v.attempts, v.collected);
    collected += v.collected;
  }
  EXPECT_EQ(collected, baseline.fractions.size());
  // Victims are drawn without replacement: all distinct.
  std::vector<AsId> victims;
  for (const BaselineVictimStats& v : baseline.per_victim) victims.push_back(v.victim);
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(std::unique(victims.begin(), victims.end()), victims.end());
}

TEST_F(CoreTest, SerializeRoundTrip) {
  std::string stem = (std::filesystem::temp_directory_path() / "flatnet_test_cache").string();
  SaveInternet(internet(), stem);
  Internet loaded = LoadInternet(stem);
  EXPECT_EQ(loaded.num_ases(), internet().num_ases());
  EXPECT_EQ(loaded.graph().num_edges(), internet().graph().num_edges());
  EXPECT_EQ(loaded.tiers().tier1.size(), internet().tiers().tier1.size());
  EXPECT_EQ(loaded.tiers().tier2.size(), internet().tiers().tier2.size());

  // Identity is by ASN after a round trip (ids may permute): compare a
  // couple of named rows and a reachability figure.
  AsId google_orig = world().Cloud("Google").id;
  Asn google_asn = internet().graph().AsnOf(google_orig);
  auto google_loaded = loaded.graph().IdOf(google_asn);
  ASSERT_TRUE(google_loaded.has_value());
  EXPECT_EQ(loaded.NameOf(*google_loaded), "Google");
  EXPECT_NEAR(loaded.metadata().Get(*google_loaded).users,
              internet().metadata().Get(google_orig).users, 1e-6);

  ReachabilitySummary before = AnalyzeReachability(internet(), google_orig);
  ReachabilitySummary after = AnalyzeReachability(loaded, *google_loaded);
  EXPECT_EQ(before.provider_free, after.provider_free);
  EXPECT_EQ(before.tier1_free, after.tier1_free);
  EXPECT_EQ(before.hierarchy_free, after.hierarchy_free);

  std::filesystem::remove(stem + ".as-rel.txt");
  std::filesystem::remove(stem + ".meta.tsv");
}

TEST(CoreErrors, MismatchedSizesThrow) {
  AsGraphBuilder builder;
  builder.AddEdge(1, 2, EdgeType::kP2C);
  AsGraph graph = std::move(builder).Build();
  TierSets tiers;  // empty masks of size 0
  EXPECT_THROW(Internet(graph, tiers, AsMetadata(2)), InvalidArgument);
}

TEST(CoreErrors, LoadMissingCacheThrows) {
  EXPECT_THROW(LoadInternet("/nonexistent/stem"), Error);
}

TEST(CoreErrors, MalformedMetaLineNamesFileAndLine) {
  std::string stem =
      (std::filesystem::temp_directory_path() / "flatnet_badmeta_test").string();
  {
    std::ofstream rel(stem + ".as-rel.txt");
    rel << "1|2|-1\n";
    std::ofstream meta(stem + ".meta.tsv");
    meta << "1\tAS1\ttransit\t0\t0\n";
    meta << "2\tAS2\tnot-enough-fields\n";  // line 2: wrong field count
  }
  try {
    LoadInternet(stem);
    FAIL() << "expected malformed metadata to throw";
  } catch (const Error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find(stem + ".meta.tsv:2"), std::string::npos) << what;
  }
  std::filesystem::remove(stem + ".as-rel.txt");
  std::filesystem::remove(stem + ".meta.tsv");
}

}  // namespace
}  // namespace flatnet
