// The differential oracle and structural invariants from src/check: the
// three propagation implementations must agree on randomized archetype
// topologies under exclusion sets and both peer-lock modes, and the
// invariant checks must accept every healthy computation (and reject
// obviously inconsistent inputs).
#include <gtest/gtest.h>

#include "bgp/leak.h"
#include "bgp/propagation.h"
#include "check/diff.h"
#include "check/invariants.h"
#include "topogen/generate.h"
#include "util/rng.h"

namespace flatnet {
namespace {

class DiffOracleTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  World MakeWorld(std::uint32_t ases, bool era2020 = true) {
    GeneratorParams params =
        era2020 ? GeneratorParams::Era2020(ases) : GeneratorParams::Era2015(ases);
    params.seed = GetParam();
    return GenerateWorld(params);
  }
};

TEST_P(DiffOracleTest, EnginesAgreeOnUnrestrictedGraph) {
  World world = MakeWorld(600);
  for (std::uint64_t c = 0; c < 3; ++c) {
    check::DiffCaseConfig config;
    config.case_seed = GetParam() * 31 + c;
    check::DiffReport report = check::RunDiffCase(world.full_graph, config);
    EXPECT_TRUE(report.ok) << report.Summary();
  }
}

TEST_P(DiffOracleTest, EnginesAgreeWithExcludedSets) {
  World world = MakeWorld(600);
  for (std::size_t excluded : {1u, 25u, 80u}) {
    check::DiffCaseConfig config;
    config.case_seed = GetParam() ^ (0xe0 + excluded);
    config.excluded_count = excluded;
    check::DiffReport report = check::RunDiffCase(world.full_graph, config);
    EXPECT_TRUE(report.ok) << "excluded=" << excluded << ": " << report.Summary();
  }
}

TEST_P(DiffOracleTest, EnginesAgreeUnderBothPeerLockModes) {
  World world = MakeWorld(500);
  for (check::LockSetup lock : {check::LockSetup::kFull, check::LockSetup::kDirectOnly}) {
    for (std::uint64_t c = 0; c < 2; ++c) {
      check::DiffCaseConfig config;
      config.case_seed = GetParam() * 17 + c;
      config.excluded_count = c == 0 ? 0 : 20;
      config.lock = lock;
      config.locked_count = 30;
      config.filtered_sender_count = 2;
      check::DiffReport report = check::RunDiffCase(world.full_graph, config);
      EXPECT_TRUE(report.ok) << "lock=" << check::ToString(lock) << ": " << report.Summary();
    }
  }
}

TEST_P(DiffOracleTest, EnginesAgreeOn2015Era) {
  World world = MakeWorld(500, /*era2020=*/false);
  check::DiffCaseConfig config;
  config.case_seed = GetParam() ^ 0x2015;
  config.excluded_count = 15;
  check::DiffReport report = check::RunDiffCase(world.full_graph, config);
  EXPECT_TRUE(report.ok) << report.Summary();
}

TEST_P(DiffOracleTest, InvariantsHoldForLeakStyleMultiSourceComputations) {
  World world = MakeWorld(600);
  Rng rng(GetParam() ^ 0x1eaf);
  AsId victim = world.Cloud("Google").id;
  for (int trial = 0; trial < 3; ++trial) {
    auto leaker = static_cast<AsId>(rng.UniformU64(world.num_ases()));
    if (leaker == victim) continue;
    std::vector<AnnouncementSource> sources{
        AnnouncementSource{.node = victim},
        AnnouncementSource{.node = leaker, .base_length = 3},
    };
    RouteComputation computation(world.full_graph, sources);
    auto failure = check::CheckRouteInvariants(computation, sources);
    EXPECT_FALSE(failure.has_value()) << *failure;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffOracleTest, ::testing::Values(7, 41, 1009));

TEST(CheckInvariants, AcceptHandBuiltTopology) {
  // Fig-1-style: origin 1 with provider 2, 2 peers 3, 3's customer 4.
  AsGraphBuilder builder;
  builder.AddEdge(2, 1, EdgeType::kP2C);
  builder.AddEdge(2, 3, EdgeType::kP2P);
  builder.AddEdge(3, 4, EdgeType::kP2C);
  AsGraph graph = std::move(builder).Build();
  std::vector<AnnouncementSource> sources{AnnouncementSource{.node = *graph.IdOf(1)}};
  RouteComputation computation(graph, sources);
  EXPECT_FALSE(check::CheckValleyFreeDag(computation).has_value());
  EXPECT_FALSE(check::CheckOrderByLength(computation).has_value());
  EXPECT_FALSE(check::CheckSourceMasks(computation, sources).has_value());
  EXPECT_FALSE(check::CheckRelianceConservation(computation).has_value());
}

TEST(CheckInvariants, RejectsInconsistentSourceList) {
  AsGraphBuilder builder;
  builder.AddEdge(2, 1, EdgeType::kP2C);
  AsGraph graph = std::move(builder).Build();
  std::vector<AnnouncementSource> sources{AnnouncementSource{.node = *graph.IdOf(1)}};
  RouteComputation computation(graph, sources);
  // Wrong source node: the claimed source never originated.
  std::vector<AnnouncementSource> wrong{AnnouncementSource{.node = *graph.IdOf(2)}};
  auto failure = check::CheckSourceMasks(computation, wrong);
  ASSERT_TRUE(failure.has_value());
  // Wrong cardinality is also caught.
  EXPECT_TRUE(check::CheckSourceMasks(computation, {}).has_value());
}

TEST(CheckDiff, LockSetupRoundTrip) {
  for (check::LockSetup lock :
       {check::LockSetup::kNone, check::LockSetup::kFull, check::LockSetup::kDirectOnly}) {
    auto parsed = check::ParseLockSetup(check::ToString(lock));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, lock);
  }
  EXPECT_FALSE(check::ParseLockSetup("sideways").has_value());
}

// One pinned batch case: 64 or fewer origins under two random baselines,
// every lane and column bit-equal to the scalar BFS.
TEST(CheckDiff, BatchKernelMatchesBfsOnPinnedSeed) {
  GeneratorParams params = GeneratorParams::Era2020(700);
  params.seed = 20200901;
  World world = GenerateWorld(params);
  check::DiffReport report = check::RunBatchReachCase(world.full_graph, 77);
  EXPECT_TRUE(report.ok) << report.Summary();
}

TEST(CheckDiff, ReportSummaryReadsWell) {
  check::DiffReport ok;
  EXPECT_EQ(ok.Summary(), "ok");
}

}  // namespace
}  // namespace flatnet
