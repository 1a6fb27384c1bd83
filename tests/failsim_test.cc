// Tests for the failure-cascade campaign engine and its columnar result
// store (src/failsim/): trial-for-trial agreement with a direct
// reachability evaluation, knockout-order guarantees, thread-count
// determinism, store round-trip and corruption handling, checkpoint /
// resume, and trial accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "asgraph/as_graph.h"
#include "bgp/hegemony.h"
#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "failsim/engine.h"
#include "failsim/store.h"
#include "topogen/generate.h"
#include "util/error.h"
#include "util/rng.h"

namespace flatnet {
namespace {

using failsim::CampaignFingerprint;
using failsim::FailCampaignOptions;
using failsim::FailCampaignStats;
using failsim::FailCellSpec;
using failsim::FailScenario;
using failsim::FailStore;
using failsim::FailTable;
using failsim::RunFailureCampaign;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

class FailsimTest : public ::testing::Test {
 protected:
  static const World& world() {
    static const World w = [] {
      GeneratorParams params = GeneratorParams::Era2015(500);
      params.seed = 77;
      return GenerateWorld(params);
    }();
    return w;
  }
  static const Internet& internet() {
    static const Internet net(world().full_graph, world().tiers, world().metadata);
    return net;
  }
  // A second, different topology for fingerprint-mismatch tests.
  static const Internet& other_internet() {
    static const Internet net = [] {
      GeneratorParams params = GeneratorParams::Era2015(400);
      params.seed = 78;
      World w = GenerateWorld(params);
      return Internet(w.full_graph, w.tiers, w.metadata);
    }();
    return net;
  }

  static std::vector<double> Users() { return internet().metadata().UserArray(); }

  // link_set cells at every severity from 1 to 4 over two origins.
  static std::vector<FailCellSpec> LinkCells(std::uint32_t trials) {
    std::vector<FailCellSpec> cells;
    AsId origins[] = {world().tiers.tier2[0], world().tiers.tier2[2]};
    std::uint64_t seed = 0x11e5;
    for (AsId origin : origins) {
      for (std::uint32_t severity = 1; severity <= 4; ++severity) {
        FailCellSpec spec;
        spec.origin = origin;
        spec.scenario = FailScenario::kLinkSet;
        spec.severity = severity;
        spec.seed = seed++;
        spec.trials = trials;
        cells.push_back(spec);
      }
    }
    return cells;
  }

  // The campaign matrix the tests run: two origins, every scenario,
  // deterministic seeds.
  static std::vector<FailCellSpec> Cells(std::uint32_t trials) {
    std::vector<FailCellSpec> cells;
    AsId origins[] = {world().tiers.tier2[0], world().tiers.tier2[1]};
    std::uint64_t seed = 0xfa11;
    for (AsId origin : origins) {
      for (std::size_t s = 0; s < failsim::kNumFailScenarios; ++s) {
        FailCellSpec spec;
        spec.origin = origin;
        spec.scenario = static_cast<FailScenario>(s);
        spec.severity = spec.scenario == FailScenario::kLinkSet ? 2 : 0;
        spec.seed = seed++;
        spec.trials = trials;
        cells.push_back(spec);
      }
    }
    return cells;
  }
};

// Every AS-knockout trial must agree with an independent evaluation that
// takes the cell's published knockout order (`targets`), masks it out of
// a fresh ReachabilityEngine, and rederives the damage metrics. This
// pins the slot bookkeeping: a trial written into the wrong slot or a
// mask leaking between trials shows up as a mismatch.
TEST_F(FailsimTest, TrialsMatchDirectEvaluation) {
  std::vector<FailCellSpec> cells = Cells(10);
  FailTable table = RunFailureCampaign(internet(), cells);
  ASSERT_EQ(table.cells.size(), cells.size());

  ReachabilityEngine engine(internet().graph());
  Bitset mask(internet().num_ases());
  for (const failsim::FailCellResult& cell : table.cells) {
    if (cell.spec.scenario == FailScenario::kLinkSet) continue;
    Bitset baseline = engine.Compute(cell.spec.origin);
    ASSERT_EQ(cell.baseline, baseline.Count() - 1);
    for (std::size_t t = 0; t < cell.collected(); ++t) {
      mask.ResetAll();
      std::size_t knocked_reachable = 0;
      std::size_t knockout = cell.spec.scenario == FailScenario::kHegemonyCascade ? t + 1 : 1;
      std::size_t first = cell.spec.scenario == FailScenario::kHegemonyCascade ? 0 : t;
      for (std::size_t k = 0; k < knockout; ++k) {
        AsId target = cell.targets[first + k];
        mask.Set(target);
        if (baseline.Test(target)) ++knocked_reachable;
      }
      std::size_t damaged = engine.Count(cell.spec.origin, &mask);
      double base = static_cast<double>(cell.baseline);
      double disconnected =
          base > static_cast<double>(damaged) ? base - static_cast<double>(damaged) : 0.0;
      double collateral =
          std::max(0.0, disconnected - static_cast<double>(knocked_reachable));
      EXPECT_DOUBLE_EQ(cell.disconnected[t], disconnected)
          << failsim::ToString(cell.spec.scenario) << " trial " << t;
      EXPECT_DOUBLE_EQ(cell.loss_ases[t], base > 0.0 ? collateral / base : 0.0)
          << failsim::ToString(cell.spec.scenario) << " trial " << t;
    }
  }
}

// Independent oracle for link_set trials: replay each cell's draws from
// Rng(spec.seed) over the canonical EdgeList() order, rebuild the graph
// without the trial's links through AsGraphBuilder, and evaluate a fresh
// engine on that subgraph. Both the count-only path (no users) and the
// reach-set path (users) must agree with it trial for trial.
TEST_F(FailsimTest, LinkSetTrialsMatchRebuiltSubgraph) {
  std::vector<double> users = Users();
  std::vector<FailCellSpec> cells = LinkCells(6);
  FailTable plain = RunFailureCampaign(internet(), cells);
  FailCampaignOptions weighted;
  weighted.users = &users;
  FailTable with_users = RunFailureCampaign(internet(), cells, weighted);

  const AsGraph& graph = internet().graph();
  std::vector<AsGraph::Edge> edges = graph.EdgeList();
  ReachabilityEngine intact(graph);
  std::size_t damaging_trials = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const FailCellSpec& spec = cells[c];
    Bitset baseline = intact.Compute(spec.origin);
    double base = static_cast<double>(baseline.Count() - 1);
    double baseline_users = 0.0;
    for (AsId id = 0; id < graph.num_ases(); ++id) {
      if (id != spec.origin && baseline.Test(id)) baseline_users += users[id];
    }
    ASSERT_EQ(plain.cells[c].collected(), spec.trials);
    ASSERT_EQ(with_users.cells[c].collected(), spec.trials);

    Rng rng(spec.seed);
    for (std::uint32_t t = 0; t < spec.trials; ++t) {
      std::vector<std::uint32_t> draws =
          rng.SampleWithoutReplacement(static_cast<std::uint32_t>(edges.size()), spec.severity);
      AsGraphBuilder builder;
      for (AsId id = 0; id < graph.num_ases(); ++id) builder.AddAs(graph.AsnOf(id));
      for (std::uint32_t e = 0; e < edges.size(); ++e) {
        if (std::find(draws.begin(), draws.end(), e) != draws.end()) continue;
        builder.AddEdge(edges[e].a, edges[e].b, edges[e].type);
      }
      AsGraph sub = std::move(builder).Build();
      ASSERT_EQ(sub.num_edges(), graph.num_edges() - spec.severity);
      Bitset damaged = ReachabilityEngine(sub).Compute(spec.origin);
      double reached = static_cast<double>(damaged.Count() - 1);
      double disconnected = base > reached ? base - reached : 0.0;
      if (disconnected > 0.0) ++damaging_trials;
      double lost = 0.0;
      for (AsId id = 0; id < graph.num_ases(); ++id) {
        if (baseline.Test(id) && !damaged.Test(id)) lost += users[id];
      }
      SCOPED_TRACE(testing::Message() << "cell " << c << " severity " << spec.severity
                                      << " trial " << t);
      for (const FailTable* table : {&plain, &with_users}) {
        EXPECT_DOUBLE_EQ(table->cells[c].disconnected[t], disconnected);
        EXPECT_DOUBLE_EQ(table->cells[c].loss_ases[t], base > 0.0 ? disconnected / base : 0.0);
      }
      EXPECT_DOUBLE_EQ(with_users.cells[c].loss_users[t],
                       baseline_users > 0.0 ? lost / baseline_users : 0.0);
    }
  }
  // The draws must cut somebody off, or the comparison above is vacuous.
  EXPECT_GT(damaging_trials, 0u);
}

// The bytes of one seeded link_set store (user column included) are
// pinned to the digest the subgraph-rebuild implementation produced, so
// any change to the draws, their order, or the trial evaluation shows up
// here as well as in the oracle above.
TEST_F(FailsimTest, LinkSetStoreBytesArePinned) {
  std::vector<double> users = Users();
  FailCampaignOptions options;
  options.users = &users;
  options.threads = 2;
  std::string path = TempPath("flatnet_failsim_linkset_pinned.fail");
  failsim::WriteFailStore(path, RunFailureCampaign(internet(), LinkCells(5), options));
  std::string bytes = ReadFileBytes(path);
  std::filesystem::remove(path);

  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (char byte : bytes) {
    digest ^= static_cast<unsigned char>(byte);
    digest *= 0x100000001b3ull;
  }
  EXPECT_EQ(digest, 0xe07e0cc674f5f77cull) << std::hex << "actual digest 0x" << digest << ", "
                            << bytes.size() << " bytes";
}

// A kTier1 cell sized to the Tier-1 clique fails every Tier-1 exactly
// once: the targets are a permutation of the clique (minus the origin).
TEST_F(FailsimTest, Tier1CellCoversTheCliqueOnce) {
  std::vector<AsId> tier1 = world().tiers.tier1;
  FailCellSpec spec;
  spec.origin = world().tiers.tier2[0];
  spec.scenario = FailScenario::kTier1;
  spec.seed = 21;
  spec.trials = static_cast<std::uint32_t>(tier1.size());
  FailTable table = RunFailureCampaign(internet(), {spec});

  const failsim::FailCellResult& cell = table.cells[0];
  EXPECT_EQ(cell.collected(), tier1.size());
  EXPECT_FALSE(cell.UnderCollected());
  std::vector<AsId> targets = cell.targets;
  std::sort(targets.begin(), targets.end());
  std::sort(tier1.begin(), tier1.end());
  EXPECT_EQ(targets, tier1);
}

// The cascade cell's knockout order IS the hegemony ranking: trial t
// fails the top-(t+1) prefix.
TEST_F(FailsimTest, HegemonyCascadeFollowsTheRanking) {
  FailCellSpec spec;
  spec.origin = world().tiers.tier2[1];
  spec.scenario = FailScenario::kHegemonyCascade;
  spec.seed = 4;
  spec.trials = 6;
  FailCampaignOptions options;
  options.hegemony_trim = 0.1;
  FailTable table = RunFailureCampaign(internet(), {spec}, options);

  RouteComputation computation(internet().graph(), {{.node = spec.origin}});
  HegemonyResult hegemony = ComputeHegemony(computation, {.trim = 0.1});
  std::vector<AsId> ranking = HegemonyRanking(hegemony);
  const failsim::FailCellResult& cell = table.cells[0];
  ASSERT_LE(cell.collected(), ranking.size());
  ASSERT_EQ(cell.targets.size(), cell.collected());
  for (std::size_t t = 0; t < cell.targets.size(); ++t) {
    EXPECT_EQ(cell.targets[t], ranking[t]) << "cascade position " << t;
  }
  // Deeper cascades can only disconnect more: the damage is monotone.
  for (std::size_t t = 1; t < cell.collected(); ++t) {
    EXPECT_GE(cell.disconnected[t], cell.disconnected[t - 1]);
  }
}

TEST_F(FailsimTest, ThreadAndChunkCountDoNotChangeStoreBytes) {
  std::vector<FailCellSpec> cells = Cells(12);
  std::string reference_path = TempPath("flatnet_failsim_t1.fail");
  std::string variant_path = TempPath("flatnet_failsim_t8.fail");

  FailCampaignOptions reference;
  reference.threads = 1;
  reference.chunk_trials = 64;
  failsim::WriteFailStore(reference_path, RunFailureCampaign(internet(), cells, reference));

  // More threads than cores and a chunk size that straddles cell
  // boundaries must not change a single byte.
  FailCampaignOptions variant;
  variant.threads = 8;
  variant.chunk_trials = 5;
  failsim::WriteFailStore(variant_path, RunFailureCampaign(internet(), cells, variant));

  EXPECT_EQ(ReadFileBytes(variant_path), ReadFileBytes(reference_path));
  std::filesystem::remove(reference_path);
  std::filesystem::remove(variant_path);
}

TEST_F(FailsimTest, UserWeightedColumnMatchesDirectEvaluation) {
  std::vector<double> users = Users();
  FailCellSpec spec;
  spec.origin = world().tiers.tier2[0];
  spec.scenario = FailScenario::kSingleAs;
  spec.seed = 9;
  spec.trials = 8;
  FailCampaignOptions options;
  options.users = &users;
  FailTable table = RunFailureCampaign(internet(), {spec}, options);
  ASSERT_TRUE(table.has_users);

  const failsim::FailCellResult& cell = table.cells[0];
  ASSERT_EQ(cell.loss_users.size(), cell.collected());
  ReachabilityEngine engine(internet().graph());
  Bitset baseline = engine.Compute(spec.origin);
  double baseline_users = 0.0;
  for (AsId id = 0; id < internet().num_ases(); ++id) {
    if (id != spec.origin && baseline.Test(id)) baseline_users += users[id];
  }
  Bitset mask(internet().num_ases());
  Bitset damaged(internet().num_ases());
  for (std::size_t t = 0; t < cell.collected(); ++t) {
    mask.ResetAll();
    mask.Set(cell.targets[t]);
    engine.ComputeInto(spec.origin, &mask, damaged);
    double lost = 0.0;
    for (AsId id = 0; id < internet().num_ases(); ++id) {
      if (baseline.Test(id) && !damaged.Test(id) && !mask.Test(id)) lost += users[id];
    }
    EXPECT_DOUBLE_EQ(cell.loss_users[t], baseline_users > 0.0 ? lost / baseline_users : 0.0)
        << "trial " << t;
  }
}

TEST_F(FailsimTest, StoreRoundTripsAndValidates) {
  std::vector<FailCellSpec> cells = Cells(6);
  FailTable table = RunFailureCampaign(internet(), cells);
  std::string path = TempPath("flatnet_failsim_roundtrip.fail");
  failsim::WriteFailStore(path, table);

  FailStore store = FailStore::Load(path);
  EXPECT_NO_THROW(store.ValidateAgainst(internet()));
  EXPECT_EQ(store.fingerprint(), internet().fingerprint());
  EXPECT_EQ(store.campaign_fingerprint(), table.campaign_fingerprint);
  EXPECT_FALSE(store.has_users());
  ASSERT_EQ(store.num_cells(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(store.cell(i).spec, cells[i]) << "cell " << i;
    EXPECT_EQ(store.cell(i).baseline, table.cells[i].baseline) << "cell " << i;
    EXPECT_EQ(store.cell(i).attempts, table.cells[i].attempts) << "cell " << i;
    EXPECT_EQ(store.cell(i).loss_ases, table.cells[i].loss_ases) << "cell " << i;
    EXPECT_EQ(store.cell(i).disconnected, table.cells[i].disconnected) << "cell " << i;
    // The knockout order is engine output, never persisted.
    EXPECT_TRUE(store.cell(i).targets.empty()) << "cell " << i;
  }

  EXPECT_EQ(store.FindCell(cells[1].origin, cells[1].scenario), 1u);
  EXPECT_EQ(store.FindCell(static_cast<AsId>(internet().num_ases() - 1),
                           FailScenario::kSingleAs),
            FailStore::npos);

  EXPECT_THROW(store.ValidateAgainst(other_internet()), Error);
  std::filesystem::remove(path);
}

TEST_F(FailsimTest, LoadRejectsCorruptionNamingTheFile) {
  FailTable table = RunFailureCampaign(internet(), Cells(4));
  std::string path = TempPath("flatnet_failsim_corrupt.fail");
  failsim::WriteFailStore(path, table);
  std::string pristine = ReadFileBytes(path);

  auto write_bytes = [&](std::string bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  auto expect_load_error = [&](const char* what) {
    try {
      FailStore::Load(path);
      ADD_FAILURE() << "expected Load to throw for " << what;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << what << ": error must name the file: " << e.what();
    }
  };

  // Truncated mid-body.
  write_bytes(pristine.substr(0, pristine.size() - 20));
  expect_load_error("truncation");

  // One flipped byte in the damage data fails the CRC.
  {
    std::string bytes = pristine;
    bytes[bytes.size() - 20] = static_cast<char>(bytes[bytes.size() - 20] ^ 0x5a);
    write_bytes(bytes);
    expect_load_error("flipped body byte");
  }

  // Clobbered end magic (torn footer).
  {
    std::string bytes = pristine;
    bytes.replace(bytes.size() - 8, 8, "XXXXXXXX");
    write_bytes(bytes);
    expect_load_error("bad end magic");
  }

  // Wrong leading magic: not a fail store at all.
  {
    std::string bytes = pristine;
    bytes[0] = 'X';
    write_bytes(bytes);
    expect_load_error("bad magic");
  }

  // An out-of-range scenario enum in the first cell descriptor (byte 44:
  // 40-byte header, then origin u32) is rejected by the range check
  // before the CRC is even consulted.
  {
    std::string bytes = pristine;
    bytes[44] = 99;
    write_bytes(bytes);
    expect_load_error("invalid scenario enum");
  }
  std::filesystem::remove(path);
}

TEST_F(FailsimTest, ResumedRunProducesByteIdenticalStore) {
  std::vector<FailCellSpec> cells = Cells(12);
  std::string reference_store = TempPath("flatnet_failsim_ref.fail");
  std::string resumed_store = TempPath("flatnet_failsim_resumed.fail");
  std::string journal = TempPath("flatnet_failsim_resumed.journal");
  std::filesystem::remove(journal);

  // Reference: one uninterrupted run, no journal.
  FailCampaignOptions reference;
  reference.threads = 2;
  reference.chunk_trials = 8;
  failsim::FinalizeFailStore(reference_store,
                             RunFailureCampaign(internet(), cells, reference));

  // Interrupted: stop after 3 chunks (the journal keeps them), then resume
  // at a different thread count.
  FailCampaignOptions partial = reference;
  partial.threads = 1;
  partial.journal_path = journal;
  partial.max_chunks = 3;
  FailCampaignStats partial_stats;
  RunFailureCampaign(internet(), cells, partial, &partial_stats);
  EXPECT_FALSE(partial_stats.complete);
  EXPECT_EQ(partial_stats.chunks_computed, 3u);
  ASSERT_TRUE(std::filesystem::exists(journal));

  FailCampaignOptions resume = reference;
  resume.threads = 4;
  resume.journal_path = journal;
  resume.resume = true;
  FailCampaignStats resume_stats;
  FailTable table = RunFailureCampaign(internet(), cells, resume, &resume_stats);
  EXPECT_TRUE(resume_stats.complete);
  EXPECT_EQ(resume_stats.chunks_resumed, 3u);
  EXPECT_EQ(resume_stats.chunks_computed, resume_stats.chunks_total - 3u);
  failsim::FinalizeFailStore(resumed_store, table, journal);

  EXPECT_EQ(ReadFileBytes(resumed_store), ReadFileBytes(reference_store));
  // Finalize removed the now-redundant journal.
  EXPECT_FALSE(std::filesystem::exists(journal));
  std::filesystem::remove(reference_store);
  std::filesystem::remove(resumed_store);
}

TEST_F(FailsimTest, ResumeRejectsAChangedCampaign) {
  std::vector<FailCellSpec> cells = Cells(8);
  std::string journal = TempPath("flatnet_failsim_mismatch.journal");
  std::filesystem::remove(journal);

  FailCampaignOptions partial;
  partial.threads = 1;
  partial.chunk_trials = 8;
  partial.journal_path = journal;
  partial.max_chunks = 2;
  RunFailureCampaign(internet(), cells, partial, nullptr);
  ASSERT_TRUE(std::filesystem::exists(journal));

  // The campaign fingerprint covers every cell field, so resuming with a
  // reseeded cell list must fail instead of mixing incompatible trials.
  std::vector<FailCellSpec> reseeded = cells;
  reseeded[0].seed ^= 1;
  FailCampaignOptions resume = partial;
  resume.max_chunks = 0;
  resume.resume = true;
  EXPECT_THROW(RunFailureCampaign(internet(), reseeded, resume), Error);
  std::filesystem::remove(journal);
}

TEST_F(FailsimTest, CampaignFingerprintCoversCellsTopologyAndTrim) {
  std::vector<FailCellSpec> cells = Cells(5);
  std::uint64_t base = CampaignFingerprint(internet(), cells, false, 0.1);
  EXPECT_EQ(base, CampaignFingerprint(internet(), cells, false, 0.1));
  EXPECT_NE(base, CampaignFingerprint(internet(), cells, true, 0.1));
  EXPECT_NE(base, CampaignFingerprint(internet(), cells, false, 0.2));
  EXPECT_NE(base, CampaignFingerprint(other_internet(), cells, false, 0.1));
  std::vector<FailCellSpec> reseeded = cells;
  reseeded.back().seed ^= 1;
  EXPECT_NE(base, CampaignFingerprint(internet(), reseeded, false, 0.1));
}

TEST_F(FailsimTest, UnderCollectionIsAccountedNotSilent) {
  // A Tier-1 cell asking for more trials than the clique has members
  // collects one trial per member and reports the shortfall — slots for
  // other cells are never silently reassigned.
  std::size_t num_tier1 = world().tiers.tier1.size();
  FailCellSpec starved;
  starved.origin = world().tiers.tier2[0];
  starved.scenario = FailScenario::kTier1;
  starved.seed = 2;
  starved.trials = static_cast<std::uint32_t>(num_tier1 + 10);
  FailCellSpec normal;
  normal.origin = world().tiers.tier2[1];
  normal.scenario = FailScenario::kSingleAs;
  normal.seed = 3;
  normal.trials = 7;
  FailTable table = RunFailureCampaign(internet(), {starved, normal});

  EXPECT_TRUE(table.cells[0].UnderCollected());
  EXPECT_EQ(table.cells[0].collected(), num_tier1);
  EXPECT_FALSE(table.cells[1].UnderCollected());
  EXPECT_EQ(table.cells[1].collected(), 7u);

  // Under-collected cells round-trip through the store with their
  // accounting intact.
  std::string path = TempPath("flatnet_failsim_under.fail");
  failsim::WriteFailStore(path, table);
  FailStore store = FailStore::Load(path);
  EXPECT_TRUE(store.cell(0).UnderCollected());
  EXPECT_EQ(store.cell(0).spec.trials, num_tier1 + 10);
  EXPECT_EQ(store.cell(0).collected(), num_tier1);
  std::filesystem::remove(path);
}

TEST_F(FailsimTest, ZeroTrialCampaignIsEmptyNotAnError) {
  FailCellSpec spec;
  spec.origin = world().tiers.tier2[0];
  spec.seed = 3;
  spec.trials = 0;
  FailCampaignStats stats;
  FailTable table = RunFailureCampaign(internet(), {spec}, {}, &stats);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.trials_evaluated, 0u);
  EXPECT_EQ(table.cells[0].collected(), 0u);
  EXPECT_FALSE(table.cells[0].UnderCollected());
}

TEST_F(FailsimTest, CampaignRejectsBadInputs) {
  FailCellSpec spec;
  spec.origin = world().tiers.tier2[0];
  spec.trials = 1;

  FailCampaignOptions zero_chunk;
  zero_chunk.chunk_trials = 0;
  EXPECT_THROW(RunFailureCampaign(internet(), {spec}, zero_chunk), InvalidArgument);

  FailCellSpec bad_origin = spec;
  bad_origin.origin = static_cast<AsId>(internet().num_ases());
  EXPECT_THROW(RunFailureCampaign(internet(), {bad_origin}), InvalidArgument);

  // Severity is a kLinkSet knob: required there, rejected elsewhere.
  FailCellSpec stray_severity = spec;
  stray_severity.severity = 2;
  EXPECT_THROW(RunFailureCampaign(internet(), {stray_severity}), InvalidArgument);
  FailCellSpec zero_severity = spec;
  zero_severity.scenario = FailScenario::kLinkSet;
  zero_severity.severity = 0;
  EXPECT_THROW(RunFailureCampaign(internet(), {zero_severity}), InvalidArgument);

  std::vector<double> short_users(3);
  FailCampaignOptions bad_users;
  bad_users.users = &short_users;
  EXPECT_THROW(RunFailureCampaign(internet(), {spec}, bad_users), InvalidArgument);

  FailCampaignOptions bad_trim;
  bad_trim.hegemony_trim = 0.5;
  EXPECT_THROW(RunFailureCampaign(internet(), {spec}, bad_trim), InvalidArgument);
}

}  // namespace
}  // namespace flatnet
