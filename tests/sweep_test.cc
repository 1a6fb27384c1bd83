// Tests for the sharded sweep engine, the columnar result store, and
// checkpoint/resume (src/sweep/).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "asgraph/tiers.h"
#include "bgp/reachability.h"
#include "core/reachability_analysis.h"
#include "obs/metrics.h"
#include "sweep/engine.h"
#include "sweep/store.h"
#include "topogen/generate.h"
#include "util/error.h"

namespace flatnet {
namespace {

using sweep::ColumnBit;
using sweep::RunSweep;
using sweep::SweepColumn;
using sweep::SweepOptions;
using sweep::SweepRunStats;
using sweep::SweepStore;
using sweep::SweepTable;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

class SweepTest : public ::testing::Test {
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
};

TEST_F(SweepTest, FingerprintIsStableAndDistinguishesTopologies) {
  EXPECT_EQ(internet().fingerprint(), internet().fingerprint());
  EXPECT_NE(internet().fingerprint(), other_internet().fingerprint());
}

TEST_F(SweepTest, ParallelSweepMatchesSerialElementForElement) {
  std::vector<std::uint32_t> serial(internet().num_ases());
  for (AsId origin = 0; origin < serial.size(); ++origin) {
    ReachabilitySummary summary = AnalyzeReachability(internet(), origin);
    serial[origin] = static_cast<std::uint32_t>(summary.hierarchy_free);
  }
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::uint32_t> parallel = sweep::HierarchyFreeSweep(internet(), threads);
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

TEST_F(SweepTest, SweepColumnsMatchPerOriginAnalysis) {
  SweepOptions options;
  options.threads = 4;
  options.chunk_size = 64;
  SweepRunStats stats;
  SweepTable table = RunSweep(internet(), options, &stats);
  ASSERT_TRUE(stats.complete);
  EXPECT_EQ(stats.chunks_resumed, 0u);
  EXPECT_EQ(stats.origins_computed, internet().num_ases());

  // Spot-check a spread of origins against the independent single-origin
  // analysis path.
  for (AsId origin = 0; origin < internet().num_ases(); origin += 37) {
    ReachabilitySummary expected = AnalyzeReachability(internet(), origin);
    EXPECT_EQ(table.Column(SweepColumn::kProviderFree)[origin], expected.provider_free)
        << "origin " << origin;
    EXPECT_EQ(table.Column(SweepColumn::kTier1Free)[origin], expected.tier1_free)
        << "origin " << origin;
    EXPECT_EQ(table.Column(SweepColumn::kHierarchyFree)[origin], expected.hierarchy_free)
        << "origin " << origin;
  }
}

// The kernel counts its batches under its own names and leaves the scalar
// BFS counters alone; on an acyclic graph every batch is one pass.
TEST_F(SweepTest, BatchCountersTallyTheSweep) {
  obs::Counter& computes = obs::GetCounter("reachability.computes");
  obs::Counter& passes = obs::GetCounter("reachability.batch.passes");
  obs::Counter& lanes = obs::GetCounter("reachability.batch.lanes");
  obs::Counter& nodes_reached = obs::GetCounter("reachability.batch.nodes_reached");
  std::uint64_t computes_before = computes.value();
  std::uint64_t passes_before = passes.value();
  std::uint64_t lanes_before = lanes.value();
  std::uint64_t reached_before = nodes_reached.value();

  SweepOptions options;
  options.threads = 2;
  options.chunk_size = 100;  // a full and a part-filled batch per chunk
  SweepTable table = RunSweep(internet(), options);
  std::uint64_t reached = 0;
  for (std::uint32_t c = 0; c < 3; ++c) {
    for (std::uint32_t v : table.Column(static_cast<SweepColumn>(c))) reached += v;
  }
  std::size_t n = internet().num_ases();
  std::uint64_t batches = 0;
  for (std::size_t begin = 0; begin < n; begin += 100) {
    batches += (std::min<std::size_t>(100, n - begin) + 63) / 64;
  }
  EXPECT_EQ(computes.value(), computes_before);
  EXPECT_EQ(lanes.value() - lanes_before, n);
  EXPECT_EQ(passes.value() - passes_before, batches);
  EXPECT_EQ(nodes_reached.value() - reached_before, reached);
}

// CAIDA input is untrusted and may hold a p2c cycle, which has no Kahn
// order. The kernel must still reach exactly what the BFS reaches, for
// origins on the cycle, below it, beside it and above it.
TEST(SweepCycleTest, ColumnsMatchPerOriginAnalysisOnCyclicInput) {
  AsGraphBuilder builder;
  builder.AddEdge(1, 2, EdgeType::kP2P);  // the Tier-1 clique
  builder.AddEdge(1, 10, EdgeType::kP2C);
  builder.AddEdge(2, 11, EdgeType::kP2C);
  // The cycle 100 -> 101 -> 102 -> 100, hanging off the hierarchy.
  builder.AddEdge(100, 101, EdgeType::kP2C);
  builder.AddEdge(101, 102, EdgeType::kP2C);
  builder.AddEdge(102, 100, EdgeType::kP2C);
  builder.AddEdge(1, 100, EdgeType::kP2C);
  builder.AddEdge(10, 101, EdgeType::kP2C);
  // A subtree below the cycle, one node with a provider on each side.
  builder.AddEdge(102, 200, EdgeType::kP2C);
  builder.AddEdge(200, 201, EdgeType::kP2C);
  builder.AddEdge(200, 202, EdgeType::kP2C);
  builder.AddEdge(101, 203, EdgeType::kP2C);
  builder.AddEdge(11, 204, EdgeType::kP2C);
  builder.AddEdge(102, 204, EdgeType::kP2C);
  // Peers into, out of and below the cycle.
  builder.AddEdge(100, 300, EdgeType::kP2P);
  builder.AddEdge(300, 301, EdgeType::kP2C);
  builder.AddEdge(201, 2, EdgeType::kP2P);
  builder.AddEdge(203, 11, EdgeType::kP2P);
  builder.AddEdge(202, 301, EdgeType::kP2P);
  // A second, longer cycle peering with a Tier-1.
  builder.AddEdge(500, 501, EdgeType::kP2C);
  builder.AddEdge(501, 502, EdgeType::kP2C);
  builder.AddEdge(502, 503, EdgeType::kP2C);
  builder.AddEdge(503, 500, EdgeType::kP2C);
  builder.AddEdge(503, 1, EdgeType::kP2P);
  builder.AddEdge(502, 504, EdgeType::kP2C);
  AsGraph graph = std::move(builder).Build();
  // A cycle member in the Tier-2 baseline exercises the masks off the
  // ordered prefix.
  TierSets tiers = MakeTierSets(graph, {1, 2}, {10, 11, 101});
  AsMetadata metadata(graph.num_ases());
  Internet internet(std::move(graph), std::move(tiers), std::move(metadata));

  obs::Counter& passes = obs::GetCounter("reachability.batch.passes");
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SweepOptions options;
    options.threads = threads;
    options.chunk_size = 5;
    std::uint64_t passes_before = passes.value();
    SweepTable table = RunSweep(internet, options);
    // One batch per chunk, each repeating its pass over the cyclic tail.
    EXPECT_GT(passes.value() - passes_before, (internet.num_ases() + 4) / 5);
    for (AsId origin = 0; origin < internet.num_ases(); ++origin) {
      ReachabilitySummary expected = AnalyzeReachability(internet, origin);
      EXPECT_EQ(table.Column(SweepColumn::kProviderFree)[origin], expected.provider_free)
          << "AS" << internet.graph().AsnOf(origin);
      EXPECT_EQ(table.Column(SweepColumn::kTier1Free)[origin], expected.tier1_free)
          << "AS" << internet.graph().AsnOf(origin);
      EXPECT_EQ(table.Column(SweepColumn::kHierarchyFree)[origin], expected.hierarchy_free)
          << "AS" << internet.graph().AsnOf(origin);
    }
  }
}

TEST_F(SweepTest, EngineReusePathsAgreeWithAllocatingCompute) {
  ReachabilityEngine engine(internet().graph());
  Bitset scratch;
  Bitset excluded = internet().tiers().tier1_mask;
  for (AsId origin = 0; origin < internet().num_ases(); origin += 53) {
    const Bitset* mask = excluded.Test(origin) ? nullptr : &excluded;
    Bitset fresh = engine.Compute(origin, mask);
    engine.ComputeInto(origin, mask, scratch);
    EXPECT_EQ(scratch, fresh) << "origin " << origin;
    std::size_t count = engine.Count(origin, mask);
    EXPECT_EQ(count, fresh.Count() - 1) << "origin " << origin;
  }
}

TEST_F(SweepTest, RunSweepRejectsBadOptions) {
  SweepOptions zero_chunk;
  zero_chunk.chunk_size = 0;
  EXPECT_THROW(RunSweep(internet(), zero_chunk), InvalidArgument);
  SweepOptions no_columns;
  no_columns.columns = 0;
  EXPECT_THROW(RunSweep(internet(), no_columns), InvalidArgument);
  SweepOptions bad_bit;
  bad_bit.columns = 1u << 7;
  EXPECT_THROW(RunSweep(internet(), bad_bit), InvalidArgument);
}

TEST_F(SweepTest, StoreRoundTripsAndValidates) {
  SweepOptions options;
  options.threads = 2;
  SweepTable table = RunSweep(internet(), options);
  std::string path = TempPath("flatnet_sweep_roundtrip.sweep");
  sweep::WriteSweepStore(path, table);

  SweepStore store = SweepStore::Load(path);
  EXPECT_NO_THROW(store.ValidateAgainst(internet()));
  EXPECT_EQ(store.num_origins(), internet().num_ases());
  EXPECT_EQ(store.fingerprint(), internet().fingerprint());
  EXPECT_TRUE(store.HasColumn(SweepColumn::kHierarchyFree));
  EXPECT_FALSE(store.HasColumn(SweepColumn::kPathOneHop));
  for (AsId origin = 0; origin < internet().num_ases(); origin += 41) {
    EXPECT_EQ(store.Value(SweepColumn::kHierarchyFree, origin),
              table.Column(SweepColumn::kHierarchyFree)[origin]);
  }
  // Asking for an absent column is loud, not zero-filled.
  EXPECT_THROW(store.table().Column(SweepColumn::kPathTwoHops), InvalidArgument);

  EXPECT_THROW(store.ValidateAgainst(other_internet()), Error);
  std::filesystem::remove(path);
}

TEST_F(SweepTest, StoreBytesArePinned) {
  SweepOptions options;
  options.threads = 2;
  std::string path = TempPath("flatnet_sweep_pinned.sweep");
  sweep::WriteSweepStore(path, RunSweep(internet(), options));
  std::string bytes = ReadFileBytes(path);
  std::filesystem::remove(path);

  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (char byte : bytes) {
    digest ^= static_cast<unsigned char>(byte);
    digest *= 0x100000001b3ull;
  }
  EXPECT_EQ(digest, 0x853d34fa910f6db5ull) << std::hex << "actual digest 0x" << digest << ", "
                                           << bytes.size() << " bytes";
}

TEST_F(SweepTest, LoadRejectsCorruptionNamingTheFile) {
  SweepOptions options;
  options.columns = ColumnBit(SweepColumn::kHierarchyFree);
  SweepTable table = RunSweep(internet(), options);
  std::string path = TempPath("flatnet_sweep_corrupt.sweep");
  sweep::WriteSweepStore(path, table);
  std::string pristine = ReadFileBytes(path);

  auto write_bytes = [&](std::string bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  auto expect_load_error = [&](const char* what) {
    try {
      SweepStore::Load(path);
      ADD_FAILURE() << "expected Load to throw for " << what;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << what << ": error must name the file: " << e.what();
    }
  };

  // Truncated mid-body.
  write_bytes(pristine.substr(0, pristine.size() - 20));
  expect_load_error("truncation");

  // One flipped byte in the column data fails the CRC.
  {
    std::string bytes = pristine;
    bytes[40] = static_cast<char>(bytes[40] ^ 0x5a);
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

  // Wrong leading magic: not a sweep store at all.
  {
    std::string bytes = pristine;
    bytes[0] = 'X';
    write_bytes(bytes);
    expect_load_error("bad magic");
  }
  std::filesystem::remove(path);
}

TEST_F(SweepTest, ResumedRunProducesByteIdenticalStore) {
  std::string reference_store = TempPath("flatnet_sweep_ref.sweep");
  std::string resumed_store = TempPath("flatnet_sweep_resumed.sweep");
  std::string journal = TempPath("flatnet_sweep_resumed.journal");
  std::filesystem::remove(journal);

  // Reference: one uninterrupted run, no journal.
  SweepOptions reference;
  reference.threads = 2;
  reference.chunk_size = 32;
  sweep::FinalizeSweepStore(reference_store, RunSweep(internet(), reference));

  // Interrupted: stop after 3 chunks (the journal keeps them), then resume.
  SweepOptions partial = reference;
  partial.threads = 1;
  partial.journal_path = journal;
  partial.max_chunks = 3;
  SweepRunStats partial_stats;
  RunSweep(internet(), partial, &partial_stats);
  EXPECT_FALSE(partial_stats.complete);
  EXPECT_EQ(partial_stats.chunks_computed, 3u);
  ASSERT_TRUE(std::filesystem::exists(journal));

  SweepOptions resume = reference;
  resume.journal_path = journal;
  resume.resume = true;
  SweepRunStats resume_stats;
  SweepTable table = RunSweep(internet(), resume, &resume_stats);
  EXPECT_TRUE(resume_stats.complete);
  EXPECT_EQ(resume_stats.chunks_resumed, 3u);
  EXPECT_EQ(resume_stats.chunks_computed, resume_stats.chunks_total - 3u);
  sweep::FinalizeSweepStore(resumed_store, table, journal);

  EXPECT_EQ(ReadFileBytes(resumed_store), ReadFileBytes(reference_store));
  // Finalize removed the now-redundant journal.
  EXPECT_FALSE(std::filesystem::exists(journal));
  std::filesystem::remove(reference_store);
  std::filesystem::remove(resumed_store);
}

TEST_F(SweepTest, ResumeSurvivesATornJournalTail) {
  std::string reference_store = TempPath("flatnet_sweep_torn_ref.sweep");
  std::string resumed_store = TempPath("flatnet_sweep_torn.sweep");
  std::string journal = TempPath("flatnet_sweep_torn.journal");
  std::filesystem::remove(journal);

  SweepOptions base;
  base.threads = 2;
  base.chunk_size = 32;
  sweep::FinalizeSweepStore(reference_store, RunSweep(internet(), base));

  SweepOptions partial = base;
  partial.threads = 1;
  partial.journal_path = journal;
  partial.max_chunks = 2;
  RunSweep(internet(), partial);

  // A kill mid-append leaves a half-written record; recovery must drop it
  // and keep the intact prefix.
  {
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    const char garbage[] = "CHK1\x03\x00\x00\x00torn-tail";
    out.write(garbage, sizeof(garbage) - 1);
  }

  SweepOptions resume = base;
  resume.journal_path = journal;
  resume.resume = true;
  SweepRunStats stats;
  SweepTable table = RunSweep(internet(), resume, &stats);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.chunks_resumed, 2u);
  sweep::FinalizeSweepStore(resumed_store, table, journal);

  EXPECT_EQ(ReadFileBytes(resumed_store), ReadFileBytes(reference_store));
  std::filesystem::remove(reference_store);
  std::filesystem::remove(resumed_store);
}

TEST_F(SweepTest, PathColumnsBinByRouteLength) {
  SweepOptions options;
  options.threads = 2;
  options.columns = sweep::kPathColumns;
  SweepTable table = RunSweep(internet(), options);
  // Unweighted PathLengths accumulates integral counts into doubles; the
  // sweep stores the same counts as u32.
  for (AsId origin : {AsId{0}, AsId{123}, AsId{499}}) {
    PathLengthBins expected = PathLengths(internet(), origin);
    EXPECT_EQ(table.Column(SweepColumn::kPathOneHop)[origin],
              static_cast<std::uint32_t>(expected.one_hop));
    EXPECT_EQ(table.Column(SweepColumn::kPathTwoHops)[origin],
              static_cast<std::uint32_t>(expected.two_hops));
    EXPECT_EQ(table.Column(SweepColumn::kPathThreePlus)[origin],
              static_cast<std::uint32_t>(expected.three_plus));
  }
}

}  // namespace
}  // namespace flatnet
