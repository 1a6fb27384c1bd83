// Binary topology store (`.graph`) and streaming-generator tests: the
// round-trip / corruption / determinism contract of ROADMAP item 1.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/graph_store.h"
#include "core/internet.h"
#include "core/serialize.h"
#include "topogen/edge_stream.h"
#include "topogen/generate.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatnet {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class GraphStoreTest : public ::testing::Test {
 protected:
  static const Internet& internet() {
    static const Internet world = [] {
      GeneratorParams params = GeneratorParams::Era2015(500);
      params.seed = 77;
      World w = GenerateWorld(params);
      return Internet(std::move(w.full_graph), std::move(w.tiers), std::move(w.metadata));
    }();
    return world;
  }
};

TEST_F(GraphStoreTest, RoundTripPreservesEverything) {
  std::string path = TempPath("flatnet_graph_roundtrip.graph");
  SaveInternetBinary(internet(), path);
  Internet loaded = LoadInternetBinary(path);

  ASSERT_EQ(loaded.num_ases(), internet().num_ases());
  EXPECT_EQ(loaded.graph().num_edges(), internet().graph().num_edges());
  EXPECT_EQ(loaded.fingerprint(), internet().fingerprint());
  EXPECT_EQ(loaded.tiers().tier1, internet().tiers().tier1);
  EXPECT_EQ(loaded.tiers().tier2, internet().tiers().tier2);
  for (AsId id = 0; id < loaded.num_ases(); ++id) {
    EXPECT_EQ(loaded.graph().AsnOf(id), internet().graph().AsnOf(id));
    EXPECT_EQ(loaded.metadata().Get(id).name, internet().metadata().Get(id).name);
    EXPECT_EQ(loaded.metadata().Get(id).type, internet().metadata().Get(id).type);
    EXPECT_EQ(loaded.metadata().Get(id).users, internet().metadata().Get(id).users);
  }
  // Adjacency must be served identically: spot-check every 37th AS.
  for (AsId id = 0; id < loaded.num_ases(); id += 37) {
    auto got = loaded.graph().NeighborsOf(id);
    auto want = internet().graph().NeighborsOf(id);
    ASSERT_EQ(got.size(), want.size()) << "AS " << id;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].id, want[k].id);
      EXPECT_EQ(got[k].rel, want[k].rel);
    }
  }
  std::filesystem::remove(path);
}

// save -> mmap load -> save must be byte-identical: nothing in the format
// depends on how the in-memory graph was produced.
TEST_F(GraphStoreTest, SaveLoadSaveIsByteIdentical) {
  std::string first = TempPath("flatnet_graph_gen1.graph");
  std::string second = TempPath("flatnet_graph_gen2.graph");
  SaveInternetBinary(internet(), first);
  Internet loaded = LoadInternetBinary(first);
  SaveInternetBinary(loaded, second);
  EXPECT_EQ(ReadFileBytes(first), ReadFileBytes(second));
  std::filesystem::remove(first);
  std::filesystem::remove(second);
}

// Both serializations of the same in-memory topology agree on its
// fingerprint. (The text loader assigns dense ids in edge-file encounter
// order, so a *text round trip* renumbers the id space and legitimately
// changes the id-sensitive fingerprint; the binary store preserves ids
// exactly. Agreement therefore means: whatever topology is in memory,
// text-sidecar metadata and binary header describe that same topology.)
TEST_F(GraphStoreTest, TextAndBinaryFormatsAgreeOnFingerprint) {
  std::string stem = TempPath("flatnet_graph_text");
  std::string binary = TempPath("flatnet_graph_text.graph");
  SaveInternet(internet(), stem);
  Internet from_text = LoadInternet(stem);
  std::uint64_t text_fp = from_text.fingerprint();

  // Serialize the text-loaded topology to binary: the stored header
  // fingerprint and the mmap-loaded fingerprint must both equal it.
  SaveInternetBinary(from_text, binary);
  EXPECT_EQ(ReadGraphStoreFingerprint(binary), text_fp);
  EXPECT_EQ(LoadInternetBinary(binary).fingerprint(), text_fp);

  // The binary round trip of the original graph preserves its id space —
  // and with it the original fingerprint.
  std::string direct = TempPath("flatnet_graph_direct.graph");
  SaveInternetBinary(internet(), direct);
  EXPECT_EQ(ReadGraphStoreFingerprint(direct), internet().fingerprint());

  // LoadInternetAuto dispatches on the extension.
  EXPECT_EQ(LoadInternetAuto(binary).num_ases(), internet().num_ases());
  EXPECT_EQ(LoadInternetAuto(stem).num_ases(), internet().num_ases());

  std::filesystem::remove(stem + ".as-rel.txt");
  std::filesystem::remove(stem + ".meta.tsv");
  std::filesystem::remove(binary);
  std::filesystem::remove(direct);
}

// Every mmap-loaded CSR column must equal the builder-produced one — the
// in-process version of `flatnet_diffcheck --graph-identity`.
TEST_F(GraphStoreTest, MappedColumnsMatchBuilderColumns) {
  std::string path = TempPath("flatnet_graph_columns.graph");
  SaveInternetBinary(internet(), path);
  Internet loaded = LoadInternetBinary(path);
  const AsGraph& a = internet().graph();
  const AsGraph& b = loaded.graph();
  auto equal = [](auto x, auto y) {
    return x.size() == y.size() && std::equal(x.begin(), x.end(), y.begin());
  };
  EXPECT_TRUE(equal(a.AsnColumn(), b.AsnColumn()));
  EXPECT_TRUE(equal(a.ByAsnColumn(), b.ByAsnColumn()));
  EXPECT_TRUE(equal(a.SliceColumn(), b.SliceColumn()));
  EXPECT_TRUE(equal(a.EntryIdsColumn(), b.EntryIdsColumn()));
  std::filesystem::remove(path);
}

// ---- corruption modes --------------------------------------------------
//
// Four distinct failure surfaces, each named with file and byte offset:
// header magic, descriptor table, a typed column (pre-CRC check), and the
// CRC footer.

class GraphStoreCorruptionTest : public GraphStoreTest {
 protected:
  void SetUp() override {
    // One file per case and process: ctest runs each case as its own
    // process, and cases running at once would rewrite, truncate and
    // delete one another's memory-mapped file.
    path_ = TempPath(StrFormat("flatnet_graph_corrupt.%s.%d.graph",
                               ::testing::UnitTest::GetInstance()->current_test_info()->name(),
                               ::getpid()));
    SaveInternetBinary(internet(), path_);
    pristine_ = ReadFileBytes(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  // Expects LoadInternetBinary to throw an Error naming the file and the
  // given needle (an offset marker or field name).
  void ExpectLoadError(const std::string& needle, const char* what) {
    try {
      LoadInternetBinary(path_);
      ADD_FAILURE() << "expected load to throw for " << what;
    } catch (const Error& e) {
      std::string message = e.what();
      EXPECT_NE(message.find(path_), std::string::npos)
          << what << ": error must name the file: " << message;
      EXPECT_NE(message.find(needle), std::string::npos)
          << what << ": error must contain \"" << needle << "\": " << message;
    }
  }

  std::string path_;
  std::string pristine_;
};

TEST_F(GraphStoreCorruptionTest, HeaderMagicFlip) {
  std::string bytes = pristine_;
  bytes[0] ^= 0x5a;
  WriteFileBytes(path_, bytes);
  ExpectLoadError(":0:", "flipped magic byte");
}

TEST_F(GraphStoreCorruptionTest, DescriptorEscapesBody) {
  std::string bytes = pristine_;
  // First descriptor (asn_of) lives at offset 48; point it past the file.
  std::uint64_t bogus = bytes.size() * 2;
  std::memcpy(bytes.data() + 48, &bogus, sizeof(bogus));
  WriteFileBytes(path_, bytes);
  ExpectLoadError("asn_of", "descriptor offset out of range");
  ExpectLoadError(":48:", "descriptor error must carry the descriptor offset");
}

TEST_F(GraphStoreCorruptionTest, ColumnValueOutOfRange) {
  std::string bytes = pristine_;
  // The types column holds one byte per AS in [0, kCloud]. Find its offset
  // from descriptor 6 and poison the third entry; the pre-CRC range check
  // must name the exact byte.
  std::uint64_t types_offset = 0;
  std::memcpy(&types_offset, bytes.data() + 48 + 6 * 16, sizeof(types_offset));
  bytes[types_offset + 2] = static_cast<char>(0xee);
  WriteFileBytes(path_, bytes);
  ExpectLoadError("invalid type byte", "poisoned types column");
  ExpectLoadError(StrFormat(":%llu:", static_cast<unsigned long long>(types_offset + 2)),
                  "types error must carry the poisoned byte offset");
}

TEST_F(GraphStoreCorruptionTest, CrcFooterCatchesBitrot) {
  std::string bytes = pristine_;
  // Flip one bit inside entry_ids: structurally plausible, caught only by
  // the checksum.
  std::uint64_t entries_offset = 0;
  std::memcpy(&entries_offset, bytes.data() + 48 + 3 * 16, sizeof(entries_offset));
  bytes[entries_offset + 5] ^= 0x01;
  WriteFileBytes(path_, bytes);
  ExpectLoadError("CRC mismatch", "flipped bit in entry_ids");
}

TEST_F(GraphStoreCorruptionTest, TruncationIsLoud) {
  WriteFileBytes(path_, pristine_.substr(0, pristine_.size() / 2));
  ExpectLoadError(path_, "truncated store");
}

// ---- streaming generator ------------------------------------------------

TEST(EdgeRunSorter, MergedOrderIsIdenticalAcrossBudgets) {
  // Unique keys in scrambled order; any budget must replay them sorted.
  std::vector<HalfEdge> records;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    records.push_back({(i * 2654435761u) % 977, i % 3, i});
  }
  auto drain_with_budget = [&](std::uint64_t budget) {
    EdgeRunSorter sorter(TempPath("flatnet_edge_runs"), budget);
    for (const HalfEdge& record : records) sorter.Add(record);
    std::vector<HalfEdge> out;
    sorter.Drain([&](const HalfEdge& record) { out.push_back(record); });
    return out;
  };
  std::vector<HalfEdge> in_memory = drain_with_budget(0);
  ASSERT_EQ(in_memory.size(), records.size());
  EXPECT_TRUE(std::is_sorted(in_memory.begin(), in_memory.end()));
  for (std::uint64_t budget : {sizeof(HalfEdge) * 100, sizeof(HalfEdge) * 4096 + 1}) {
    std::vector<HalfEdge> spilled = drain_with_budget(budget);
    ASSERT_EQ(spilled.size(), in_memory.size());
    for (std::size_t k = 0; k < spilled.size(); ++k) {
      EXPECT_EQ(spilled[k].node, in_memory[k].node);
      EXPECT_EQ(spilled[k].bucket, in_memory[k].bucket);
      EXPECT_EQ(spilled[k].neighbor, in_memory[k].neighbor);
    }
  }
}

TEST(PairKeySet, InsertContainsAndGrowth) {
  PairKeySet set;
  for (std::uint64_t k = 1; k <= 100000; ++k) {
    EXPECT_TRUE(set.Insert(k * 0x9e3779b97f4a7c15ull | 1));
  }
  EXPECT_EQ(set.size(), 100000u);
  for (std::uint64_t k = 1; k <= 100000; ++k) {
    EXPECT_FALSE(set.Insert(k * 0x9e3779b97f4a7c15ull | 1));
    EXPECT_TRUE(set.Contains(k * 0x9e3779b97f4a7c15ull | 1));
  }
  EXPECT_FALSE(set.Contains(2));
}

// The tentpole determinism claim: a generation that spills sorted runs to
// disk produces bit-for-bit the same topology as the all-in-memory path.
TEST(StreamingGenerate, SpillingMatchesInMemoryBitForBit) {
  GeneratorParams in_memory_params = GeneratorParams::Era2015(600);
  in_memory_params.seed = 909;
  World baseline = GenerateWorld(in_memory_params);

  GeneratorParams spilling_params = in_memory_params;
  spilling_params.stream_budget_bytes = 16 * 1024;  // forces many spill runs
  spilling_params.stream_dir = std::filesystem::temp_directory_path().string();
  World streamed = GenerateWorld(spilling_params);

  auto equal = [](auto x, auto y) {
    return x.size() == y.size() && std::equal(x.begin(), x.end(), y.begin());
  };
  EXPECT_TRUE(equal(baseline.full_graph.AsnColumn(), streamed.full_graph.AsnColumn()));
  EXPECT_TRUE(equal(baseline.full_graph.SliceColumn(), streamed.full_graph.SliceColumn()));
  EXPECT_TRUE(
      equal(baseline.full_graph.EntryIdsColumn(), streamed.full_graph.EntryIdsColumn()));
  EXPECT_TRUE(equal(baseline.bgp_graph.SliceColumn(), streamed.bgp_graph.SliceColumn()));
  EXPECT_TRUE(equal(baseline.bgp_graph.EntryIdsColumn(), streamed.bgp_graph.EntryIdsColumn()));
}

// assign_prefixes draws no randomness, so turning it off (the million-AS
// graph-only mode) must leave the topology untouched.
TEST(StreamingGenerate, PrefixAssignmentDoesNotPerturbTopology) {
  GeneratorParams with_prefixes = GeneratorParams::Era2015(600);
  with_prefixes.seed = 909;
  World baseline = GenerateWorld(with_prefixes);

  GeneratorParams without_prefixes = with_prefixes;
  without_prefixes.assign_prefixes = false;
  World bare = GenerateWorld(without_prefixes);

  EXPECT_EQ(baseline.full_graph.num_edges(), bare.full_graph.num_edges());
  auto slice_a = baseline.full_graph.SliceColumn();
  auto slice_b = bare.full_graph.SliceColumn();
  EXPECT_TRUE(slice_a.size() == slice_b.size() &&
              std::equal(slice_a.begin(), slice_a.end(), slice_b.begin()));
  for (const auto& per_as : bare.prefixes) EXPECT_TRUE(per_as.empty());
  EXPECT_FALSE(baseline.prefixes[0].empty());
}

}  // namespace
}  // namespace flatnet
