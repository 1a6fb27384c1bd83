// Tests for the shared campaign runner (src/campaign/): the checkpoint
// journal and its frozen format, the runner's resume-time record checks,
// the exact max_chunks budget and worker-error capture. The runner flags
// the campaign CLIs share are tested with the rest of the CLI in
// cli_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.h"
#include "campaign/runner.h"
#include "failsim/engine.h"
#include "leaksim/engine.h"
#include "sweep/engine.h"
#include "topogen/generate.h"
#include "util/error.h"

namespace flatnet {
namespace {

using campaign::Chunk;
using campaign::ChunkPlan;
using campaign::Journal;
using campaign::JournalMeta;
using campaign::RunChunks;
using campaign::RunOptions;
using campaign::RunStats;

using Records = std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>>;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

std::uint64_t Fnv1aBytes(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// A synthetic campaign: unit u's payload is (u, ~u), so every record says
// which units it holds.
constexpr std::size_t kWords = 2;

ChunkPlan TestPlan(std::size_t units, std::uint32_t chunk_size) {
  ChunkPlan plan;
  plan.component = "test.runner";
  plan.op = "TestRun";
  plan.unit = "units";
  plan.units_counter = "units_done";
  plan.num_units = units;
  plan.chunk_size = chunk_size;
  plan.words_per_unit = kWords;
  plan.fingerprint = 0x5eed;
  plan.columns = 1;
  return plan;
}

JournalMeta MetaOf(const ChunkPlan& plan) {
  return JournalMeta{plan.fingerprint, plan.num_units, plan.columns, plan.chunk_size};
}

class UnitWorker final : public campaign::ChunkWorker {
 public:
  explicit UnitWorker(int sleep_ms) : sleep_ms_(sleep_ms) {}

  void Evaluate(const Chunk& chunk, std::span<std::uint32_t> payload) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    for (std::size_t i = 0; i < chunk.count; ++i) {
      auto unit = static_cast<std::uint32_t>(chunk.begin + i);
      payload[kWords * i] = unit;
      payload[kWords * i + 1] = ~unit;
    }
  }

 private:
  int sleep_ms_;
};

RunStats RunUnits(const ChunkPlan& plan, const RunOptions& options,
                  std::vector<std::uint32_t>* table, int sleep_ms = 0) {
  table->assign(plan.num_units * kWords, 0);
  auto make_worker = [&] { return std::make_unique<UnitWorker>(sleep_ms); };
  auto apply = [&](const Chunk& chunk, std::span<const std::uint32_t> payload) {
    std::copy(payload.begin(), payload.end(), table->data() + chunk.begin * kWords);
  };
  return RunChunks(plan, options, make_worker, apply);
}

class CampaignTest : public ::testing::Test {
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
};

TEST_F(CampaignTest, JournalRejectsMismatchedMeta) {
  std::string path = TempPath("flatnet_campaign_meta.journal");
  JournalMeta meta;
  meta.fingerprint = 0xabcdef;
  meta.num_units = 500;
  meta.columns = sweep::ColumnBit(sweep::SweepColumn::kHierarchyFree);
  meta.chunk_size = 32;
  {
    Journal created = Journal::Create(path, meta);
    std::uint32_t values[32] = {1, 2, 3};
    created.AppendChunk(0, values, 32);
  }

  Records chunks;
  Journal recovered = Journal::Recover(path, meta, &chunks);
  recovered.Close();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 0u);
  EXPECT_EQ(chunks[0].second.size(), 32u);

  // Any keyed field changing (here: chunk size, then fingerprint) must
  // refuse the journal instead of resuming against the wrong inputs.
  JournalMeta wrong_chunk = meta;
  wrong_chunk.chunk_size = 64;
  chunks.clear();
  EXPECT_THROW(Journal::Recover(path, wrong_chunk, &chunks), Error);
  JournalMeta wrong_topology = meta;
  wrong_topology.fingerprint = 0x1234;
  chunks.clear();
  EXPECT_THROW(Journal::Recover(path, wrong_topology, &chunks), Error);
  std::filesystem::remove(path);
}

// The journal format is frozen: journals written by earlier binaries must
// keep resuming. Each digest is FNV-1a over the bytes of a seeded partial
// run's journal (one thread, so the journaled chunks are the first ones),
// recorded before the engines moved onto the shared runner.
TEST_F(CampaignTest, JournalBytesArePinned) {
  std::string path = TempPath("flatnet_campaign_pinned.journal");
  auto digest_and_remove = [&] {
    std::uint64_t digest = Fnv1aBytes(ReadFileBytes(path));
    std::filesystem::remove(path);
    return digest;
  };
  std::filesystem::remove(path);

  sweep::SweepOptions sweep_options;
  sweep_options.threads = 1;
  sweep_options.chunk_size = 32;
  sweep_options.columns = sweep::kReachColumns | sweep::kPathColumns;
  sweep_options.journal_path = path;
  sweep_options.max_chunks = 3;
  sweep::RunSweep(internet(), sweep_options);
  EXPECT_EQ(digest_and_remove(), 0x5ef9486c4392a1f4ull);

  std::vector<double> users = internet().metadata().UserArray();

  std::vector<leaksim::LeakCellSpec> leak_cells(2);
  leak_cells[0].victim = world().tiers.tier1[0];
  leak_cells[0].seed = 5;
  leak_cells[0].trials = 40;
  leak_cells[1].victim = 123;
  leak_cells[1].scenario = LeakScenario::kAnnounceAllLockT1;
  leak_cells[1].seed = 6;
  leak_cells[1].trials = 40;
  leaksim::LeakCampaignOptions leak_options;
  leak_options.threads = 1;
  leak_options.chunk_trials = 16;
  leak_options.users = &users;
  leak_options.journal_path = path;
  leak_options.max_chunks = 3;
  leaksim::RunLeakCampaign(internet(), leak_cells, leak_options);
  EXPECT_EQ(digest_and_remove(), 0x358fcc825c2e3688ull);

  std::vector<failsim::FailCellSpec> fail_cells;
  auto add_cell = [&](failsim::FailScenario scenario, std::uint32_t severity,
                      std::uint64_t seed, std::uint32_t trials) {
    failsim::FailCellSpec spec;
    spec.origin = 7;
    spec.scenario = scenario;
    spec.severity = severity;
    spec.seed = seed;
    spec.trials = trials;
    fail_cells.push_back(spec);
  };
  add_cell(failsim::FailScenario::kSingleAs, 0, 9, 20);
  add_cell(failsim::FailScenario::kLinkSet, 2, 10, 10);
  add_cell(failsim::FailScenario::kHegemonyCascade, 0, 11, 5);
  add_cell(failsim::FailScenario::kTier1, 0, 12, 4);
  failsim::FailCampaignOptions fail_options;
  fail_options.threads = 1;
  fail_options.chunk_trials = 4;
  fail_options.users = &users;
  fail_options.journal_path = path;
  fail_options.max_chunks = 5;
  failsim::RunFailureCampaign(internet(), fail_cells, fail_options);
  EXPECT_EQ(digest_and_remove(), 0x481d8af66dcf0434ull);
}

// Every worker here is mid-chunk at once (each chunk sleeps), which is
// where a check-before-claim budget overshoots.
TEST_F(CampaignTest, MaxChunksIsExactAtAnyThreadCount) {
  std::string path = TempPath("flatnet_campaign_budget.journal");
  for (std::uint32_t max_chunks : {1u, 3u}) {
    std::filesystem::remove(path);
    ChunkPlan plan = TestPlan(64, 4);
    RunOptions options;
    options.threads = 4;
    options.max_chunks = max_chunks;
    options.journal_path = path;
    std::vector<std::uint32_t> table;
    RunStats stats = RunUnits(plan, options, &table, /*sleep_ms=*/20);
    EXPECT_EQ(stats.chunks_computed, max_chunks);
    EXPECT_EQ(stats.units_computed, max_chunks * 4u);
    EXPECT_FALSE(stats.complete);

    Records records;
    Journal::Recover(path, MetaOf(plan), &records).Close();
    EXPECT_EQ(records.size(), max_chunks);
  }
  std::filesystem::remove(path);
}

TEST_F(CampaignTest, ResumedChunksReachTheTableThroughApply) {
  std::string path = TempPath("flatnet_campaign_resume.journal");
  std::filesystem::remove(path);
  ChunkPlan plan = TestPlan(30, 4);  // a short last chunk
  std::vector<std::uint32_t> reference;
  RunUnits(plan, {}, &reference);

  RunOptions partial;
  partial.threads = 2;
  partial.journal_path = path;
  partial.max_chunks = 5;
  std::vector<std::uint32_t> table;
  EXPECT_FALSE(RunUnits(plan, partial, &table).complete);

  RunOptions resume = partial;
  resume.resume = true;
  resume.max_chunks = 0;
  RunStats stats = RunUnits(plan, resume, &table);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.chunks_resumed, 5u);
  EXPECT_EQ(stats.chunks_computed, stats.chunks_total - 5);
  EXPECT_EQ(table, reference);
  std::filesystem::remove(path);
}

// CRC-valid records the plan cannot hold must stop the resume, naming the
// journal, rather than write outside the table.
TEST_F(CampaignTest, ResumeRejectsRecordsThePlanCannotHold) {
  ChunkPlan plan = TestPlan(30, 4);  // chunks 0..7, the last holding 2 units
  std::string path = TempPath("flatnet_campaign_bad_record.journal");
  auto expect_rejected = [&](std::uint32_t chunk, std::size_t values, const std::string& what) {
    {
      Journal journal = Journal::Create(path, MetaOf(plan));
      std::vector<std::uint32_t> record(values, 0);
      journal.AppendChunk(chunk, record.data(), record.size());
    }
    RunOptions options;
    options.journal_path = path;
    options.resume = true;
    std::vector<std::uint32_t> table;
    try {
      RunUnits(plan, options, &table);
      ADD_FAILURE() << what << ": resume accepted a bad record";
    } catch (const Error& e) {
      std::string message = e.what();
      EXPECT_NE(message.find(path), std::string::npos) << message;
      EXPECT_NE(message.find(what), std::string::npos) << message;
    }
    std::filesystem::remove(path);
  };
  expect_rejected(8, 8, "record for chunk 8 is out of range (8 chunks)");
  expect_rejected(7, 8, "record for chunk 7 holds 8 values, expected 4");
  expect_rejected(0, 6, "record for chunk 0 holds 6 values, expected 8");
}

TEST_F(CampaignTest, WorkerErrorIsRethrownAfterThePoolDrains) {
  class FailingWorker final : public campaign::ChunkWorker {
   public:
    void Evaluate(const Chunk& chunk, std::span<std::uint32_t>) override {
      if (chunk.index == 3) throw std::runtime_error("chunk 3 exploded");
    }
  };
  RunOptions options;
  options.threads = 4;
  auto make_worker = [] { return std::make_unique<FailingWorker>(); };
  auto apply = [](const Chunk&, std::span<const std::uint32_t>) {};
  try {
    RunChunks(TestPlan(64, 4), options, make_worker, apply);
    ADD_FAILURE() << "worker error was swallowed";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "TestRun: chunk 3 exploded");
  }
}

}  // namespace
}  // namespace flatnet
