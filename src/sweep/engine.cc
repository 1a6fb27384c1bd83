#include "sweep/engine.h"

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <optional>
#include <span>

#include "bgp/batch_reach.h"
#include "bgp/propagation.h"
#include "campaign/journal.h"
#include "campaign/runner.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace flatnet::sweep {
namespace {

std::vector<SweepColumn> PresentColumns(std::uint32_t columns) {
  std::vector<SweepColumn> present;
  for (std::size_t c = 0; c < kNumSweepColumns; ++c) {
    if (columns & (1u << c)) present.push_back(static_cast<SweepColumn>(c));
  }
  return present;
}

// Kernel column c is SweepColumn c: the same baselines in the same order.
static_assert(static_cast<std::size_t>(SweepColumn::kHierarchyFree) + 1 == kBatchColumns);

// Thread-local compute state. The reach columns come from the bit-parallel
// kernel (bgp/batch_reach.h) over the layout RunSweep builds once: a chunk
// fills ceil(count / 64) batches of consecutive origins, so chunks of fewer
// than 64 origins leave lanes idle. The path columns stay one
// RouteComputation per origin.
class Worker final : public campaign::ChunkWorker {
 public:
  Worker(const Internet& internet, const BatchReachLayout* layout, std::uint32_t columns)
      : internet_(internet),
        present_(PresentColumns(columns)),
        has_paths_((columns & kPathColumns) != 0) {
    if (layout != nullptr) batch_.emplace(*layout);
  }

  // The payload is column-major: the k-th present column's values for the
  // chunk's origins fill payload[k * count, (k + 1) * count).
  void Evaluate(const campaign::Chunk& chunk, std::span<std::uint32_t> payload) override {
    std::array<AsId, kBatchLanes> origins{};
    for (std::size_t start = 0; batch_ && start < chunk.count; start += kBatchLanes) {
      std::size_t lanes = std::min(kBatchLanes, chunk.count - start);
      std::span<AsId> batch(origins.data(), lanes);
      std::iota(batch.begin(), batch.end(), static_cast<AsId>(chunk.begin + start));
      batch_->Run(batch);
      for (std::size_t k = 0; k < present_.size(); ++k) {
        auto column = static_cast<std::size_t>(present_[k]);
        if (column >= kBatchColumns) continue;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          payload[k * chunk.count + start + lane] = batch_->Count(column, lane);
        }
      }
    }
    if (!has_paths_) return;
    for (std::size_t i = 0; i < chunk.count; ++i) {
      std::array<std::uint32_t, kNumSweepColumns> row{};
      PathBins(static_cast<AsId>(chunk.begin + i), &row[3], &row[4], &row[5]);
      for (std::size_t k = 0; k < present_.size(); ++k) {
        auto column = static_cast<std::size_t>(present_[k]);
        if (column >= kBatchColumns) payload[k * chunk.count + i] = row[column];
      }
    }
  }

 private:
  void PathBins(AsId origin, std::uint32_t* one, std::uint32_t* two,
                std::uint32_t* three_plus) {
    AnnouncementSource source;
    source.node = origin;
    RouteComputation computation(internet_.graph(), {source});
    for (AsId node = 0; node < internet_.num_ases(); ++node) {
      if (node == origin) continue;
      const RouteEntry& entry = computation.Route(node);
      if (!entry.HasRoute()) continue;
      if (entry.length <= 1) {
        ++*one;
      } else if (entry.length == 2) {
        ++*two;
      } else {
        ++*three_plus;
      }
    }
  }

  const Internet& internet_;
  std::vector<SweepColumn> present_;
  bool has_paths_;
  std::optional<BatchReachEngine> batch_;  // engaged when a reach column is present
};

}  // namespace

SweepTable RunSweep(const Internet& internet, const SweepOptions& options,
                    SweepRunStats* stats) {
  if (options.columns == 0 || (options.columns >> kNumSweepColumns) != 0) {
    throw InvalidArgument(StrFormat("RunSweep: invalid column bitmask 0x%x", options.columns));
  }

  obs::TraceSpan run_span("sweep.run");
  Stopwatch stopwatch;
  std::size_t n = internet.num_ases();
  std::vector<SweepColumn> present = PresentColumns(options.columns);

  SweepTable table;
  table.fingerprint = internet.fingerprint();
  table.columns = options.columns;
  table.num_origins = n;
  for (SweepColumn c : present) table.MutableColumn(c).assign(n, 0);

  campaign::ChunkPlan plan;
  plan.component = "sweep";
  plan.op = "RunSweep";
  plan.unit = "origins";
  plan.units_counter = "origins_computed";
  plan.num_units = n;
  plan.chunk_size = options.chunk_size;
  plan.words_per_unit = present.size();
  plan.fingerprint = table.fingerprint;
  plan.columns = options.columns;
  // The kernel's pass order, built once and shared read-only by every worker.
  std::optional<BatchReachLayout> layout;
  if (options.columns & kReachColumns) {
    const TierSets& tiers = internet.tiers();
    layout.emplace(internet.graph(), tiers.tier1_mask, tiers.HierarchyMask());
  }
  auto make_worker = [&] {
    return std::make_unique<Worker>(internet, layout ? &*layout : nullptr, options.columns);
  };
  auto apply = [&](const campaign::Chunk& chunk, std::span<const std::uint32_t> payload) {
    for (std::size_t k = 0; k < present.size(); ++k) {
      std::vector<std::uint32_t>& column = table.MutableColumn(present[k]);
      std::copy_n(payload.data() + k * chunk.count, chunk.count, column.data() + chunk.begin);
    }
  };
  campaign::RunStats run = campaign::RunChunks(plan, options, make_worker, apply);

  if (stats != nullptr) {
    stats->chunks_total = run.chunks_total;
    stats->chunks_resumed = run.chunks_resumed;
    stats->chunks_computed = run.chunks_computed;
    stats->origins_computed = run.units_computed;
    stats->complete = run.complete;
    stats->seconds = stopwatch.ElapsedSeconds();
  }
  return table;
}

std::vector<std::uint32_t> HierarchyFreeSweep(const Internet& internet, std::size_t threads) {
  SweepOptions options;
  options.threads = threads;
  options.columns = ColumnBit(SweepColumn::kHierarchyFree);
  SweepTable table = RunSweep(internet, options);
  return std::move(table.MutableColumn(SweepColumn::kHierarchyFree));
}

void FinalizeSweepStore(const std::string& path, const SweepTable& table,
                        const std::string& journal_path) {
  WriteSweepStore(path, table);
  campaign::RemoveJournal(journal_path);
}

}  // namespace flatnet::sweep
