#include "sweep/engine.h"

#include <algorithm>
#include <array>
#include <memory>

#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "campaign/journal.h"
#include "campaign/runner.h"
#include "core/fingerprint.h"
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

// Thread-local compute state: one BFS engine plus one reusable scratch
// mask per baseline exclusion set. Per origin the scratch is patched (set
// the origin's providers, drop the origin itself) and restored — no
// O(n) mask copy and no allocation on the steady state.
class Worker final : public campaign::ChunkWorker {
 public:
  Worker(const Internet& internet, std::uint32_t columns)
      : internet_(internet),
        engine_(internet.graph()),
        columns_(columns),
        present_(PresentColumns(columns)),
        provider_scratch_(internet.num_ases()),
        tier1_scratch_(internet.tiers().tier1_mask),
        hierarchy_scratch_(internet.tiers().tier1_mask) {
    hierarchy_scratch_ |= internet.tiers().tier2_mask;
  }

  // The payload is column-major: the k-th present column's values for the
  // chunk's origins fill payload[k * count, (k + 1) * count).
  void Evaluate(const campaign::Chunk& chunk, std::span<std::uint32_t> payload) override {
    for (std::size_t i = 0; i < chunk.count; ++i) {
      AsId origin = static_cast<AsId>(chunk.begin + i);
      std::array<std::uint32_t, kNumSweepColumns> row{};
      if (columns_ & ColumnBit(SweepColumn::kProviderFree)) {
        row[0] = CountWithScratch(origin, provider_scratch_);
      }
      if (columns_ & ColumnBit(SweepColumn::kTier1Free)) {
        row[1] = CountWithScratch(origin, tier1_scratch_);
      }
      if (columns_ & ColumnBit(SweepColumn::kHierarchyFree)) {
        row[2] = CountWithScratch(origin, hierarchy_scratch_);
      }
      if (columns_ & kPathColumns) PathBins(origin, &row[3], &row[4], &row[5]);
      for (std::size_t k = 0; k < present_.size(); ++k) {
        payload[k * chunk.count + i] = row[static_cast<std::size_t>(present_[k])];
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

  // reach(origin, I \ base \ P(origin)), with the origin itself never
  // excluded — the same patch-and-restore the serial HierarchyFreeSweep
  // uses, generalized to any baseline mask.
  std::uint32_t CountWithScratch(AsId origin, Bitset& mask) {
    bool origin_in_mask = mask.Test(origin);
    if (origin_in_mask) mask.Reset(origin);
    flipped_.clear();
    for (const Neighbor& nb : internet_.graph().Providers(origin)) {
      if (!mask.Test(nb.id)) {
        mask.Set(nb.id);
        flipped_.push_back(nb.id);
      }
    }
    std::uint32_t count = static_cast<std::uint32_t>(engine_.Count(origin, &mask));
    for (AsId id : flipped_) mask.Reset(id);
    if (origin_in_mask) mask.Set(origin);
    return count;
  }

  const Internet& internet_;
  ReachabilityEngine engine_;
  std::uint32_t columns_;
  std::vector<SweepColumn> present_;
  Bitset provider_scratch_;   // empty baseline
  Bitset tier1_scratch_;      // T1 baseline
  Bitset hierarchy_scratch_;  // T1 | T2 baseline
  std::vector<AsId> flipped_;
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
  table.fingerprint = TopologyFingerprint(internet);
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
  auto make_worker = [&] { return std::make_unique<Worker>(internet, options.columns); };
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

std::vector<std::uint32_t> ParallelHierarchyFreeSweep(const Internet& internet,
                                                      std::size_t threads) {
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
