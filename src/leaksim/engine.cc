#include "leaksim/engine.h"

#include <memory>

#include "campaign/journal.h"
#include "campaign/runner.h"
#include "core/fingerprint.h"
#include "core/leak_scenarios.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace flatnet::leaksim {
namespace {

// The serial prep product: one experiment + pre-drawn leakers per cell,
// and the prefix sums mapping global trial indices back to (cell, local).
struct PreparedCampaign {
  std::vector<std::unique_ptr<LeakExperiment>> experiments;
  std::vector<std::vector<AsId>> leakers;
  std::vector<std::size_t> offsets;  // cells.size() + 1 entries
  std::size_t total_trials = 0;
  std::size_t draw_attempts = 0;
};

PreparedCampaign Prepare(const Internet& internet, const std::vector<LeakCellSpec>& cells,
                         const std::vector<double>* users, LeakTable& table) {
  obs::TraceSpan prep_span("leaksim.prepare");
  PreparedCampaign prep;
  std::size_t n = internet.num_ases();
  prep.experiments.reserve(cells.size());
  prep.leakers.reserve(cells.size());
  prep.offsets.reserve(cells.size() + 1);
  prep.offsets.push_back(0);
  table.cells.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const LeakCellSpec& spec = cells[i];
    if (spec.victim >= n) {
      throw InvalidArgument(StrFormat("RunLeakCampaign: cell %zu victim %u out of range "
                                      "(%zu ASes)",
                                      i, spec.victim, n));
    }
    LeakConfig config =
        LeakConfigForScenario(internet, spec.victim, spec.scenario, spec.lock_mode);
    config.model = spec.model;
    prep.experiments.push_back(
        std::make_unique<LeakExperiment>(internet.graph(), spec.victim, config, users));
    Rng rng(spec.seed);
    LeakDraw draw = DrawLeakers(*prep.experiments.back(), n, spec.trials, rng);
    prep.draw_attempts += draw.attempts;

    LeakCellResult cell;
    cell.spec = spec;
    cell.attempts = draw.attempts;
    cell.fraction_ases.resize(draw.leakers.size(), 0.0);
    if (users != nullptr) cell.fraction_users.resize(draw.leakers.size(), 0.0);
    table.cells.push_back(std::move(cell));

    prep.total_trials += draw.leakers.size();
    prep.offsets.push_back(prep.total_trials);
    prep.leakers.push_back(std::move(draw.leakers));
  }
  return prep;
}

// Per trial the payload holds the AS fraction, then — when users are
// weighted — the user fraction, each as a campaign::EncodeDouble word pair.
std::size_t WordsPerTrial(bool has_users) { return has_users ? 4 : 2; }

class TrialWorker final : public campaign::ChunkWorker {
 public:
  TrialWorker(const PreparedCampaign& prep, bool has_users)
      : prep_(prep), has_users_(has_users) {}

  void Evaluate(const campaign::Chunk& chunk, std::span<std::uint32_t> payload) override {
    std::size_t words = WordsPerTrial(has_users_);
    campaign::ForEachCellUnit(prep_.offsets, chunk, [&](auto cell, auto local, auto i) {
      // Engaged by construction: the draw only kept CanLeak leakers.
      AsId leaker = prep_.leakers[cell][local];
      LeakOutcome outcome = *prep_.experiments[cell]->Run(leaker, workspace_);
      std::uint32_t* at = &payload[i * words];
      campaign::EncodeDouble(outcome.fraction_ases_detoured, at);
      if (has_users_) campaign::EncodeDouble(outcome.fraction_users_detoured, at + 2);
    });
  }

 private:
  const PreparedCampaign& prep_;
  bool has_users_;
  LeakWorkspace workspace_;
};

}  // namespace

std::uint64_t CampaignFingerprint(const Internet& internet,
                                  const std::vector<LeakCellSpec>& cells, bool has_users) {
  Fnv1a64 hash;
  hash.Mix(internet.fingerprint());
  hash.Mix(has_users ? 1 : 0);
  hash.Mix(cells.size());
  for (const LeakCellSpec& spec : cells) {
    hash.Mix(spec.victim);
    hash.Mix(static_cast<std::uint64_t>(spec.scenario));
    hash.Mix(static_cast<std::uint64_t>(spec.lock_mode));
    hash.Mix(static_cast<std::uint64_t>(spec.model));
    hash.Mix(spec.seed);
    hash.Mix(spec.trials);
  }
  return hash.value();
}

LeakTable RunLeakCampaign(const Internet& internet, const std::vector<LeakCellSpec>& cells,
                          const LeakCampaignOptions& options, LeakCampaignStats* stats) {
  if (options.users != nullptr && options.users->size() != internet.num_ases()) {
    throw InvalidArgument(StrFormat("RunLeakCampaign: %zu user weights for %zu ASes",
                                    options.users->size(), internet.num_ases()));
  }

  obs::TraceSpan run_span("leaksim.run");
  Stopwatch stopwatch;

  LeakTable table;
  table.fingerprint = internet.fingerprint();
  table.has_users = options.users != nullptr;
  PreparedCampaign prep = Prepare(internet, cells, options.users, table);

  // Units are global trial indices. The journal key is the campaign
  // fingerprint, so a resume against a different topology, cell list, or
  // user-weight flag fails loudly.
  std::size_t words = WordsPerTrial(table.has_users);
  campaign::ChunkPlan plan;
  plan.component = "leaksim";
  plan.op = "RunLeakCampaign";
  plan.unit = "trials";
  plan.units_counter = "trials_evaluated";
  plan.num_units = prep.total_trials;
  plan.chunk_size = options.chunk_trials;
  plan.words_per_unit = words;
  plan.fingerprint = CampaignFingerprint(internet, cells, table.has_users);
  plan.columns = table.has_users ? 0x3 : 0x1;
  auto make_worker = [&] { return std::make_unique<TrialWorker>(prep, table.has_users); };
  auto apply = [&](const campaign::Chunk& chunk, std::span<const std::uint32_t> payload) {
    campaign::ForEachCellUnit(prep.offsets, chunk, [&](auto cell, auto local, auto i) {
      LeakCellResult& result = table.cells[cell];
      const std::uint32_t* at = &payload[i * words];
      result.fraction_ases[local] = campaign::DecodeDouble(at);
      if (table.has_users) result.fraction_users[local] = campaign::DecodeDouble(at + 2);
    });
  };
  campaign::RunStats run = campaign::RunChunks(plan, options, make_worker, apply);

  if (stats != nullptr) {
    stats->chunks_total = run.chunks_total;
    stats->chunks_resumed = run.chunks_resumed;
    stats->chunks_computed = run.chunks_computed;
    stats->trials_evaluated = run.units_computed;
    stats->draw_attempts = prep.draw_attempts;
    stats->complete = run.complete;
    stats->seconds = stopwatch.ElapsedSeconds();
  }
  return table;
}

void FinalizeLeakStore(const std::string& path, const LeakTable& table,
                       const std::string& journal_path) {
  WriteLeakStore(path, table);
  campaign::RemoveJournal(journal_path);
}

}  // namespace flatnet::leaksim
