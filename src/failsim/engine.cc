#include "failsim/engine.h"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "bgp/hegemony.h"
#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "campaign/journal.h"
#include "campaign/runner.h"
#include "core/fingerprint.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/narrow.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace flatnet::failsim {
namespace {

// The serial prep product: per-cell baseline reach sets and pre-drawn
// knockout material, and the prefix sums mapping global trial indices
// back to (cell, local).
struct PreparedCampaign {
  std::vector<Bitset> baselines;                  // intact reach set, origin included
  std::vector<double> baseline_users;             // Σ users over baseline destinations
  std::vector<std::vector<AsLink>> failed_links;  // kLinkSet: trials×severity links
  std::vector<std::size_t> offsets;               // cells.size() + 1 entries
  std::size_t total_trials = 0;
};

// Resolves an index into AsGraph::EdgeList() order to the edge's AsId
// pair without materializing the list. That order walks node ids
// ascending and emits each node's customers, then its peers with a larger
// id; a prefix sum over those per-node counts locates the owner by binary
// search.
class EdgeIndex {
 public:
  explicit EdgeIndex(const AsGraph& graph) : graph_(graph), first_(graph.num_ases() + 1, 0) {
    std::size_t owned = 0;
    for (AsId id = 0; id < graph.num_ases(); ++id) {
      std::span<const AsId> peers = graph.PeerIds(id);
      owned += graph.CustomerIds(id).size() +
               static_cast<std::size_t>(peers.end() -
                                        std::upper_bound(peers.begin(), peers.end(), id));
      first_[id + 1] = CheckedNarrow32(owned, "failsim edge index");
    }
  }

  AsLink Link(std::uint32_t edge) const {
    AsId owner = static_cast<AsId>(std::upper_bound(first_.begin(), first_.end(), edge) -
                                   first_.begin() - 1);
    std::uint32_t rank = edge - first_[owner];
    std::span<const AsId> customers = graph_.CustomerIds(owner);
    if (rank < customers.size()) return {owner, customers[rank]};
    std::span<const AsId> peers = graph_.PeerIds(owner);
    auto higher = std::upper_bound(peers.begin(), peers.end(), owner);
    return {owner, higher[rank - customers.size()]};
  }

 private:
  const AsGraph& graph_;
  std::vector<std::uint32_t> first_;  // first edge index owned by each node; n + 1 entries
};

PreparedCampaign Prepare(const Internet& internet, const std::vector<FailCellSpec>& cells,
                         const FailCampaignOptions& options, FailTable& table) {
  obs::TraceSpan prep_span("failsim.prepare");
  const AsGraph& graph = internet.graph();
  std::size_t n = internet.num_ases();
  PreparedCampaign prep;
  prep.baselines.reserve(cells.size());
  prep.baseline_users.reserve(cells.size());
  prep.failed_links.resize(cells.size());
  prep.offsets.reserve(cells.size() + 1);
  prep.offsets.push_back(0);
  table.cells.reserve(cells.size());

  ReachabilityEngine engine(graph);
  std::optional<EdgeIndex> edge_index;  // built on the first link_set cell
  // Hegemony rankings are deterministic per origin; cells sharing an
  // origin share the computation.
  std::map<AsId, std::vector<AsId>> rankings;

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const FailCellSpec& spec = cells[i];
    if (spec.origin >= n) {
      throw InvalidArgument(StrFormat("RunFailureCampaign: cell %zu origin %u out of range "
                                      "(%zu ASes)",
                                      i, spec.origin, n));
    }
    if (spec.scenario == FailScenario::kLinkSet) {
      if (spec.severity == 0 || spec.severity > graph.num_edges()) {
        throw InvalidArgument(StrFormat("RunFailureCampaign: cell %zu link severity %u out "
                                        "of range (%zu links)",
                                        i, spec.severity, graph.num_edges()));
      }
    } else if (spec.severity != 0) {
      throw InvalidArgument(StrFormat("RunFailureCampaign: cell %zu severity %u is only "
                                      "meaningful for link_set cells",
                                      i, spec.severity));
    }

    FailCellResult cell;
    cell.spec = spec;

    Bitset baseline;
    engine.ComputeInto(spec.origin, nullptr, baseline);
    std::size_t baseline_count = baseline.Count();
    cell.baseline = baseline_count > 0 ? baseline_count - 1 : 0;  // destinations only
    double users_total = 0.0;
    if (options.users != nullptr) {
      for (std::size_t w = 0; w < baseline.num_words(); ++w) {
        std::uint64_t word = baseline.Word(w);
        while (word != 0) {
          std::size_t a = 64 * w + static_cast<std::size_t>(std::countr_zero(word));
          if (a != spec.origin) users_total += (*options.users)[a];
          word &= word - 1;
        }
      }
    }
    prep.baselines.push_back(std::move(baseline));
    prep.baseline_users.push_back(users_total);

    Rng rng(spec.seed);
    std::size_t collected = 0;
    switch (spec.scenario) {
      case FailScenario::kSingleAs: {
        std::uint32_t avail = CheckedNarrow32(n - 1, "RunFailureCampaign single_as pool");
        std::uint32_t k = std::min(spec.trials, avail);
        for (std::uint32_t idx : rng.SampleWithoutReplacement(avail, k)) {
          // Index space skips the origin.
          cell.targets.push_back(idx < spec.origin ? idx : idx + 1);
        }
        collected = k;
        break;
      }
      case FailScenario::kTier1: {
        std::vector<AsId> pool;
        for (AsId t1 : internet.tiers().tier1) {
          if (t1 != spec.origin) pool.push_back(t1);
        }
        std::uint32_t k =
            std::min<std::uint32_t>(spec.trials, static_cast<std::uint32_t>(pool.size()));
        for (std::uint32_t idx :
             rng.SampleWithoutReplacement(static_cast<std::uint32_t>(pool.size()), k)) {
          cell.targets.push_back(pool[idx]);
        }
        collected = k;
        break;
      }
      case FailScenario::kHegemonyCascade: {
        auto it = rankings.find(spec.origin);
        if (it == rankings.end()) {
          RouteComputation computation(graph, {{.node = spec.origin}});
          HegemonyOptions hegemony_options;
          hegemony_options.trim = options.hegemony_trim;
          it = rankings
                   .emplace(spec.origin,
                            HegemonyRanking(ComputeHegemony(computation, hegemony_options)))
                   .first;
        }
        const std::vector<AsId>& ranking = it->second;
        std::size_t k = std::min<std::size_t>(spec.trials, ranking.size());
        cell.targets.assign(ranking.begin(), ranking.begin() + k);
        collected = k;
        break;
      }
      case FailScenario::kLinkSet: {
        std::uint32_t num_edges =
            CheckedNarrow32(graph.num_edges(), "RunFailureCampaign link_set pool");
        if (!edge_index) edge_index.emplace(graph);
        std::vector<AsLink>& links = prep.failed_links[i];
        links.reserve(std::size_t{spec.trials} * spec.severity);
        for (std::uint32_t t = 0; t < spec.trials; ++t) {
          for (std::uint32_t e : rng.SampleWithoutReplacement(num_edges, spec.severity)) {
            links.push_back(edge_index->Link(e));
          }
        }
        collected = spec.trials;
        break;
      }
    }
    cell.attempts = collected;
    cell.loss_ases.resize(collected, 0.0);
    cell.disconnected.resize(collected, 0.0);
    if (options.users != nullptr) cell.loss_users.resize(collected, 0.0);
    table.cells.push_back(std::move(cell));

    prep.total_trials += collected;
    prep.offsets.push_back(prep.total_trials);
  }
  return prep;
}

struct TrialOutcome {
  double loss_ases = 0.0;
  double disconnected = 0.0;
  double loss_users = 0.0;
};

// Σ users over baseline-reachable destinations lost in this trial,
// excluding the knocked-out ASes themselves (`mask` empty for link
// trials). The origin is in both sets, so it never counts.
double LostUsers(const Bitset& baseline, const Bitset& damaged, const Bitset* mask,
                 const std::vector<double>& users) {
  double lost = 0.0;
  for (std::size_t w = 0; w < baseline.num_words(); ++w) {
    std::uint64_t word = baseline.Word(w) & ~damaged.Word(w);
    if (mask != nullptr) word &= ~mask->Word(w);
    while (word != 0) {
      lost += users[64 * w + static_cast<std::size_t>(std::countr_zero(word))];
      word &= word - 1;
    }
  }
  return lost;
}

// Per trial the payload holds the collateral loss fraction, the
// disconnected count, then — when users are weighted — the user loss, each
// as a campaign::EncodeDouble word pair.
std::size_t WordsPerTrial(bool has_users) { return has_users ? 6 : 4; }

// Per-worker reusable evaluation state for the shared intact graph. Every
// scenario runs on it: AS knockouts as an exclusion mask, link trials as
// the engine's failed-link filter.
class TrialWorker final : public campaign::ChunkWorker {
 public:
  TrialWorker(const AsGraph& graph, const PreparedCampaign& prep, const FailTable& table,
              const std::vector<double>* users)
      : prep_(prep),
        table_(table),
        users_(users),
        engine_(graph),
        mask_(graph.num_ases()),
        damaged_(graph.num_ases()) {}

  void Evaluate(const campaign::Chunk& chunk, std::span<std::uint32_t> payload) override {
    std::size_t words = WordsPerTrial(users_ != nullptr);
    campaign::ForEachCellUnit(prep_.offsets, chunk, [&](auto cell, auto local, auto i) {
      TrialOutcome outcome = EvaluateTrial(cell, local);
      std::uint32_t* at = &payload[i * words];
      campaign::EncodeDouble(outcome.loss_ases, at);
      campaign::EncodeDouble(outcome.disconnected, at + 2);
      if (users_ != nullptr) campaign::EncodeDouble(outcome.loss_users, at + 4);
    });
  }

 private:
  TrialOutcome EvaluateTrial(std::size_t cell_index, std::size_t local) {
    const FailCellResult& cell = table_.cells[cell_index];
    const FailCellSpec& spec = cell.spec;
    const Bitset& baseline = prep_.baselines[cell_index];
    double baseline_count = static_cast<double>(cell.baseline);
    double baseline_users = prep_.baseline_users[cell_index];

    std::size_t damaged_count = 0;
    std::size_t knocked_reachable = 0;
    double lost_users = 0.0;

    if (spec.scenario == FailScenario::kLinkSet) {
      const AsLink* links = prep_.failed_links[cell_index].data();
      std::span<const AsLink> failed(links + local * spec.severity, spec.severity);
      if (users_ != nullptr) {
        engine_.ComputeInto(spec.origin, nullptr, failed, damaged_);
        std::size_t reached = damaged_.Count();
        damaged_count = reached > 0 ? reached - 1 : 0;
        lost_users = LostUsers(baseline, damaged_, nullptr, *users_);
      } else {
        damaged_count = engine_.Count(spec.origin, nullptr, failed);
      }
    } else {
      mask_.ResetAll();
      std::size_t knockout = spec.scenario == FailScenario::kHegemonyCascade ? local + 1 : 1;
      std::size_t first = spec.scenario == FailScenario::kHegemonyCascade ? 0 : local;
      for (std::size_t k = 0; k < knockout; ++k) {
        AsId target = cell.targets[first + k];
        mask_.Set(target);
        if (baseline.Test(target)) ++knocked_reachable;
      }
      if (users_ != nullptr) {
        engine_.ComputeInto(spec.origin, &mask_, damaged_);
        std::size_t reached = damaged_.Count();
        damaged_count = reached > 0 ? reached - 1 : 0;
        lost_users = LostUsers(baseline, damaged_, &mask_, *users_);
      } else {
        damaged_count = engine_.Count(spec.origin, &mask_);
      }
    }

    double disconnected =
        baseline_count > static_cast<double>(damaged_count)
            ? baseline_count - static_cast<double>(damaged_count)
            : 0.0;
    double collateral = disconnected - static_cast<double>(knocked_reachable);
    if (collateral < 0.0) collateral = 0.0;

    TrialOutcome outcome;
    outcome.disconnected = disconnected;
    outcome.loss_ases = baseline_count > 0.0 ? collateral / baseline_count : 0.0;
    outcome.loss_users = baseline_users > 0.0 ? lost_users / baseline_users : 0.0;
    return outcome;
  }

  const PreparedCampaign& prep_;
  const FailTable& table_;
  const std::vector<double>* users_;
  ReachabilityEngine engine_;
  Bitset mask_;
  Bitset damaged_;
};

}  // namespace

std::uint64_t CampaignFingerprint(const Internet& internet,
                                  const std::vector<FailCellSpec>& cells, bool has_users,
                                  double hegemony_trim) {
  Fnv1a64 hash;
  hash.Mix(internet.fingerprint());
  hash.Mix(has_users ? 1 : 0);
  hash.Mix(std::bit_cast<std::uint64_t>(hegemony_trim));
  hash.Mix(cells.size());
  for (const FailCellSpec& spec : cells) {
    hash.Mix(spec.origin);
    hash.Mix(static_cast<std::uint64_t>(spec.scenario));
    hash.Mix(spec.severity);
    hash.Mix(spec.seed);
    hash.Mix(spec.trials);
  }
  return hash.value();
}

FailTable RunFailureCampaign(const Internet& internet, const std::vector<FailCellSpec>& cells,
                             const FailCampaignOptions& options, FailCampaignStats* stats) {
  if (options.users != nullptr && options.users->size() != internet.num_ases()) {
    throw InvalidArgument(StrFormat("RunFailureCampaign: %zu user weights for %zu ASes",
                                    options.users->size(), internet.num_ases()));
  }
  if (!(options.hegemony_trim >= 0.0) || options.hegemony_trim >= 0.5) {
    throw InvalidArgument("RunFailureCampaign: hegemony_trim must be in [0, 0.5)");
  }

  obs::TraceSpan run_span("failsim.run");
  Stopwatch stopwatch;

  FailTable table;
  table.fingerprint = internet.fingerprint();
  table.has_users = options.users != nullptr;
  table.campaign_fingerprint =
      CampaignFingerprint(internet, cells, table.has_users, options.hegemony_trim);
  PreparedCampaign prep = Prepare(internet, cells, options, table);

  // Units are global trial indices. The journal key is the campaign
  // fingerprint, so a resume against a different topology, cell list,
  // trim, or user-weight flag fails loudly.
  std::size_t words = WordsPerTrial(table.has_users);
  campaign::ChunkPlan plan;
  plan.component = "failsim";
  plan.op = "RunFailureCampaign";
  plan.unit = "trials";
  plan.units_counter = "trials_evaluated";
  plan.num_units = prep.total_trials;
  plan.chunk_size = options.chunk_trials;
  plan.words_per_unit = words;
  plan.fingerprint = table.campaign_fingerprint;
  plan.columns = table.has_users ? 0x7 : 0x3;
  auto make_worker = [&] {
    return std::make_unique<TrialWorker>(internet.graph(), prep, table, options.users);
  };
  auto apply = [&](const campaign::Chunk& chunk, std::span<const std::uint32_t> payload) {
    campaign::ForEachCellUnit(prep.offsets, chunk, [&](auto cell, auto local, auto i) {
      FailCellResult& result = table.cells[cell];
      const std::uint32_t* at = &payload[i * words];
      result.loss_ases[local] = campaign::DecodeDouble(at);
      result.disconnected[local] = campaign::DecodeDouble(at + 2);
      if (table.has_users) result.loss_users[local] = campaign::DecodeDouble(at + 4);
    });
  };
  campaign::RunStats run = campaign::RunChunks(plan, options, make_worker, apply);

  if (stats != nullptr) {
    stats->chunks_total = run.chunks_total;
    stats->chunks_resumed = run.chunks_resumed;
    stats->chunks_computed = run.chunks_computed;
    stats->trials_evaluated = run.units_computed;
    stats->complete = run.complete;
    stats->seconds = stopwatch.ElapsedSeconds();
  }
  return table;
}

void FinalizeFailStore(const std::string& path, const FailTable& table,
                       const std::string& journal_path) {
  WriteFailStore(path, table);
  campaign::RemoveJournal(journal_path);
}

}  // namespace flatnet::failsim
