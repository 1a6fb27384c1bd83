#include "failsim/engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>

#include "bgp/hegemony.h"
#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "obs/campaign.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sweep/fingerprint.h"
#include "sweep/journal.h"
#include "util/error.h"
#include "util/narrow.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace flatnet::failsim {
namespace {

struct FailsimCounters {
  obs::Counter& chunks_completed = obs::GetCounter("failsim.chunks_completed");
  obs::Counter& chunks_resumed = obs::GetCounter("failsim.chunks_resumed");
  obs::Counter& checkpoint_writes = obs::GetCounter("failsim.checkpoint_writes");
  obs::Counter& trials_evaluated = obs::GetCounter("failsim.trials_evaluated");
  obs::Gauge& trials_per_sec = obs::GetGauge("failsim.trials_per_sec");
};

FailsimCounters& Counters() {
  static FailsimCounters counters;
  return counters;
}

std::uint64_t Fnv1aMix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Journal payload encoding: each double rides as two u32 words (low word
// first). Per trial the payload holds the collateral loss fraction, the
// disconnected count, then — when users are weighted — the user loss.
void EncodeDouble(double value, std::uint32_t* out) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  out[0] = static_cast<std::uint32_t>(bits);
  out[1] = static_cast<std::uint32_t>(bits >> 32);
}

double DecodeDouble(const std::uint32_t* in) {
  std::uint64_t bits = (static_cast<std::uint64_t>(in[1]) << 32) | in[0];
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

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

// Per-worker reusable evaluation state for the shared intact graph. Every
// scenario runs on it: AS knockouts as an exclusion mask, link trials as
// the engine's failed-link filter.
struct FailWorkspace {
  explicit FailWorkspace(const AsGraph& graph)
      : engine(graph), mask(graph.num_ases()), damaged(graph.num_ases()) {}
  ReachabilityEngine engine;
  Bitset mask;
  Bitset damaged;
};

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

TrialOutcome EvaluateTrial(const PreparedCampaign& prep, const FailTable& table,
                           std::size_t cell_index, std::size_t local,
                           const std::vector<double>* users, FailWorkspace& workspace) {
  const FailCellResult& cell = table.cells[cell_index];
  const FailCellSpec& spec = cell.spec;
  const Bitset& baseline = prep.baselines[cell_index];
  double baseline_count = static_cast<double>(cell.baseline);
  double baseline_users = prep.baseline_users[cell_index];

  std::size_t damaged_count = 0;
  std::size_t knocked_reachable = 0;
  double lost_users = 0.0;

  if (spec.scenario == FailScenario::kLinkSet) {
    std::span<const AsLink> failed(prep.failed_links[cell_index].data() + local * spec.severity,
                                   spec.severity);
    if (users != nullptr) {
      workspace.engine.ComputeInto(spec.origin, nullptr, failed, workspace.damaged);
      std::size_t reached = workspace.damaged.Count();
      damaged_count = reached > 0 ? reached - 1 : 0;
      lost_users = LostUsers(baseline, workspace.damaged, nullptr, *users);
    } else {
      damaged_count = workspace.engine.Count(spec.origin, nullptr, failed);
    }
  } else {
    workspace.mask.ResetAll();
    std::size_t knockout = spec.scenario == FailScenario::kHegemonyCascade ? local + 1 : 1;
    std::size_t first = spec.scenario == FailScenario::kHegemonyCascade ? 0 : local;
    for (std::size_t k = 0; k < knockout; ++k) {
      AsId target = cell.targets[first + k];
      workspace.mask.Set(target);
      if (baseline.Test(target)) ++knocked_reachable;
    }
    if (users != nullptr) {
      workspace.engine.ComputeInto(spec.origin, &workspace.mask, workspace.damaged);
      std::size_t reached = workspace.damaged.Count();
      damaged_count = reached > 0 ? reached - 1 : 0;
      lost_users = LostUsers(baseline, workspace.damaged, &workspace.mask, *users);
    } else {
      damaged_count = workspace.engine.Count(spec.origin, &workspace.mask);
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

}  // namespace

std::uint64_t CampaignFingerprint(const Internet& internet,
                                  const std::vector<FailCellSpec>& cells, bool has_users,
                                  double hegemony_trim) {
  std::uint64_t hash = 14695981039346656037ull;
  hash = Fnv1aMix(hash, sweep::TopologyFingerprint(internet));
  hash = Fnv1aMix(hash, has_users ? 1 : 0);
  hash = Fnv1aMix(hash, std::bit_cast<std::uint64_t>(hegemony_trim));
  hash = Fnv1aMix(hash, cells.size());
  for (const FailCellSpec& spec : cells) {
    hash = Fnv1aMix(hash, spec.origin);
    hash = Fnv1aMix(hash, static_cast<std::uint64_t>(spec.scenario));
    hash = Fnv1aMix(hash, spec.severity);
    hash = Fnv1aMix(hash, spec.seed);
    hash = Fnv1aMix(hash, spec.trials);
  }
  return hash;
}

FailTable RunFailureCampaign(const Internet& internet, const std::vector<FailCellSpec>& cells,
                             const FailCampaignOptions& options, FailCampaignStats* stats) {
  if (options.chunk_trials == 0) {
    throw InvalidArgument("RunFailureCampaign: chunk_trials must be > 0");
  }
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
  table.fingerprint = sweep::TopologyFingerprint(internet);
  table.has_users = options.users != nullptr;
  table.campaign_fingerprint =
      CampaignFingerprint(internet, cells, table.has_users, options.hegemony_trim);
  PreparedCampaign prep = Prepare(internet, cells, options, table);

  std::size_t words_per_trial = table.has_users ? 6 : 4;
  std::size_t num_chunks =
      prep.total_trials == 0
          ? 0
          : (prep.total_trials + options.chunk_trials - 1) / options.chunk_trials;
  std::vector<char> done(num_chunks, 0);
  std::size_t chunks_resumed = 0;

  // Reuse the sweep journal: "origins" are global trial indices and each
  // trial's values are its metrics as u32 word pairs. The fingerprint
  // slot carries the campaign fingerprint so a resume against a different
  // topology, cell list, trim, or user-weight flag fails loudly.
  sweep::SweepMeta meta;
  meta.fingerprint = table.campaign_fingerprint;
  meta.num_origins = prep.total_trials;
  meta.columns = table.has_users ? 0x7 : 0x3;
  meta.chunk_size = options.chunk_trials;

  // Writes a trial's metrics into its pre-assigned slot; `cell` is the
  // index of the cell containing global trial `g`.
  auto slot_write = [&](std::size_t cell, std::size_t g, const TrialOutcome& outcome) {
    std::size_t local = g - prep.offsets[cell];
    table.cells[cell].loss_ases[local] = outcome.loss_ases;
    table.cells[cell].disconnected[local] = outcome.disconnected;
    if (table.has_users) table.cells[cell].loss_users[local] = outcome.loss_users;
  };
  auto cell_of = [&](std::size_t g) {
    return static_cast<std::size_t>(
        std::upper_bound(prep.offsets.begin(), prep.offsets.end(), g) -
        prep.offsets.begin() - 1);
  };

  sweep::SweepJournal journal;
  if (!options.journal_path.empty()) {
    bool exists = std::filesystem::exists(options.journal_path);
    if (options.resume && exists) {
      std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> recovered;
      journal = sweep::SweepJournal::Recover(options.journal_path, meta, &recovered);
      for (auto& [chunk_index, values] : recovered) {
        if (chunk_index >= num_chunks) {
          throw Error(StrFormat("%s: journal record for chunk %u is out of range (%zu chunks)",
                                options.journal_path.c_str(), chunk_index, num_chunks));
        }
        std::size_t begin = std::size_t{chunk_index} * options.chunk_trials;
        std::size_t chunk_len =
            std::min<std::size_t>(options.chunk_trials, prep.total_trials - begin);
        if (values.size() != chunk_len * words_per_trial) {
          throw Error(StrFormat("%s: journal record for chunk %u holds %zu values, "
                                "expected %zu",
                                options.journal_path.c_str(), chunk_index, values.size(),
                                chunk_len * words_per_trial));
        }
        std::size_t cell = cell_of(begin);
        for (std::size_t i = 0; i < chunk_len; ++i) {
          std::size_t g = begin + i;
          while (g >= prep.offsets[cell + 1]) ++cell;
          const std::uint32_t* at = values.data() + i * words_per_trial;
          TrialOutcome outcome;
          outcome.loss_ases = DecodeDouble(at);
          outcome.disconnected = DecodeDouble(at + 2);
          if (table.has_users) outcome.loss_users = DecodeDouble(at + 4);
          slot_write(cell, g, outcome);
        }
        if (!done[chunk_index]) {
          done[chunk_index] = 1;
          ++chunks_resumed;
        }
      }
      Counters().chunks_resumed.Increment(chunks_resumed);
      obs::Log(obs::LogLevel::kInfo, "failsim", "resume")
          .Kv("journal", options.journal_path)
          .Kv("chunks_resumed", static_cast<std::uint64_t>(chunks_resumed))
          .Kv("chunks_total", static_cast<std::uint64_t>(num_chunks));
    } else {
      journal = sweep::SweepJournal::Create(options.journal_path, meta);
    }
  }

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> chunks_computed{0};
  std::atomic<std::size_t> trials_evaluated{0};
  std::atomic<bool> failed{false};
  std::mutex journal_mu;
  std::string failure;  // first worker error, guarded by journal_mu

  obs::CampaignMonitor::Options monitor_options;
  monitor_options.component = "failsim";
  monitor_options.unit = "trials";
  monitor_options.total_chunks = num_chunks;
  monitor_options.resumed_chunks = chunks_resumed;
  monitor_options.workers = options.threads > 0
                                ? options.threads
                                : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  obs::CampaignMonitor monitor(monitor_options);

  auto worker_loop = [&] {
    FailWorkspace workspace(internet.graph());
    std::vector<std::uint32_t> payload;
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) break;
      if (options.max_chunks != 0 &&
          chunks_computed.load(std::memory_order_relaxed) >= options.max_chunks) {
        break;
      }
      std::size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) break;
      if (done[chunk]) continue;

      obs::TraceSpan chunk_span("failsim.chunk");
      Stopwatch chunk_watch;
      std::size_t begin = chunk * options.chunk_trials;
      std::size_t chunk_len =
          std::min<std::size_t>(options.chunk_trials, prep.total_trials - begin);
      payload.assign(chunk_len * words_per_trial, 0);
      std::size_t cell = cell_of(begin);
      for (std::size_t i = 0; i < chunk_len; ++i) {
        std::size_t g = begin + i;
        while (g >= prep.offsets[cell + 1]) ++cell;
        TrialOutcome outcome = EvaluateTrial(prep, table, cell, g - prep.offsets[cell],
                                             options.users, workspace);
        slot_write(cell, g, outcome);
        std::uint32_t* at = payload.data() + i * words_per_trial;
        EncodeDouble(outcome.loss_ases, at);
        EncodeDouble(outcome.disconnected, at + 2);
        if (table.has_users) EncodeDouble(outcome.loss_users, at + 4);
      }

      if (journal.is_open()) {
        // Pool tasks must not throw; a journal I/O failure aborts the
        // campaign cooperatively and rethrows after the pool drains.
        {
          std::lock_guard<std::mutex> lock(journal_mu);
          try {
            journal.AppendChunk(static_cast<std::uint32_t>(chunk), payload.data(),
                                payload.size());
          } catch (const Error& e) {
            if (failure.empty()) failure = e.what();
            failed.store(true, std::memory_order_relaxed);
            break;
          }
        }
        Counters().checkpoint_writes.Increment();
      }

      chunks_computed.fetch_add(1, std::memory_order_relaxed);
      trials_evaluated.fetch_add(chunk_len, std::memory_order_relaxed);
      Counters().chunks_completed.Increment();
      Counters().trials_evaluated.Increment(chunk_len);
      monitor.ChunkDone(chunk, chunk_watch.ElapsedSeconds() * 1000.0, chunk_len);
      if (options.throttle_chunk_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(options.throttle_chunk_ms));
      }
    }
  };

  {
    ThreadPool pool(options.threads);
    std::size_t workers = pool.thread_count() > 0 ? pool.thread_count() : 1;
    for (std::size_t w = 0; w < workers; ++w) pool.Submit(worker_loop);
    pool.Wait();
  }
  journal.Close();
  if (failed.load()) throw Error("RunFailureCampaign: " + failure);

  double seconds = stopwatch.ElapsedSeconds();
  std::size_t computed = chunks_computed.load();
  if (seconds > 0.0) {
    Counters().trials_per_sec.Set(
        static_cast<std::int64_t>(static_cast<double>(trials_evaluated.load()) / seconds));
  }
  if (stats != nullptr) {
    stats->chunks_total = num_chunks;
    stats->chunks_resumed = chunks_resumed;
    stats->chunks_computed = computed;
    stats->trials_evaluated = trials_evaluated.load();
    stats->complete = chunks_resumed + computed >= num_chunks;
    stats->seconds = seconds;
  }
  return table;
}

void FinalizeFailStore(const std::string& path, const FailTable& table,
                       const std::string& journal_path) {
  WriteFailStore(path, table);
  if (!journal_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(journal_path, ec);  // best-effort cleanup
  }
}

}  // namespace flatnet::failsim
