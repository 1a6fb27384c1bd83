#include "campaign.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>

#include "bgp/hegemony.h"
#include "bgp/leak.h"
#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "bgp/reliance.h"
#include "core/graph_store.h"
#include "core/leak_scenarios.h"
#include "failsim/engine.h"
#include "fleet/merge.h"
#include "fleet/ring.h"
#include "leaksim/engine.h"
#include "obs/metrics.h"
#include "service.h"
#include "sweep/engine.h"
#include "topogen/generate.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flatbench {

using flatnet::AsId;
using flatnet::Bitset;
using flatnet::Error;
using flatnet::Internet;
using flatnet::Json;
using flatnet::Rng;
using flatnet::StrFormat;
namespace failsim = flatnet::failsim;
namespace leaksim = flatnet::leaksim;
namespace sweep = flatnet::sweep;

namespace {

constexpr std::size_t kEngineThreads = 2;
constexpr std::uint32_t kLeakTrials = 10;
constexpr std::uint32_t kKnockoutTrials = 8;
constexpr std::uint32_t kLinkTrials = 2;
constexpr std::uint32_t kLinkSeverity = 2;
constexpr std::size_t kKernelOrigins = 64;
constexpr std::size_t kHegemonyOrigins = 16;
constexpr std::size_t kSweepChecks = 64;
// Sweep slices: ~1.2 s of a 100k sweep on 2 threads each.
constexpr std::uint32_t kSweepSliceChunks = 32;
// p99 of job latency is the median over this many consecutive groups of
// jobs of the p99 within each group.
constexpr std::size_t kJobGroups = 4;

double MsSince(Clock::time_point t0) { return MsBetween(t0, Clock::now()); }

// ---- campaign-layer accounting ---------------------------------------------

// One engine's share of a run: wall time of its calls plus the registry
// deltas (chunk histogram, counters) those calls caused.
struct EngineTally {
  double wall_ms = 0.0;
  double chunk_ms = 0.0;
  double chunks = 0.0;
  double units = 0.0;
  double requested = 0.0;
  double collected = 0.0;
  double stragglers = 0.0;
  double nodes_reached = 0.0;
  double relax_ops = 0.0;
};

double RelaxOps(const Json& counters) {
  return NumberAt(counters, {"propagation.customer.relax_ops"}) +
         NumberAt(counters, {"propagation.peer.scan_ops"}) +
         NumberAt(counters, {"propagation.provider.relax_ops"});
}

// Runs `call`, then folds what it did into `tally`. `component` names the
// engine's chunk histogram and straggler counter ("sweep", "leaksim",
// "failsim").
void Tallied(EngineTally& tally, const std::string& component,
             const std::function<void()>& call) {
  Json before = flatnet::obs::MetricsRegistry::Default().Snapshot();
  Clock::time_point t0 = Clock::now();
  call();
  tally.wall_ms += MsSince(t0);
  Json after = flatnet::obs::MetricsRegistry::Default().Snapshot();
  std::string hist = component + ".chunk_ms";
  auto delta = [&](std::initializer_list<std::string> path) {
    return NumberAt(after, path) - NumberAt(before, path);
  };
  tally.chunk_ms += delta({"histograms", hist, "sum"});
  tally.chunks += delta({"histograms", hist, "count"});
  tally.stragglers += delta({"counters", component + ".stragglers"});
  tally.nodes_reached += delta({"counters", "reachability.nodes_reached"});
  const Json& c0 = before.At("counters");
  const Json& c1 = after.At("counters");
  tally.relax_ops += RelaxOps(c1) - RelaxOps(c0);
}

double BusyFrac(const EngineTally& t) {
  return t.wall_ms > 0 ? t.chunk_ms / (static_cast<double>(kEngineThreads) * t.wall_ms) : 0.0;
}

double PerChunk(const EngineTally& t) { return t.chunks > 0 ? t.chunk_ms / t.chunks : 0.0; }

void SetSweepLayers(const EngineTally& t, RunResult& r) {
  r.Set("sweep.chunk_ms_mean", PerChunk(t), "ms");
  r.Set("sweep.worker_busy_frac", BusyFrac(t), "ratio");
  r.Set("sweep.stragglers", t.stragglers, "count");
  r.Set("sweep.nodes_reached_per_origin", t.units > 0 ? t.nodes_reached / t.units : 0.0,
        "count");
}

void SetLeakLayers(const EngineTally& t, RunResult& r) {
  r.Set("leaksim.chunk_ms_mean", PerChunk(t), "ms");
  r.Set("leaksim.worker_busy_frac", BusyFrac(t), "ratio");
  r.Set("leaksim.collected_ratio", t.requested > 0 ? t.collected / t.requested : 0.0, "ratio");
  r.Set("leaksim.relax_ops_per_trial", t.units > 0 ? t.relax_ops / t.units : 0.0, "count");
}

void SetKnockoutLayers(const EngineTally& t, RunResult& r) {
  r.Set("failsim.chunk_ms_mean", PerChunk(t), "ms");
  r.Set("failsim.worker_busy_frac", BusyFrac(t), "ratio");
  r.Set("failsim.collected_ratio", t.requested > 0 ? t.collected / t.requested : 0.0, "ratio");
}

// Link-set cells run one trial per chunk, so chunk time is trial time.
void SetLinkSetLayers(const EngineTally& t, RunResult& r) {
  r.Set("failsim.linkset_trial_s", t.units > 0 ? t.chunk_ms / 1000.0 / t.units : 0.0, "s");
}

// ---- campaign calls ----------------------------------------------------------

std::vector<leaksim::LeakCellSpec> LeakCells(AsId victim, Rng& rng) {
  std::vector<leaksim::LeakCellSpec> cells;
  for (std::size_t s = 0; s < flatnet::kNumLeakScenarios; ++s) {
    leaksim::LeakCellSpec spec;
    spec.victim = victim;
    spec.scenario = static_cast<flatnet::LeakScenario>(s);
    spec.seed = rng.NextU64();
    spec.trials = kLeakTrials;
    cells.push_back(spec);
  }
  return cells;
}

std::vector<failsim::FailCellSpec> KnockoutCells(AsId origin, Rng& rng) {
  std::vector<failsim::FailCellSpec> cells;
  for (failsim::FailScenario scenario :
       {failsim::FailScenario::kSingleAs, failsim::FailScenario::kTier1,
        failsim::FailScenario::kHegemonyCascade}) {
    failsim::FailCellSpec spec;
    spec.origin = origin;
    spec.scenario = scenario;
    spec.seed = rng.NextU64();
    spec.trials = kKnockoutTrials;
    cells.push_back(spec);
  }
  return cells;
}

failsim::FailCellSpec LinkCell(AsId origin, Rng& rng, std::uint32_t trials) {
  failsim::FailCellSpec spec;
  spec.origin = origin;
  spec.scenario = failsim::FailScenario::kLinkSet;
  spec.severity = kLinkSeverity;
  spec.seed = rng.NextU64();
  spec.trials = trials;
  return spec;
}

leaksim::LeakTable RunLeak(const Internet& internet,
                           const std::vector<leaksim::LeakCellSpec>& cells,
                           EngineTally& tally) {
  leaksim::LeakTable table;
  leaksim::LeakCampaignStats stats;
  Tallied(tally, "leaksim", [&] {
    leaksim::LeakCampaignOptions options;
    options.threads = kEngineThreads;
    table = leaksim::RunLeakCampaign(internet, cells, options, &stats);
  });
  tally.units += static_cast<double>(stats.trials_evaluated);
  for (const leaksim::LeakCellResult& cell : table.cells) {
    tally.requested += cell.spec.trials;
    tally.collected += static_cast<double>(cell.collected());
  }
  return table;
}

failsim::FailTable RunFail(const Internet& internet,
                           const std::vector<failsim::FailCellSpec>& cells,
                           std::uint32_t chunk_trials, std::size_t threads,
                           EngineTally& tally) {
  failsim::FailTable table;
  failsim::FailCampaignStats stats;
  Tallied(tally, "failsim", [&] {
    failsim::FailCampaignOptions options;
    options.threads = threads;
    options.chunk_trials = chunk_trials;
    table = failsim::RunFailureCampaign(internet, cells, options, &stats);
  });
  tally.units += static_cast<double>(stats.trials_evaluated);
  for (const failsim::FailCellResult& cell : table.cells) {
    tally.requested += cell.spec.trials;
    tally.collected += static_cast<double>(cell.collected());
  }
  return table;
}

sweep::SweepTable RunSweepTallied(const Internet& internet, EngineTally& tally) {
  sweep::SweepTable table;
  sweep::SweepRunStats stats;
  Tallied(tally, "sweep", [&] {
    sweep::SweepOptions options;
    options.threads = kEngineThreads;
    table = sweep::RunSweep(internet, options, &stats);
  });
  tally.units += static_cast<double>(stats.origins_computed);
  return table;
}

// ---- verification --------------------------------------------------------------

// Sweep values must equal an independent RouteComputation under the same
// exclusion mask, for seeded origins and every reach column.
void VerifySweep(const Internet& internet, const sweep::SweepTable& table, std::uint64_t seed,
                 RunResult& result) {
  Rng rng(seed ^ 0x5eedu);
  std::uint32_t n = static_cast<std::uint32_t>(internet.num_ases());
  std::size_t checked = 0;
  std::uint32_t count = std::min(static_cast<std::uint32_t>(kSweepChecks), n);
  for (std::uint32_t origin : rng.SampleWithoutReplacement(n, count)) {
    struct Column {
      sweep::SweepColumn column;
      Bitset mask;
    };
    Column columns[] = {
        {sweep::SweepColumn::kProviderFree, internet.ProviderFreeExclusion(origin)},
        {sweep::SweepColumn::kTier1Free, internet.Tier1FreeExclusion(origin)},
        {sweep::SweepColumn::kHierarchyFree, internet.HierarchyFreeExclusion(origin)},
    };
    for (const Column& c : columns) {
      flatnet::PropagationOptions options;
      if (c.mask.Any()) options.excluded = &c.mask;
      flatnet::RouteComputation computation(internet.graph(), {{.node = origin}}, options);
      std::uint32_t want = static_cast<std::uint32_t>(computation.ReachedCount());
      std::uint32_t got = table.Column(c.column)[origin];
      ++checked;
      if (got != want) {
        result.Mismatch(StrFormat("sweep origin id %u column %s: store %u, RouteComputation %u",
                                  origin, sweep::ToString(c.column), got, want));
      }
    }
  }
  result.detail["verified_sweep_values"] = static_cast<std::uint64_t>(checked);
}

// Leak cells must match the serial RunLeakScenario trial for trial;
// knockout cells must match an independent ReachableCount per trial.
void VerifyResilience(const Internet& internet, const leaksim::LeakTable& leak,
                      const failsim::FailTable& fail, std::uint64_t pick, RunResult& result) {
  const leaksim::LeakCellResult& cell = leak.cells[pick % leak.cells.size()];
  flatnet::LeakTrialSeries series =
      flatnet::RunLeakScenario(internet, cell.spec.victim, cell.spec.scenario, cell.spec.trials,
                               cell.spec.seed, nullptr, cell.spec.lock_mode);
  if (series.fraction_ases_detoured != cell.fraction_ases) {
    result.Mismatch(StrFormat("leak cell victim id %u scenario %s differs from RunLeakScenario",
                              cell.spec.victim, flatnet::ToString(cell.spec.scenario)));
  }
  const flatnet::AsGraph& graph = internet.graph();
  for (const failsim::FailCellResult& f : fail.cells) {
    double baseline = static_cast<double>(flatnet::ReachableCount(graph, f.spec.origin));
    bool cascade = f.spec.scenario == failsim::FailScenario::kHegemonyCascade;
    for (std::size_t t = 0; t < f.collected(); ++t) {
      Bitset mask(graph.num_ases());
      for (std::size_t k = cascade ? 0 : t; k <= t; ++k) mask.Set(f.targets[k]);
      double damaged =
          static_cast<double>(flatnet::ReachableCount(graph, f.spec.origin, &mask));
      double want = baseline > damaged ? baseline - damaged : 0.0;
      if (f.disconnected[t] != want) {
        result.Mismatch(StrFormat("failure cell origin id %u %s trial %zu: %g disconnected, "
                                  "reference %g",
                                  f.spec.origin, failsim::ToString(f.spec.scenario), t,
                                  f.disconnected[t], want));
      }
    }
  }
}

// A link-set trial must not depend on threads or chunking: re-run trial 0
// alone, serially, and compare.
void VerifyLinkSet(const Internet& internet, const failsim::FailTable& table,
                   RunResult& result) {
  const failsim::FailCellResult& cell = table.cells.front();
  failsim::FailCellSpec spec = cell.spec;
  spec.trials = 1;
  failsim::FailCampaignOptions options;
  options.threads = 1;
  options.chunk_trials = 1;
  failsim::FailTable single = failsim::RunFailureCampaign(internet, {spec}, options);
  const failsim::FailCellResult& ref = single.cells.front();
  if (ref.loss_ases.front() != cell.loss_ases.front() ||
      ref.disconnected.front() != cell.disconnected.front()) {
    result.Mismatch(StrFormat("link_set origin id %u trial 0: %g disconnected, serial %g",
                              spec.origin, cell.disconnected.front(),
                              ref.disconnected.front()));
  }
}

// ---- digests -------------------------------------------------------------------

template <typename Writer>
std::string StoreDigest(const Settings& settings, const std::string& name, Writer write) {
  std::string path = StrFormat("%s/%d-%s", settings.work_dir.c_str(),
                               static_cast<int>(::getpid()), name.c_str());
  write(path);
  std::string digest = FileDigest(path);
  std::remove(path.c_str());
  return digest;
}

// ---- batch workloads -------------------------------------------------------

struct Job {
  double ms = 0.0;
  double units = 0.0;
  Clock::time_point start;
};

class BatchRun {
 public:
  BatchRun(BatchKind kind, const Settings& settings, SpanRecorder* spans)
      : kind_(kind),
        settings_(settings),
        spans_(spans),
        rng_(settings.seed * 0xd1b54a32d192ed03ull + 5) {}

  RunResult Run() {
    SetUp();
    const Internet& internet = world_;
    // One sweep is the whole of a sweep run (timed in slices); the other
    // workloads run jobs back to back until the window is over.
    auto more = [&, window = Clock::now()] {
      if (kind_ == BatchKind::kSweep) return !sweep_ && thrown_ < 3;
      return (jobs_.empty() && thrown_ < 3) || SecondsSince(window) < settings_.seconds;
    };
    while (more()) {
      Job job;
      job.start = Clock::now();
      try {
        job.units = RunJob(internet);
      } catch (const Error& e) {
        std::fprintf(stderr, "flatbench: campaign call failed: %s\n", e.what());
        result_.failed += planned_units_;
        result_.attempted += planned_units_;
        ++thrown_;
        continue;
      }
      job.ms = MsSince(job.start);
      result_.attempted += static_cast<std::uint64_t>(job.units);
      if (spans_ != nullptr) {
        spans_->Add(StrFormat("job %zu", jobs_.size()), "campaign", job.start,
                    job.ms * 1000.0, 1);
      }
      jobs_.push_back(job);
    }
    VerifyAndDigest(internet);

    // Latencies are medians over jobs, so a stretch of host noise that
    // slows a few jobs does not move them. Throughput is all work over all
    // job time: sweep slices differ in work, and a gain on any of them must
    // show.
    std::vector<double> ms;
    std::vector<std::vector<double>> groups(kJobGroups);
    double units = 0.0, total_ms = 0.0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      ms.push_back(jobs_[j].ms);
      groups[j * kJobGroups / jobs_.size()].push_back(jobs_[j].ms);
      units += jobs_[j].units;
      total_ms += jobs_[j].ms;
    }
    std::vector<double> group_p99;
    for (const std::vector<double>& group : groups) {
      if (!group.empty()) group_p99.push_back(Q(group, 0.99));
    }
    Json job_ms = Json::MakeArray();
    for (double v : ms) job_ms.Append(Json(v));
    result_.detail["job_ms"] = std::move(job_ms);
    result_.detail["units"] = units;
    if (!settings_.trace) {
      result_.Set("p50_ms", Median(ms), "ms");
      result_.Set("p99_ms", Median(group_p99), "ms");
      result_.Set("throughput_per_s", total_ms > 0 ? units / (total_ms / 1000.0) : 0.0, "1/s");
      result_.Set("setup_s", Median(setups_), "s");
      result_.Set("rss_mb", PeakRssSelfMb(), "MB");
      return result_;
    }
    // Traced: this workload's own engines, then probes for every layer it
    // does not exercise.
    unsigned covered = 0;
    switch (kind_) {
      case BatchKind::kSweep:
        SetSweepLayers(sweep_tally_, result_);
        covered = kSweepEngine;
        break;
      case BatchKind::kResilience:
        SetLeakLayers(leak_tally_, result_);
        SetKnockoutLayers(knockout_tally_, result_);
        covered = kLeakEngine | kKnockoutEngine;
        break;
      case BatchKind::kLinkFail:
        SetLinkSetLayers(link_tally_, result_);
        covered = kLinkSetEngine;
        break;
    }
    ProbeKernelLayers(internet, settings_.batch_ases, settings_, result_);
    ProbeServeLayers(settings_, result_, spans_);
    ServiceInputs service = LoadServiceInputs(settings_);
    ProbeCampaignLayers(service.internet, kAllEngines & ~covered, settings_, result_);
    return result_;
  }

 private:
  // Generation + save + map of the batch world, three times; the last
  // mapping is the one the jobs run on.
  void SetUp() {
    std::remove(SweepJournalPath().c_str());
    std::string path = StrFormat("%s/%d-world.graph", settings_.work_dir.c_str(),
                                 static_cast<int>(::getpid()));
    Json samples = Json::MakeArray();
    for (int i = 0; i < 3; ++i) {
      world_ = Internet();
      Clock::time_point t0 = Clock::now();
      double gen_ms = 0.0;
      {
        Internet generated = GenerateInternet(settings_.batch_ases);
        gen_ms = MsSince(t0);
        flatnet::SaveInternetBinary(generated, path);
      }
      world_ = flatnet::LoadInternetBinary(path);
      setups_.push_back(SecondsSince(t0));
      Json sample = Json::MakeObject();
      sample["gen_s"] = gen_ms / 1000.0;
      sample["total_s"] = setups_.back();
      samples.Append(std::move(sample));
    }
    result_.digests["graph"] = FileDigest(path);
    std::remove(path.c_str());  // the mapping stays valid after unlink
    result_.detail["setup_samples"] = std::move(samples);
  }

  double RunJob(const Internet& internet) {
    AsId as = static_cast<AsId>(rng_.UniformU64(internet.num_ases()));
    switch (kind_) {
      case BatchKind::kSweep: {
        // A slice of kSweepSliceChunks chunks, resumed from the engine's own
        // checkpoint journal; the call that completes the sweep returns
        // the full table.
        planned_units_ = std::size_t{kSweepSliceChunks} * sweep::SweepOptions{}.chunk_size;
        sweep::SweepOptions options;
        options.threads = kEngineThreads;
        options.journal_path = SweepJournalPath();
        options.resume = true;
        options.max_chunks = kSweepSliceChunks;
        sweep::SweepTable table;
        sweep::SweepRunStats stats;
        Tallied(sweep_tally_, "sweep",
                [&] { table = sweep::RunSweep(internet, options, &stats); });
        sweep_tally_.units += static_cast<double>(stats.origins_computed);
        if (stats.complete) sweep_ = std::move(table);
        return static_cast<double>(stats.origins_computed);
      }
      case BatchKind::kResilience: {
        std::vector<leaksim::LeakCellSpec> leak_cells = LeakCells(as, rng_);
        std::vector<failsim::FailCellSpec> fail_cells = KnockoutCells(as, rng_);
        planned_units_ = flatnet::kNumLeakScenarios * kLeakTrials + 3 * kKnockoutTrials;
        double before = leak_tally_.units + knockout_tally_.units;
        leaksim::LeakTable leak = RunLeak(internet, leak_cells, leak_tally_);
        failsim::FailTable fail =
            RunFail(internet, fail_cells, 16, kEngineThreads, knockout_tally_);
        leaks_.push_back(std::move(leak));
        fails_.push_back(std::move(fail));
        return leak_tally_.units + knockout_tally_.units - before;
      }
      case BatchKind::kLinkFail: {
        planned_units_ = kLinkTrials;
        double before = link_tally_.units;
        fails_.push_back(RunFail(internet, {LinkCell(as, rng_, kLinkTrials)}, 1, kEngineThreads,
                                 link_tally_));
        return link_tally_.units - before;
      }
    }
    return 0.0;
  }

  std::string SweepJournalPath() const {
    return StrFormat("%s/%d-sweep.journal", settings_.work_dir.c_str(),
                     static_cast<int>(::getpid()));
  }

  void VerifyAndDigest(const Internet& internet) {
    std::remove(SweepJournalPath().c_str());
    if (jobs_.empty()) {
      result_.Mismatch("no campaign job completed");
      return;
    }
    Json digests = Json::MakeArray();
    switch (kind_) {
      case BatchKind::kSweep:
        if (!sweep_) {
          result_.Mismatch("the sweep did not complete");
          return;
        }
        VerifySweep(internet, *sweep_, settings_.seed, result_);
        digests.Append(Json(StoreDigest(settings_, "sweep", [&](const std::string& path) {
          sweep::WriteSweepStore(path, *sweep_);
        })));
        break;
      case BatchKind::kResilience:
        VerifyResilience(internet, leaks_.front(), fails_.front(), settings_.seed, result_);
        if (leaks_.size() > 1) {
          VerifyResilience(internet, leaks_.back(), fails_.back(), settings_.seed + 1, result_);
        }
        for (std::size_t j = 0; j < leaks_.size(); ++j) {
          std::string leak = StoreDigest(settings_, "leak", [&](const std::string& path) {
            leaksim::WriteLeakStore(path, leaks_[j]);
          });
          std::string fail = StoreDigest(settings_, "fail", [&](const std::string& path) {
            failsim::WriteFailStore(path, fails_[j]);
          });
          digests.Append(Json(leak + ":" + fail));
        }
        break;
      case BatchKind::kLinkFail:
        VerifyLinkSet(internet, fails_.front(), result_);
        for (const failsim::FailTable& table : fails_) {
          digests.Append(Json(StoreDigest(settings_, "fail", [&](const std::string& path) {
            failsim::WriteFailStore(path, table);
          })));
        }
        break;
    }
    result_.digests["jobs"] = std::move(digests);
  }

  BatchKind kind_;
  const Settings& settings_;
  SpanRecorder* spans_;
  Rng rng_;
  RunResult result_;
  Internet world_;
  std::vector<double> setups_;
  std::vector<Job> jobs_;
  int thrown_ = 0;
  std::uint64_t planned_units_ = 0;
  std::optional<sweep::SweepTable> sweep_;
  std::vector<leaksim::LeakTable> leaks_;
  std::vector<failsim::FailTable> fails_;
  EngineTally sweep_tally_, leak_tally_, knockout_tally_, link_tally_;
};

// Median µs of MergeTop over three per-shard top-20 answers ranked by
// degree: the merge the router runs for every `top`, on data every
// topology has.
double MergeTopUs(const Internet& internet) {
  const flatnet::AsGraph& graph = internet.graph();
  flatnet::fleet::Ring ring(3);
  std::vector<std::vector<AsId>> owned(3);
  for (AsId id = 0; id < graph.num_ases(); ++id) {
    owned[ring.Owner(graph.AsnOf(id))].push_back(id);
  }
  constexpr std::size_t k = 20;
  std::vector<Json> results;
  for (std::vector<AsId>& ids : owned) {
    std::sort(ids.begin(), ids.end(), [&](AsId a, AsId b) {
      if (graph.Degree(a) != graph.Degree(b)) return graph.Degree(a) > graph.Degree(b);
      return graph.AsnOf(a) < graph.AsnOf(b);
    });
    Json top = Json::MakeArray();
    for (std::size_t i = 0; i < std::min(k, ids.size()); ++i) {
      Json entry = Json::MakeObject();
      entry["asn"] = graph.AsnOf(ids[i]);
      entry["name"] = internet.NameOf(ids[i]);
      entry["reach"] = static_cast<std::uint64_t>(graph.Degree(ids[i]));
      top.Append(std::move(entry));
    }
    Json result = Json::MakeObject();
    result["denominator"] = static_cast<std::uint64_t>(graph.num_ases() - 1);
    result["k"] = static_cast<std::uint64_t>(k);
    result["metric"] = "hierarchy_free";
    result["top"] = std::move(top);
    results.push_back(std::move(result));
  }
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    Clock::time_point t0 = Clock::now();
    std::string merged = flatnet::fleet::MergeTop(results, {}, ring);
    us.push_back(MsSince(t0) * 1000.0);
    if (merged.empty()) throw Error("MergeTop returned nothing");
  }
  return Q(us, 0.5);
}

}  // namespace

Internet GenerateInternet(std::uint32_t ases) {
  flatnet::GeneratorParams params = flatnet::GeneratorParams::Era2020(ases);
  params.seed = 42;
  params.assign_prefixes = false;
  flatnet::World world = flatnet::GenerateWorld(params);
  return Internet(std::move(world.full_graph), std::move(world.tiers),
                  std::move(world.metadata));
}

RunResult RunBatchWorkload(BatchKind kind, const Settings& settings, SpanRecorder* spans) {
  return BatchRun(kind, settings, spans).Run();
}

void ProbeCampaignLayers(const Internet& internet, unsigned engines, const Settings& settings,
                         RunResult& result) {
  Rng rng(settings.seed ^ 0xca3ca3u);
  AsId as = static_cast<AsId>(rng.UniformU64(internet.num_ases()));
  if (engines & kSweepEngine) {
    EngineTally tally;
    RunSweepTallied(internet, tally);
    SetSweepLayers(tally, result);
  }
  if (engines & kLeakEngine) {
    EngineTally tally;
    RunLeak(internet, LeakCells(as, rng), tally);
    SetLeakLayers(tally, result);
  }
  if (engines & kKnockoutEngine) {
    EngineTally tally;
    RunFail(internet, KnockoutCells(as, rng), 16, kEngineThreads, tally);
    SetKnockoutLayers(tally, result);
  }
  if (engines & kLinkSetEngine) {
    EngineTally tally;
    RunFail(internet, {LinkCell(as, rng, 2)}, 1, kEngineThreads, tally);
    SetLinkSetLayers(tally, result);
  }
}

void ProbeKernelLayers(const Internet& internet, std::uint32_t ases, const Settings& settings,
                       RunResult& result) {
  const flatnet::AsGraph& graph = internet.graph();
  std::uint32_t n = static_cast<std::uint32_t>(graph.num_ases());
  Rng rng(settings.seed ^ 0xcafeu);
  flatnet::ReachabilityEngine engine(graph);
  flatnet::LeakWorkspace workspace;
  std::vector<double> hf_us, full_us, route_us, reliance_us, hegemony_us, leak_us;
  Json c0 = flatnet::obs::MetricsRegistry::Default().Snapshot().At("counters");
  auto us_since = [](Clock::time_point t0) { return MsSince(t0) * 1000.0; };
  std::uint32_t count = static_cast<std::uint32_t>(std::min<std::size_t>(kKernelOrigins, n));
  for (std::uint32_t origin : rng.SampleWithoutReplacement(n, count)) {
    Bitset mask = internet.HierarchyFreeExclusion(origin);
    Clock::time_point t0 = Clock::now();
    engine.Count(origin, &mask);
    hf_us.push_back(us_since(t0));
    t0 = Clock::now();
    engine.Count(origin);
    full_us.push_back(us_since(t0));
    t0 = Clock::now();
    flatnet::RouteComputation computation(graph, {{.node = origin}});
    route_us.push_back(us_since(t0));
    t0 = Clock::now();
    flatnet::ComputeReliance(computation);
    reliance_us.push_back(us_since(t0));
    if (hegemony_us.size() < kHegemonyOrigins) {
      t0 = Clock::now();
      flatnet::ComputeHegemony(computation);
      hegemony_us.push_back(us_since(t0));
    }
    flatnet::LeakExperiment experiment(graph, origin, flatnet::LeakConfig{});
    for (int attempt = 0; attempt < 100; ++attempt) {
      AsId leaker = static_cast<AsId>(rng.UniformU64(n));
      if (!experiment.CanLeak(leaker)) continue;
      t0 = Clock::now();
      experiment.Run(leaker, workspace);
      leak_us.push_back(us_since(t0));
      break;
    }
  }
  Json c1 = flatnet::obs::MetricsRegistry::Default().Snapshot().At("counters");
  double runs = NumberAt(c1, {"propagation.runs"}) - NumberAt(c0, {"propagation.runs"});
  result.Set("bgp.relax_ops_per_run", runs > 0 ? (RelaxOps(c1) - RelaxOps(c0)) / runs : 0.0,
             "count");
  result.Set("bgp.reach_hf_us", Q(hf_us, 0.5), "us");
  result.Set("bgp.reach_full_us", Q(full_us, 0.5), "us");
  result.Set("bgp.route_us", Q(route_us, 0.5), "us");
  result.Set("bgp.reliance_us", Q(reliance_us, 0.5), "us");
  result.Set("bgp.hegemony_us", Q(hegemony_us, 0.5), "us");
  result.Set("bgp.leak_trial_us", Q(leak_us, 0.5), "us");
  result.Set("fleet.merge_top_us", MergeTopUs(internet), "us");

  // Generation runs in a fresh process so its peak RSS is its own.
  std::string graph_path = StrFormat("%s/%d-probe.graph", settings.work_dir.c_str(),
                                     static_cast<int>(::getpid()));
  std::string log_path = graph_path + ".json";
  std::remove(log_path.c_str());
  {
    Child child(
        {settings.exe_dir + "/flatbench", "--gen-probe", std::to_string(ases), graph_path},
        log_path);
    while (child.Running()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::string text = ReadFile(log_path);
  std::remove(log_path.c_str());
  Json probe = Json::Parse(text.substr(text.rfind('{')));
  result.Set("topogen.gen_s", probe.At("gen_s").AsNumber(), "s");
  result.Set("topogen.peak_rss_mb", probe.At("peak_rss_mb").AsNumber(), "MB");
  result.Set("core.graph_save_s", probe.At("save_s").AsNumber(), "s");
  result.Set("core.graph_load_s", probe.At("load_s").AsNumber(), "s");
}

int GenProbeMain(std::uint32_t ases, const std::string& path) {
  Clock::time_point t0 = Clock::now();
  Internet internet = GenerateInternet(ases);
  double gen_s = SecondsSince(t0);
  double peak_rss_mb = PeakRssSelfMb();
  t0 = Clock::now();
  flatnet::SaveInternetBinary(internet, path);
  double save_s = SecondsSince(t0);
  t0 = Clock::now();
  Internet mapped = flatnet::LoadInternetBinary(path);
  double load_s = SecondsSince(t0);
  std::remove(path.c_str());
  Json out = Json::MakeObject();
  out["ases"] = static_cast<std::uint64_t>(mapped.num_ases());
  out["gen_s"] = gen_s;
  out["load_s"] = load_s;
  out["peak_rss_mb"] = peak_rss_mb;
  out["save_s"] = save_s;
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace flatbench
