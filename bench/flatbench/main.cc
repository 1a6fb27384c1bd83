// flatbench: one benchmark for flatnet.
//
//   flatbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//             [--out <dir>]
//   flatbench compare <parent-dirs...> -- <change-dirs...> [--benchmark <file>]
//   flatbench --selftest [--benchmark <file>]
//
// A run prints progress on stderr and, as the last line of stdout, one
// JSON object: {"correct","attempted","failed","metrics"}. With --trace 0
// the metrics are the end-to-end set, measured with tracing off; with
// --trace 1 a separate traced run reports the per-layer set and writes
// trace.json (Chrome trace events). result.json in --out holds the same
// numbers plus details, output digests and the machine. See README.md for
// the workloads, the metrics and how they map onto each other.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign.h"
#include "common.h"
#include "obs/log.h"
#include "service.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatbench {

int CompareMain(const std::vector<std::string>& parent_dirs,
                const std::vector<std::string>& change_dirs,
                const std::string& benchmark_path);

namespace {

using flatnet::Json;
using flatnet::StrFormat;

// A run that outlives this is killed, children first.
constexpr double kRunBudgetS = 170.0;
constexpr double kSelftestBudgetS = 580.0;

struct WorkloadDef {
  const char* name;
  bool service;
  ServiceKind service_kind;
  BatchKind batch_kind;
};

constexpr WorkloadDef kWorkloads[] = {
    {"serve-hot", true, ServiceKind::kServeHot, BatchKind::kSweep},
    {"serve-cold", true, ServiceKind::kServeCold, BatchKind::kSweep},
    {"fleet-hot", true, ServiceKind::kFleetHot, BatchKind::kSweep},
    {"sweep-100k", false, ServiceKind::kServeHot, BatchKind::kSweep},
    {"resilience-100k", false, ServiceKind::kServeHot, BatchKind::kResilience},
    {"linkfail-100k", false, ServiceKind::kServeHot, BatchKind::kLinkFail},
};

// The printed metric sets; --selftest checks them against BENCHMARK.json.
const std::vector<std::string> kEndToEnd = {"p50_ms", "p99_ms", "throughput_per_s", "setup_s",
                                            "rss_mb"};
const std::vector<std::string> kPerLayer = {
    "serve.accept_ms",
    "serve.parse_ms",
    "serve.cache_probe_ms",
    "serve.queue_ms",
    "serve.setup_ms",
    "serve.serialize_ms",
    "serve.server_ms",
    "serve.residual_ms",
    "serve.trace_overhead_ms",
    "serve.cache.hit_ratio",
    "serve.cache.evictions",
    "serve.overloaded",
    "serve.pool.peak_queue_depth",
    "op.reach.p50_ms",
    "op.reliance.p50_ms",
    "op.leak.p50_ms",
    "op.top.p50_ms",
    "op.leakdist.p50_ms",
    "op.hegemony.p50_ms",
    "op.failure.p50_ms",
    "op.status.p50_ms",
    "bgp.propagation.customer_ms",
    "bgp.propagation.peer_ms",
    "bgp.propagation.provider_ms",
    "bgp.reliance_ms",
    "bgp.leak_baseline_ms",
    "bgp.relax_ops_per_run",
    "bgp.reach_hf_us",
    "bgp.reach_full_us",
    "bgp.route_us",
    "bgp.leak_trial_us",
    "bgp.reliance_us",
    "bgp.hegemony_us",
    "topogen.gen_s",
    "topogen.peak_rss_mb",
    "core.graph_save_s",
    "core.graph_load_s",
    "sweep.chunk_ms_mean",
    "sweep.worker_busy_frac",
    "sweep.stragglers",
    "sweep.nodes_reached_per_origin",
    "leaksim.chunk_ms_mean",
    "leaksim.worker_busy_frac",
    "leaksim.collected_ratio",
    "leaksim.relax_ops_per_trial",
    "failsim.chunk_ms_mean",
    "failsim.worker_busy_frac",
    "failsim.collected_ratio",
    "failsim.linkset_trial_s",
    "fleet.hedge_issued",
    "fleet.hedge_win_ratio",
    "fleet.retries",
    "fleet.backend_dials",
    "fleet.partial_answers",
    "fleet.shard_p99_skew",
    "fleet.point.p50_ms",
    "fleet.merge_top_us",
    "loadgen.late_p99_ms",
    "loadgen.sent",
    "loadgen.answered",
};

int Usage() {
  std::fprintf(stderr,
               "usage: flatbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]\n"
               "                 [--out <dir>]\n"
               "       flatbench compare <parent-dirs...> -- <change-dirs...> "
               "[--benchmark <file>]\n"
               "       flatbench --selftest [--benchmark <file>]\n"
               "workloads:");
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string ExeDir() {
  return std::filesystem::canonical("/proc/self/exe").parent_path().string();
}

// Runs one workload and returns its result with the printed metric set
// checked: every expected metric present, finite, and nothing else.
RunResult Execute(const WorkloadDef& workload, const Settings& settings, SpanRecorder* spans) {
  RunResult result = workload.service
                         ? RunServiceWorkload(workload.service_kind, settings, spans)
                         : RunBatchWorkload(workload.batch_kind, settings, spans);
  const std::vector<std::string>& expected = settings.trace ? kPerLayer : kEndToEnd;
  Metrics printed;
  for (const std::string& name : expected) {
    auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      throw flatnet::Error("metric " + name + " was not measured");
    }
    if (!std::isfinite(it->second.value)) {
      throw flatnet::Error("metric " + name + " is not a finite number");
    }
    printed[name] = it->second;
  }
  result.metrics = std::move(printed);
  return result;
}

Json MetricsJson(const Metrics& metrics) {
  Json out = Json::MakeObject();
  for (const auto& [name, metric] : metrics) {
    Json entry = Json::MakeObject();
    entry["unit"] = metric.unit;
    entry["value"] = metric.value;
    out[name] = std::move(entry);
  }
  return out;
}

Json ResultJson(const WorkloadDef& workload, const Settings& settings, const RunResult& result,
                double wall_s) {
  Json doc = Json::MakeObject();
  doc["workload"] = workload.name;
  doc["seed"] = settings.seed;
  doc["seconds"] = settings.seconds;
  doc["trace"] = settings.trace;
  doc["correct"] = result.correct;
  doc["attempted"] = result.attempted;
  doc["failed"] = result.failed;
  doc["metrics"] = MetricsJson(result.metrics);
  doc["digests"] = result.digests;
  doc["detail"] = result.detail;
  Json mismatches = Json::MakeArray();
  for (const std::string& m : result.mismatches) mismatches.Append(Json(m));
  doc["mismatches"] = std::move(mismatches);
  doc["machine"] = MachineInfo();
  doc["wall_s"] = wall_s;
  return doc;
}

int RunMain(const WorkloadDef& workload, Settings settings) {
  if (settings.out_dir.empty()) {
    settings.out_dir = StrFormat("%s/runs/%s-s%llu-t%d", settings.exe_dir.c_str(),
                                 workload.name, static_cast<unsigned long long>(settings.seed),
                                 settings.trace ? 1 : 0);
  }
  MakeDirs(settings.out_dir);
  MakeDirs(settings.work_dir);
  Watchdog watchdog(kRunBudgetS);
  Clock::time_point t0 = Clock::now();
  SpanRecorder spans(t0);
  RunResult result = Execute(workload, settings, settings.trace ? &spans : nullptr);
  double wall_s = SecondsSince(t0);
  Json doc = ResultJson(workload, settings, result, wall_s);
  WriteFile(settings.out_dir + "/result.json", doc.Dump(2));
  if (settings.trace) spans.Write(settings.out_dir + "/trace.json");
  std::fprintf(stderr, "flatbench: %s seed %llu: %.1f s, %llu attempted, %llu failed, %s\n",
               workload.name, static_cast<unsigned long long>(settings.seed), wall_s,
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed),
               result.correct ? "outputs verified" : "VERIFICATION FAILED");
  Json line = Json::MakeObject();
  line["attempted"] = result.attempted;
  line["correct"] = result.correct;
  line["failed"] = result.failed;
  line["metrics"] = MetricsJson(result.metrics);
  std::printf("%s\n", line.Dump().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

// Names listed under `section` in BENCHMARK.json.
std::vector<std::string> BenchmarkNames(const Json& doc, const char* section) {
  std::vector<std::string> names;
  for (const Json& entry : doc.At(section).AsArray()) {
    names.push_back(entry.At("name").AsString());
  }
  return names;
}

bool SameSet(std::vector<std::string> a, std::vector<std::string> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

// Every workload on a 2k-AS world with 2 s windows, both trace modes; the
// printed keys must match BENCHMARK.json, every output must verify, and a
// deliberately flipped reference byte must be caught.
int SelftestMain(Settings settings, const std::string& benchmark_path) {
  Watchdog watchdog(kSelftestBudgetS);
  settings.service_ases = 2000;
  settings.batch_ases = 2000;
  settings.seconds = 2.0;
  settings.warmup_s = 0.5;
  settings.capacity_s = 1.0;
  settings.work_dir = settings.exe_dir + "/selftest";
  MakeDirs(settings.work_dir);
  Json benchmark = Json::Parse(ReadFile(benchmark_path));
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::fprintf(stderr, "selftest: %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  std::vector<std::string> names;
  for (const WorkloadDef& w : kWorkloads) names.push_back(w.name);
  check(SameSet(names, BenchmarkNames(benchmark, "workloads")),
        "workloads match BENCHMARK.json");
  check(SameSet(kEndToEnd, BenchmarkNames(benchmark, "end_to_end")),
        "end-to-end metrics match BENCHMARK.json");
  check(SameSet(kPerLayer, BenchmarkNames(benchmark, "per_layer")),
        "per-layer metrics match BENCHMARK.json");

  for (const WorkloadDef& w : kWorkloads) {
    for (bool trace : {false, true}) {
      Settings s = settings;
      s.workload = w.name;
      s.trace = trace;
      std::string label = StrFormat("%s --trace %d", w.name, trace ? 1 : 0);
      try {
        SpanRecorder spans(Clock::now());
        RunResult r = Execute(w, s, trace ? &spans : nullptr);
        std::vector<std::string> keys;
        for (const auto& entry : r.metrics) keys.push_back(entry.first);
        check(SameSet(keys, trace ? kPerLayer : kEndToEnd), label + ": metric keys");
        check(r.correct, label + ": outputs verified");
        check(r.attempted > 0 && r.failed == 0, label + ": nothing failed");
      } catch (const std::exception& e) {
        check(false, label + ": " + e.what());
      }
    }
  }

  Settings flipped = settings;
  flipped.workload = "serve-hot";
  flipped.flip_reference_byte = true;
  try {
    RunResult r = Execute(kWorkloads[0], flipped, nullptr);
    check(!r.correct, "a flipped reference byte is caught");
  } catch (const std::exception& e) {
    check(false, std::string("flipped-byte run: ") + e.what());
  }
  std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int Main(int argc, char** argv) {
  Settings settings;
  settings.exe_dir = ExeDir();
  settings.work_dir = settings.exe_dir + "/work";
  std::string benchmark_path = "BENCHMARK.json";
  std::vector<std::string> args(argv + 1, argv + argc);

  if (!args.empty() && args[0] == "compare") {
    std::vector<std::string> parent, change;
    bool after_split = false;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--") {
        after_split = true;
      } else if (args[i] == "--benchmark" && i + 1 < args.size()) {
        benchmark_path = args[++i];
      } else {
        (after_split ? change : parent).push_back(args[i]);
      }
    }
    if (parent.empty() || change.empty()) return Usage();
    return CompareMain(parent, change, benchmark_path);
  }
  if (args.size() == 3 && args[0] == "--gen-probe") {
    auto ases = flatnet::ParseU64(args[1]);
    if (!ases) return Usage();
    return GenProbeMain(static_cast<std::uint32_t>(*ases), args[2]);
  }

  bool selftest = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    bool has_value = i + 1 < args.size();
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--benchmark" && has_value) {
      benchmark_path = args[++i];
    } else if (arg == "--workload" && has_value) {
      settings.workload = args[++i];
    } else if (arg == "--seed" && has_value) {
      auto seed = flatnet::ParseU64(args[++i]);
      if (!seed) return Usage();
      settings.seed = *seed;
    } else if (arg == "--seconds" && has_value) {
      auto seconds = flatnet::ParseDouble(args[++i]);
      if (!seconds || *seconds <= 0 || *seconds > 60) return Usage();
      settings.seconds = *seconds;
    } else if (arg == "--trace") {
      // `--trace 0|1`, or a bare `--trace` meaning 1.
      settings.trace = true;
      if (has_value && (args[i + 1] == "0" || args[i + 1] == "1")) {
        settings.trace = args[++i] == "1";
      }
    } else if (arg == "--out" && has_value) {
      settings.out_dir = args[++i];
    } else {
      return Usage();
    }
  }
  flatnet::obs::SetLogLevel(flatnet::obs::LogLevel::kWarn);
  if (selftest) return SelftestMain(settings, benchmark_path);
  const WorkloadDef* workload = FindWorkload(settings.workload);
  if (workload == nullptr) return Usage();
  return RunMain(*workload, settings);
}

}  // namespace flatbench

int main(int argc, char** argv) {
  try {
    return flatbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flatbench: %s\n", e.what());
    return 1;
  }
}
