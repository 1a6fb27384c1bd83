// flatnet_sweep: all-origins batch sweep with checkpoint/resume.
//
// Computes the paper's per-origin reachability metrics for every AS in an
// on-disk topology and publishes them as a columnar `.sweep` store that
// flatnet_serve (`top` op) and flatnet_reach answer from in microseconds.
//
// Usage:
//   flatnet_sweep <stem> [--out <file>] [--threads N] [--chunk N]
//                 [--columns reach|all] [--resume]
//                 [--throttle-chunk-ms MS] [--max-chunks N]
//                 [--log-level <level>] [--metrics-out <file>]
//
// <stem> names a pair written by flatnet_gen / SaveInternet. The store
// defaults to <stem>.sweep; completed chunks are journaled to
// <out>.journal as the sweep runs, so a killed run restarted with
// --resume recomputes only the missing chunks and produces a
// byte-identical store. The journal is removed once the store publishes.
//
// --throttle-chunk-ms and --max-chunks are test hooks (slow the sweep so
// a kill can land mid-run / stop after N chunks); production runs leave
// them unset.
#include <cstdio>
#include <string>

#include "campaign/cli.h"
#include "core/graph_store.h"
#include "core/serialize.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sweep/engine.h"
#include "util/error.h"

using namespace flatnet;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: flatnet_sweep <stem> [--out <file>] [--threads N] [--chunk N]\n"
               "                     [--columns reach|all] [--resume]\n"
               "                     [--throttle-chunk-ms MS] [--max-chunks N]\n"
               "                     [--log-level trace|debug|info|warn|error|off]\n"
               "                     [--metrics-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stem;
  std::string out;
  std::string metrics_out;
  sweep::SweepOptions options;

  for (int i = 1; i < argc; ++i) {
    campaign::FlagStatus run_flag =
        campaign::ParseRunFlag(argc, argv, &i, &options, &options.chunk_size);
    if (run_flag == campaign::FlagStatus::kBad) return Usage();
    if (run_flag == campaign::FlagStatus::kParsed) continue;
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--out") {
      const char* v = next();
      if (!v) return Usage();
      out = v;
    } else if (arg == "--columns") {
      const char* v = next();
      if (!v) return Usage();
      std::string which = v;
      if (which == "reach") {
        options.columns = sweep::kReachColumns;
      } else if (which == "all") {
        options.columns = sweep::kReachColumns | sweep::kPathColumns;
      } else {
        return Usage();
      }
    } else if (arg == "--log-level") {
      const char* v = next();
      auto level = v ? obs::ParseLogLevel(v) : std::nullopt;
      if (!level) return Usage();
      obs::SetLogLevel(*level);
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return Usage();
      metrics_out = v;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      stem = arg;
    }
  }
  if (stem.empty()) return Usage();
  if (out.empty()) out = stem + ".sweep";
  options.journal_path = out + ".journal";

  obs::RegisterCoreMetrics();
  obs::InstallCrashHandlerFromEnv();
  // Republishes --metrics-out on the FLATNET_METRICS_INTERVAL cadence so a
  // collector can watch a long sweep live; no-op when either is unset.
  obs::MetricsFlusher flusher(metrics_out, obs::MetricsFlusher::IntervalFromEnv());

  auto finish = [&](int code) {
    if (!metrics_out.empty()) obs::WriteMetricsFile(metrics_out);
    return code;
  };

  try {
    Internet internet = LoadInternetAuto(stem);
    std::fprintf(stderr, "topology: %zu ASes, %zu relationships\n", internet.num_ases(),
                 internet.graph().num_edges());

    sweep::SweepRunStats stats;
    sweep::SweepTable table = sweep::RunSweep(internet, options, &stats);
    if (!campaign::ReportRun("sweep", "origins", stats, stats.origins_computed,
                             options.journal_path)) {
      return finish(0);
    }
    sweep::FinalizeSweepStore(out, table, options.journal_path);
    std::printf("wrote %s\n", out.c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "flatnet_sweep: %s\n", e.what());
    return finish(1);
  }
  return finish(0);
}
