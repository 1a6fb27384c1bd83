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

#include "cli/cli.h"
#include "core/graph_store.h"
#include "core/serialize.h"
#include "sweep/engine.h"

using namespace flatnet;

namespace {

constexpr char kUsage[] =
    "usage: flatnet_sweep <stem> [--out <file>] [--threads N] [--chunk N]\n"
    "                     [--columns reach|all] [--resume]\n"
    "                     [--throttle-chunk-ms MS] [--max-chunks N]\n"
    "                     [--log-level trace|debug|info|warn|error|off]\n"
    "                     [--metrics-out <file>]\n";

}  // namespace

int main(int argc, char** argv) {
  return cli::Main(argc, argv, "flatnet_sweep", kUsage, [](cli::Args& args) {
    std::string stem;
    std::string out;
    sweep::SweepOptions options;

    while (args.Next()) {
      if (args.RunFlag(&options, &options.chunk_size)) continue;
      if (args.Is("--out")) {
        out = args.Value();
      } else if (args.Is("--columns")) {
        options.columns = sweep::kReachColumns;
        if (args.Choice({"reach", "all"}) == 1) options.columns |= sweep::kPathColumns;
      } else {
        stem = args.Positional();
      }
    }
    if (stem.empty()) throw cli::UsageError();
    if (out.empty()) out = stem + ".sweep";
    options.journal_path = out + ".journal";

    Internet internet = LoadInternetAuto(stem);
    std::fprintf(stderr, "topology: %zu ASes, %zu relationships\n", internet.num_ases(),
                 internet.graph().num_edges());

    sweep::SweepRunStats stats;
    sweep::SweepTable table = sweep::RunSweep(internet, options, &stats);
    if (!cli::ReportRun("sweep", "origins", stats, stats.origins_computed,
                        options.journal_path)) {
      return 0;
    }
    sweep::FinalizeSweepStore(out, table, options.journal_path);
    std::printf("wrote %s\n", out.c_str());
    return 0;
  });
}
