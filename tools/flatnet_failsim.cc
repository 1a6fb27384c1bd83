// flatnet_failsim: AS hegemony scores and failure-cascade campaigns from
// on-disk topology files.
//
// Two modes:
//
//   Hegemony (--hegemony): prints the top --top ASes by hegemony score
//   for one origin — the transit ASes the origin's routes depend on,
//   viewpoint-trimmed per Fontugne et al.
//     flatnet_failsim <stem> --hegemony --origin <asn> [--top N] [--trim F]
//
//   Campaign (default): origins x scenarios, evaluated by the parallel
//   engine (src/failsim/) and published as a columnar `.fail` store that
//   flatnet_serve answers ranking/series queries from (`hegemony` and
//   `failure` ops). Origins come from --origin (pinned) or --origins N
//   (drawn without replacement from the master seed). Results are
//   byte-identical at any --threads and --chunk value.
//     flatnet_failsim <stem> [--origins N | --origin <asn>] [--trials N]
//                     [--seed S] [--scenarios LIST] [--severity K]
//                     [--threads N] [--chunk N] [--out <file>] [--resume]
//                     [--users] [--trim F]
//
// Completed chunks are journaled to <out>.journal, so a killed campaign
// restarted with --resume recomputes only the missing chunks and produces
// a byte-identical store. --throttle-chunk-ms and --max-chunks are test
// hooks (slow the run so a kill can land mid-run / stop after N chunks).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bgp/hegemony.h"
#include "bgp/propagation.h"
#include "cli/cli.h"
#include "core/graph_store.h"
#include "core/serialize.h"
#include "failsim/engine.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

constexpr char kUsage[] =
    "usage: flatnet_failsim <stem> [--origins N | --origin <asn>] [--trials N]\n"
    "                       [--seed S] [--scenarios single_as,tier1,hegemony_cascade,\n"
    "                        link_set] [--severity K] [--threads N] [--chunk N]\n"
    "                       [--out <file>] [--resume] [--users] [--trim F]\n"
    "                       [--throttle-chunk-ms MS] [--max-chunks N]\n"
    "                       [--log-level <level>] [--metrics-out <file>]\n"
    "       flatnet_failsim <stem> --hegemony --origin <asn> [--top N] [--trim F]\n"
    "                       [--log-level <level>] [--metrics-out <file>]\n";

}  // namespace

int main(int argc, char** argv) {
  return cli::Main(argc, argv, "flatnet_failsim", kUsage, [](cli::Args& args) {
    std::string stem;
    std::string out;
    std::optional<Asn> origin_asn;
    std::uint32_t trials = 32;
    std::size_t origins = 0;
    std::size_t top = 10;
    std::uint64_t seed = 1;
    std::uint32_t severity = 2;
    bool hegemony_mode = false;
    bool use_users = false;
    std::vector<failsim::FailScenario> scenarios = {
        failsim::FailScenario::kSingleAs,
        failsim::FailScenario::kTier1,
        failsim::FailScenario::kHegemonyCascade,
        failsim::FailScenario::kLinkSet,
    };
    failsim::FailCampaignOptions options;

    while (args.Next()) {
      if (args.RunFlag(&options, &options.chunk_trials)) continue;
      if (args.Is("--out")) {
        out = args.Value();
      } else if (args.Is("--origin")) {
        // ASN 0 is reserved (RFC 7607) and never appears in a topology.
        origin_asn = args.Unsigned<Asn>(1);
      } else if (args.Is("--origins")) {
        origins = args.Unsigned<std::size_t>(1);
      } else if (args.Is("--trials")) {
        trials = args.Unsigned<std::uint32_t>();
      } else if (args.Is("--seed")) {
        seed = args.Unsigned<std::uint64_t>();
      } else if (args.Is("--top")) {
        top = args.Unsigned<std::size_t>(1);
      } else if (args.Is("--severity")) {
        severity = args.Unsigned<std::uint32_t>(1);
      } else if (args.Is("--trim")) {
        // Each end trims a fraction below one half.
        options.hegemony_trim = args.Double(0.0, std::nextafter(0.5, 0.0));
      } else if (args.Is("--hegemony")) {
        hegemony_mode = true;
      } else if (args.Is("--users")) {
        use_users = true;
      } else if (args.Is("--scenarios")) {
        scenarios.clear();
        for (std::string_view name : Split(args.Value(), ',')) {
          auto scenario = failsim::kFailScenarioNames.Find(name);
          if (!scenario) throw cli::UsageError("--scenarios: unknown scenario in the list");
          scenarios.push_back(*scenario);
        }
      } else {
        stem = args.Positional();
      }
    }
    if (stem.empty()) throw cli::UsageError();
    if (hegemony_mode && !origin_asn.has_value()) {
      throw cli::UsageError("--hegemony requires --origin");
    }
    if (!hegemony_mode && origins == 0 && !origin_asn.has_value()) origins = 5;

    Internet internet = LoadInternetAuto(stem);
    std::size_t n = internet.num_ases();

    if (hegemony_mode) {
      AsId origin = cli::ResolveAsn(internet, *origin_asn);
      RouteComputation computation(internet.graph(), {{.node = origin}});
      HegemonyOptions hegemony_options;
      hegemony_options.trim = options.hegemony_trim;
      HegemonyResult result = ComputeHegemony(computation, hegemony_options);
      std::vector<AsId> ranking = HegemonyRanking(result);
      std::printf("origin AS%llu (%s): %zu viewpoints, trim %zu each end\n",
                  static_cast<unsigned long long>(*origin_asn),
                  internet.NameOf(origin).c_str(), result.num_viewpoints,
                  result.trimmed_each_end);
      for (std::size_t i = 0; i < std::min(top, ranking.size()); ++i) {
        AsId a = ranking[i];
        std::printf("%3zu. AS%-10llu %-24s %.6f\n", i + 1,
                    static_cast<unsigned long long>(internet.graph().AsnOf(a)),
                    internet.NameOf(a).c_str(), result.hegemony[a]);
      }
      return 0;
    }

    // Campaign mode: origins x scenarios. The master seed drives both the
    // origin draw and each cell's trial seed, so a campaign is fully
    // reproducible from (topology, seed, origins, scenarios, trials).
    Rng master(seed);
    std::vector<AsId> origin_ids;
    if (origin_asn.has_value()) {
      origin_ids.push_back(cli::ResolveAsn(internet, *origin_asn));
    } else {
      for (std::uint32_t id : master.SampleWithoutReplacement(
               static_cast<std::uint32_t>(n),
               static_cast<std::uint32_t>(std::min(origins, n)))) {
        origin_ids.push_back(static_cast<AsId>(id));
      }
    }

    std::vector<failsim::FailCellSpec> cells;
    cells.reserve(origin_ids.size() * scenarios.size());
    for (AsId origin : origin_ids) {
      for (failsim::FailScenario scenario : scenarios) {
        failsim::FailCellSpec spec;
        spec.origin = origin;
        spec.scenario = scenario;
        spec.severity = scenario == failsim::FailScenario::kLinkSet ? severity : 0;
        spec.seed = master.NextU64();  // == Rng::Fork per cell
        spec.trials = trials;
        cells.push_back(spec);
      }
    }

    std::vector<double> users;
    if (use_users) {
      users = internet.metadata().UserArray();
      options.users = &users;
    }
    if (out.empty()) out = stem + ".fail";
    options.journal_path = out + ".journal";

    std::fprintf(stderr, "topology: %zu ASes, %zu relationships; campaign: %zu cells\n", n,
                 internet.graph().num_edges(), cells.size());

    failsim::FailCampaignStats stats;
    failsim::FailTable table = failsim::RunFailureCampaign(internet, cells, options, &stats);
    if (!cli::ReportRun("campaign", "trials", stats, stats.trials_evaluated,
                        options.journal_path)) {
      return 0;
    }

    for (const failsim::FailCellResult& cell : table.cells) {
      Asn asn = internet.graph().AsnOf(cell.spec.origin);
      if (cell.UnderCollected()) {
        std::fprintf(stderr,
                     "warning: origin AS%llu scenario \"%s\": only %zu of %u trials "
                     "collected (scenario pool exhausted)\n",
                     static_cast<unsigned long long>(asn), ToString(cell.spec.scenario),
                     cell.collected(), cell.spec.trials);
      }
      std::string label = StrFormat("AS%llu %-18s loss", static_cast<unsigned long long>(asn),
                                    ToString(cell.spec.scenario));
      cli::PrintSeries(label.c_str(), cell.loss_ases);
    }
    failsim::FinalizeFailStore(out, table, options.journal_path);
    std::printf("wrote %s\n", out.c_str());
    return 0;
  });
}
