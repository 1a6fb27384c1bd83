// flatnet_leaksim: route-leak resilience analysis from on-disk topology
// files (the §8 simulations as a command-line tool).
//
// Two modes:
//
//   Single victim (default): one (victim, scenario) series, serial.
//     flatnet_leaksim <stem> --victim <asn> [--trials N] [--seed S]
//                     [--lock none|t1|t1t2|global] [--hierarchy-only]
//                     [--pre-erratum]
//
//   Campaign (--campaign): victims x all five scenarios, evaluated by the
//   parallel engine (src/leaksim/) and published as a columnar `.leak`
//   store that flatnet_serve answers percentile queries from (`leakdist`
//   op). Victims come from --victim (pinned) or --victims N (drawn
//   without replacement from the master seed). Results are byte-identical
//   at any --threads value and equal to the serial mode per cell.
//     flatnet_leaksim <stem> --campaign [--victims N | --victim <asn>]
//                     [--trials N] [--seed S] [--threads N] [--chunk N]
//                     [--out <file>] [--resume] [--users] [--pre-erratum]
//
// Completed chunks are journaled to <out>.journal, so a killed campaign
// restarted with --resume recomputes only the missing chunks and produces
// a byte-identical store. --throttle-chunk-ms and --max-chunks are test
// hooks (slow the run so a kill can land mid-run / stop after N chunks).
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "core/graph_store.h"
#include "core/leak_scenarios.h"
#include "core/serialize.h"
#include "leaksim/engine.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

constexpr char kUsage[] =
    "usage: flatnet_leaksim <stem> --victim <asn> [--trials N] [--seed S]\n"
    "                       [--lock none|t1|t1t2|global] [--hierarchy-only]\n"
    "                       [--pre-erratum] [--log-level <level>]\n"
    "                       [--metrics-out <file>]\n"
    "       flatnet_leaksim <stem> --campaign [--victims N | --victim <asn>]\n"
    "                       [--trials N] [--seed S] [--threads N] [--chunk N]\n"
    "                       [--out <file>] [--resume] [--users] [--pre-erratum]\n"
    "                       [--throttle-chunk-ms MS] [--max-chunks N]\n"
    "                       [--log-level <level>] [--metrics-out <file>]\n";

void WarnUnderCollected(Asn asn, LeakScenario scenario, std::size_t collected,
                        std::size_t requested, std::size_t attempts) {
  std::fprintf(stderr,
               "warning: victim AS%llu scenario \"%s\": only %zu of %zu trials collected "
               "(%zu draws attempted); reported percentiles cover fewer trials than "
               "requested\n",
               static_cast<unsigned long long>(asn), ToString(scenario), collected, requested,
               attempts);
}

}  // namespace

int main(int argc, char** argv) {
  return cli::Main(argc, argv, "flatnet_leaksim", kUsage, [](cli::Args& args) {
    std::string stem;
    std::string out;
    std::optional<Asn> victim_asn;
    std::uint32_t trials = 500;
    std::size_t victims = 0;
    std::uint64_t seed = 1;
    LeakScenario scenario = LeakScenario::kAnnounceAll;
    bool hierarchy_only = false;
    bool campaign = false;
    bool use_users = false;
    PeerLockMode mode = PeerLockMode::kFull;
    leaksim::LeakCampaignOptions options;

    while (args.Next()) {
      if (args.RunFlag(&options, &options.chunk_trials)) continue;
      if (args.Is("--out")) {
        out = args.Value();
      } else if (args.Is("--victim")) {
        // ASN 0 is reserved (RFC 7607) and never appears in a topology.
        victim_asn = args.Unsigned<Asn>(1);
      } else if (args.Is("--victims")) {
        victims = args.Unsigned<std::size_t>(1);
      } else if (args.Is("--trials")) {
        trials = args.Unsigned<std::uint32_t>();
      } else if (args.Is("--seed")) {
        seed = args.Unsigned<std::uint64_t>();
      } else if (args.Is("--campaign")) {
        campaign = true;
      } else if (args.Is("--users")) {
        use_users = true;
      } else if (args.Is("--lock")) {
        // The announce-to-all scenarios; --hierarchy-only names the fifth.
        scenario = args.Choice(kLeakScenarioSlugs.First<4>());
      } else if (args.Is("--hierarchy-only")) {
        hierarchy_only = true;
      } else if (args.Is("--pre-erratum")) {
        mode = PeerLockMode::kDirectOnly;
      } else {
        stem = args.Positional();
      }
    }
    if (stem.empty()) throw cli::UsageError();
    if (!campaign && !victim_asn.has_value()) {
      throw cli::UsageError("--victim is required (or use --campaign)");
    }
    if (campaign && victims == 0 && !victim_asn.has_value()) victims = 5;
    if (hierarchy_only) scenario = LeakScenario::kAnnounceHierarchyOnly;

    Internet internet = LoadInternetAuto(stem);

    if (!campaign) {
      AsId victim = cli::ResolveAsn(internet, *victim_asn);
      LeakTrialSeries series =
          RunLeakScenario(internet, victim, scenario, trials, seed, nullptr, mode);
      std::printf("victim AS%llu (%s), scenario: %s%s, %zu trials\n",
                  static_cast<unsigned long long>(*victim_asn),
                  internet.NameOf(victim).c_str(), ToString(scenario),
                  mode == PeerLockMode::kDirectOnly ? " [pre-erratum]" : "",
                  series.collected());
      if (series.UnderCollected()) {
        WarnUnderCollected(*victim_asn, scenario, series.collected(), series.trials_requested,
                           series.attempts);
      }
      if (series.collected() == 0) {
        if (series.trials_requested == 0) {
          std::printf("ASes detoured: no trials requested\n");
          return 0;
        }
        std::fprintf(stderr,
                     "no valid leak trials collected in %zu draws (every drawn AS lacked a "
                     "route to the victim)\n",
                     series.attempts);
        return 1;
      }
      cli::PrintSeries("ASes detoured:", series.fraction_ases_detoured);
      return 0;
    }

    // Campaign mode: victims x all scenarios. The master seed drives both
    // the victim draw and each cell's trial seed, so a campaign is fully
    // reproducible from (topology, seed, victims, trials).
    std::size_t n = internet.num_ases();
    Rng master(seed);
    std::vector<AsId> victim_ids;
    if (victim_asn.has_value()) {
      victim_ids.push_back(cli::ResolveAsn(internet, *victim_asn));
    } else {
      for (std::uint32_t id : master.SampleWithoutReplacement(
               static_cast<std::uint32_t>(n),
               static_cast<std::uint32_t>(std::min(victims, n)))) {
        victim_ids.push_back(static_cast<AsId>(id));
      }
    }

    std::vector<leaksim::LeakCellSpec> cells;
    cells.reserve(victim_ids.size() * kNumLeakScenarios);
    for (AsId victim : victim_ids) {
      for (std::size_t s = 0; s < kNumLeakScenarios; ++s) {
        leaksim::LeakCellSpec spec;
        spec.victim = victim;
        spec.scenario = static_cast<LeakScenario>(s);
        spec.lock_mode = mode;
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
    if (out.empty()) out = stem + ".leak";
    options.journal_path = out + ".journal";

    std::fprintf(stderr, "topology: %zu ASes, %zu relationships; campaign: %zu cells\n", n,
                 internet.graph().num_edges(), cells.size());

    leaksim::LeakCampaignStats stats;
    leaksim::LeakTable table = leaksim::RunLeakCampaign(internet, cells, options, &stats);
    if (!cli::ReportRun("campaign", "trials", stats, stats.trials_evaluated,
                        options.journal_path)) {
      return 0;
    }

    for (const leaksim::LeakCellResult& cell : table.cells) {
      Asn asn = internet.graph().AsnOf(cell.spec.victim);
      if (cell.UnderCollected()) {
        WarnUnderCollected(asn, cell.spec.scenario, cell.collected(), cell.spec.trials,
                           cell.attempts);
      }
      std::string label =
          StrFormat("AS%llu %-36s", static_cast<unsigned long long>(asn),
                    ToString(cell.spec.scenario));
      cli::PrintSeries(label.c_str(), cell.fraction_ases);
    }
    leaksim::FinalizeLeakStore(out, table, options.journal_path);
    std::printf("wrote %s\n", out.c_str());
    return 0;
  });
}
