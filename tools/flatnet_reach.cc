// flatnet_reach: compute the paper's reachability metrics from on-disk
// topology files.
//
// Usage:
//   flatnet_reach <stem> --asn <asn>        one origin's three metrics
//   flatnet_reach <stem> --top N            top-N by hierarchy-free reach
//                 [--threads N]             sweep parallelism (0 = all cores)
//
// <stem> names a pair written by flatnet_gen / SaveInternet
// (<stem>.as-rel.txt + <stem>.meta.tsv). For raw CAIDA files without a
// metadata sidecar, use --rel <file> instead; tiers are then inferred from
// graph structure.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "asgraph/caida.h"
#include "asgraph/tiers.h"
#include "cli/cli.h"
#include "core/graph_store.h"
#include "core/reachability_analysis.h"
#include "core/serialize.h"
#include "sweep/engine.h"
#include "util/strings.h"
#include "util/table.h"

using namespace flatnet;

namespace {

constexpr char kUsage[] =
    "usage: flatnet_reach (<stem> | --rel <caida-file>) (--asn <asn> | --top N)\n"
    "                     [--threads N]\n"
    "                     [--log-level trace|debug|info|warn|error|off]\n"
    "                     [--metrics-out <file>]\n";

}  // namespace

int main(int argc, char** argv) {
  return cli::Main(argc, argv, "flatnet_reach", kUsage, [](cli::Args& args) {
    std::string stem;
    std::string rel_file;
    Asn asn = 0;
    std::size_t top = 0;
    std::size_t threads = 0;  // 0 = hardware concurrency

    while (args.Next()) {
      if (args.Is("--rel")) {
        rel_file = args.Value();
      } else if (args.Is("--asn")) {
        asn = args.Unsigned<Asn>();
      } else if (args.Is("--top")) {
        top = args.Unsigned<std::size_t>();
      } else if (args.Is("--threads")) {
        threads = args.Unsigned<std::size_t>();
      } else {
        stem = args.Positional();
      }
    }
    if ((stem.empty() == rel_file.empty()) || (asn == 0 && top == 0)) throw cli::UsageError();

    Internet internet;
    if (!stem.empty()) {
      internet = LoadInternetAuto(stem);
    } else {
      AsGraph graph = LoadCaidaFile(rel_file);
      TierSets tiers = InferTierSets(graph);
      AsMetadata metadata(graph.num_ases());
      std::fprintf(stderr, "inferred %zu Tier-1s and %zu Tier-2s from graph structure\n",
                   tiers.tier1.size(), tiers.tier2.size());
      internet = Internet(std::move(graph), std::move(tiers), std::move(metadata));
    }
    std::fprintf(stderr, "topology: %zu ASes, %zu relationships\n", internet.num_ases(),
                 internet.graph().num_edges());

    if (asn != 0) {
      AsId id = cli::ResolveAsn(internet, asn);
      ReachabilitySummary r = AnalyzeReachability(internet, id);
      double denom = static_cast<double>(internet.num_ases() - 1);
      std::printf("AS%u%s%s\n", asn, internet.NameOf(id).empty() ? "" : " — ",
                  internet.NameOf(id).c_str());
      std::printf("  provider-free  reach(o, I\\Po):        %s (%.1f%%)\n",
                  WithCommas(r.provider_free).c_str(), 100 * r.provider_free / denom);
      std::printf("  Tier-1-free    reach(o, I\\Po\\T1):     %s (%.1f%%)\n",
                  WithCommas(r.tier1_free).c_str(), 100 * r.tier1_free / denom);
      std::printf("  hierarchy-free reach(o, I\\Po\\T1\\T2):  %s (%.1f%%)\n",
                  WithCommas(r.hierarchy_free).c_str(), 100 * r.hierarchy_free / denom);
      return 0;
    }

    // The sweep's values are identical at any thread count, so the table
    // below is too.
    std::vector<std::uint32_t> sweep = sweep::HierarchyFreeSweep(internet, threads);
    std::vector<AsId> order(internet.num_ases());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](AsId a, AsId b) { return sweep[a] > sweep[b]; });
    TextTable table;
    table.AddColumn("#", TextTable::Align::kRight);
    table.AddColumn("ASN", TextTable::Align::kRight);
    table.AddColumn("name");
    table.AddColumn("hierarchy-free", TextTable::Align::kRight);
    for (std::size_t i = 0; i < top && i < order.size(); ++i) {
      AsId id = order[i];
      table.AddRow({std::to_string(i + 1), std::to_string(internet.graph().AsnOf(id)),
                    internet.NameOf(id), WithCommas(sweep[id])});
    }
    table.Print(stdout);
    return 0;
  });
}
