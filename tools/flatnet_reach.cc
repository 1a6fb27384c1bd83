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
#include "core/reachability_analysis.h"
#include "core/graph_store.h"
#include "core/serialize.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "sweep/engine.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

using namespace flatnet;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: flatnet_reach (<stem> | --rel <caida-file>) (--asn <asn> | --top N)\n"
               "                     [--threads N]\n"
               "                     [--log-level trace|debug|info|warn|error|off]\n"
               "                     [--metrics-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stem;
  std::string rel_file;
  std::string metrics_out;
  std::uint64_t asn = 0;
  std::uint64_t top = 0;
  std::uint64_t threads = 0;  // 0 = hardware concurrency

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--rel") {
      const char* v = next();
      if (!v) return Usage();
      rel_file = v;
    } else if (arg == "--log-level") {
      const char* v = next();
      auto level = v ? obs::ParseLogLevel(v) : std::nullopt;
      if (!level) return Usage();
      obs::SetLogLevel(*level);
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return Usage();
      metrics_out = v;
    } else if (arg == "--asn") {
      const char* v = next();
      auto parsed = v ? ParseU64(v) : std::nullopt;
      if (!parsed) return Usage();
      asn = *parsed;
    } else if (arg == "--top") {
      const char* v = next();
      auto parsed = v ? ParseU64(v) : std::nullopt;
      if (!parsed) return Usage();
      top = *parsed;
    } else if (arg == "--threads") {
      const char* v = next();
      auto parsed = v ? ParseU64(v) : std::nullopt;
      if (!parsed) return Usage();
      threads = *parsed;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      stem = arg;
    }
  }
  if ((stem.empty() == rel_file.empty()) || (asn == 0 && top == 0)) return Usage();

  auto finish = [&](int code) {
    if (!metrics_out.empty()) obs::WriteMetricsFile(metrics_out);
    return code;
  };

  Internet internet;
  try {
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
  } catch (const Error& e) {
    std::fprintf(stderr, "flatnet_reach: %s\n", e.what());
    return finish(1);
  }
  std::fprintf(stderr, "topology: %zu ASes, %zu relationships\n", internet.num_ases(),
               internet.graph().num_edges());

  if (asn != 0) {
    auto id = internet.graph().IdOf(static_cast<Asn>(asn));
    if (!id) {
      std::fprintf(stderr, "AS%llu not present in the topology\n",
                   static_cast<unsigned long long>(asn));
      return finish(1);
    }
    ReachabilitySummary r = AnalyzeReachability(internet, *id);
    double denom = static_cast<double>(internet.num_ases() - 1);
    std::printf("AS%llu%s%s\n", static_cast<unsigned long long>(asn),
                internet.NameOf(*id).empty() ? "" : " — ", internet.NameOf(*id).c_str());
    std::printf("  provider-free  reach(o, I\\Po):        %s (%.1f%%)\n",
                WithCommas(r.provider_free).c_str(), 100 * r.provider_free / denom);
    std::printf("  Tier-1-free    reach(o, I\\Po\\T1):     %s (%.1f%%)\n",
                WithCommas(r.tier1_free).c_str(), 100 * r.tier1_free / denom);
    std::printf("  hierarchy-free reach(o, I\\Po\\T1\\T2):  %s (%.1f%%)\n",
                WithCommas(r.hierarchy_free).c_str(), 100 * r.hierarchy_free / denom);
    return finish(0);
  }

  // The sweep's values are identical at any thread count, so the table
  // below is too.
  std::vector<std::uint32_t> sweep =
      sweep::HierarchyFreeSweep(internet, static_cast<std::size_t>(threads));
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
  return finish(0);
}
