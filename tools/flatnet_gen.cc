// flatnet_gen: generate a synthetic Internet and write it out as a
// CAIDA-format AS-relationship file plus metadata sidecar (loadable by
// flatnet_reach / flatnet_leaksim / LoadInternet, and by any external tool
// that speaks the CAIDA serial-1 format), and/or as a binary `.graph`
// store that flatnet_serve / flatnet_sweep memory-map without rebuilding
// adjacency.
//
// Usage: flatnet_gen [--era 2015|2020] [--ases N] [--seed S]
//                    [--truth] [--world-only] [--graph-out <file.graph>]
//                    [--stream-budget-mb N] [--no-prefixes] [<output-stem>]
//   --truth       exports the ground-truth topology instead of the measured
//                 (BGP + inferred cloud neighbors) analysis topology.
//   --world-only  skips the traceroute campaign entirely and exports the
//                 generator's ground truth — the only viable mode at the
//                 million-AS scale (implies --truth).
//   --graph-out   also (or only) writes the binary topology store.
//   --stream-budget-mb  caps the generator's resident half-edge buffers;
//                 past the cap, sorted runs spill to disk and merge at
//                 assembly. Output is bit-identical at any budget.
//   --no-prefixes skips IPv4 prefix assignment (required above ~500k ASes,
//                 where the address pools run out; topology is unaffected).
//
// Peak RSS (getrusage) is reported on exit so scale runs can assert the
// streaming mode's memory ceiling.
#include <sys/resource.h>

#include <cstdio>
#include <limits>
#include <string>

#include "cli/cli.h"
#include "core/graph_store.h"
#include "core/serialize.h"
#include "core/study.h"
#include "util/stopwatch.h"

using namespace flatnet;

namespace {

constexpr char kUsage[] =
    "usage: flatnet_gen [--era 2015|2020] [--ases N] [--seed S] [--truth]\n"
    "                   [--world-only] [--graph-out <file.graph>]\n"
    "                   [--stream-budget-mb N] [--no-prefixes]\n"
    "                   [--log-level <level>] [--metrics-out <file>]\n"
    "                   [<output-stem>]\n";

long PeakRssKb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
  return usage.ru_maxrss;  // kilobytes on Linux
}

}  // namespace

int main(int argc, char** argv) {
  return cli::Main(argc, argv, "flatnet_gen", kUsage, [](cli::Args& args) {
    std::string era = "2020";
    std::uint32_t ases = 0;
    std::uint64_t seed = 0;
    std::uint64_t stream_budget_mb = 0;
    bool use_truth = false;
    bool world_only = false;
    bool no_prefixes = false;
    std::string stem;
    std::string graph_out;

    while (args.Next()) {
      if (args.Is("--era")) {
        era = args.Choice({"2015", "2020"}) == 0 ? "2015" : "2020";
      } else if (args.Is("--ases")) {
        ases = args.Unsigned<std::uint32_t>();
      } else if (args.Is("--seed")) {
        seed = args.Unsigned<std::uint64_t>();
      } else if (args.Is("--stream-budget-mb")) {
        // Scaled to bytes below, so the MB count must not overflow.
        stream_budget_mb =
            args.Unsigned<std::uint64_t>(0, std::numeric_limits<std::uint64_t>::max() >> 20);
      } else if (args.Is("--graph-out")) {
        graph_out = args.Value();
      } else if (args.Is("--truth")) {
        use_truth = true;
      } else if (args.Is("--world-only")) {
        world_only = true;
      } else if (args.Is("--no-prefixes")) {
        no_prefixes = true;
      } else {
        stem = args.Positional();
      }
    }
    if (stem.empty() && graph_out.empty()) throw cli::UsageError();

    StudyOptions options = EraStudyOptions(era == "2020", ases, seed);
    GeneratorParams& generator = options.generator;
    generator.stream_budget_bytes = stream_budget_mb << 20;
    generator.assign_prefixes = !no_prefixes;

    std::fprintf(stderr, "generating %s-era Internet (%u ASes, seed %llu%s)...\n", era.c_str(),
                 generator.total_ases, static_cast<unsigned long long>(generator.seed),
                 world_only ? ", world-only" : "");
    Stopwatch sw;
    Internet internet;
    const char* flavor;
    if (world_only) {
      World world = GenerateWorld(generator);
      internet = Internet(std::move(world.full_graph), std::move(world.tiers),
                          std::move(world.metadata));
      flavor = "ground-truth";
    } else {
      Study study(options);
      internet = use_truth ? study.truth() : study.internet();
      flavor = use_truth ? "ground-truth" : "measured";
    }
    double generate_s = sw.ElapsedSeconds();

    if (!stem.empty()) {
      SaveInternet(internet, stem);
      std::printf("wrote %s.as-rel.txt (%zu ASes, %zu edges) and %s.meta.tsv [%s topology]\n",
                  stem.c_str(), internet.num_ases(), internet.graph().num_edges(), stem.c_str(),
                  flavor);
    }
    if (!graph_out.empty()) {
      SaveInternetBinary(internet, graph_out);
      std::printf("wrote %s (%zu ASes, %zu edges, fingerprint %016llx) [%s topology]\n",
                  graph_out.c_str(), internet.num_ases(), internet.graph().num_edges(),
                  static_cast<unsigned long long>(ReadGraphStoreFingerprint(graph_out)),
                  flavor);
    }
    std::fprintf(stderr, "generated in %.2fs, peak RSS %ld KB\n", generate_s, PeakRssKb());
    return 0;
  });
}
