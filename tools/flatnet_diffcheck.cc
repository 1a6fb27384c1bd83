// flatnet_diffcheck: differential fuzzing of the BGP kernels.
//
// Generates randomized small/medium topologies from the topogen archetypes
// (seeded, fully reproducible) and cross-checks the three propagation
// implementations — RouteComputation, ReachabilityEngine, EventBgpEngine —
// plus the structural invariants from src/check, over randomized origin /
// excluded-set / peer-lock / failed-link configurations. Each topology
// also runs one batch case, holding the sweep's bit-parallel kernel to the
// BFS with the topology seed as its case seed. Any divergence is logged as a
// minimized reproducer (generator seed + case parameters + first
// mismatching AS) and the process exits nonzero. CI runs a bounded budget
// of cases under ASan/UBSan; the full default sweep is the standing
// regression gate for kernel refactors.
//
// Usage:
//   flatnet_diffcheck [--cases N] [--seed S] [--min-ases A] [--max-ases B]
//                     [--per-topology K] [--era 2020|2015|both]
//                     [--log-level L] [--metrics-out <file>]
//   flatnet_diffcheck
//       --repro <era>:<topo-seed>:<ases>:<case-seed>:<excluded>:<lock>:<locked>:<senders>
//   flatnet_diffcheck --repro <era>:<topo-seed>:<ases>:<case-seed>:batch
//   flatnet_diffcheck --graph-identity <file.graph>
//
// The --repro string is printed verbatim when a case fails; feeding it back
// replays exactly that topology and configuration.
//
// --graph-identity memory-maps a binary topology store, re-feeds its edge
// list through AsGraphBuilder, and compares every CSR column bit for bit —
// the proof that a graph served from disk is indistinguishable from one
// built in memory.
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "check/diff.h"
#include "cli/cli.h"
#include "core/graph_store.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "topogen/generate.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

// Registered once, eagerly: the metrics snapshot reports both counters
// even on an all-clean run.
struct DiffcheckCounters {
  obs::Counter& cases = obs::GetCounter("diffcheck.cases");
  obs::Counter& mismatches = obs::GetCounter("diffcheck.mismatches");
};

DiffcheckCounters& Counters() {
  static DiffcheckCounters counters;
  return counters;
}

constexpr char kUsage[] =
    "usage: flatnet_diffcheck [--cases N] [--seed S] [--min-ases A] [--max-ases B]\n"
    "                         [--per-topology K] [--era 2020|2015|both]\n"
    "                         [--log-level trace|debug|info|warn|error|off]\n"
    "                         [--metrics-out <file>]\n"
    "       flatnet_diffcheck --repro "
    "<era>:<topo-seed>:<ases>:<case-seed>:<excluded>:<lock>:<locked>:<senders>\n"
    "       flatnet_diffcheck --repro <era>:<topo-seed>:<ases>:<case-seed>:batch\n"
    "       flatnet_diffcheck --graph-identity <file.graph>\n";

template <typename T>
bool ColumnsEqual(const char* name, std::span<const T> mapped, std::span<const T> built) {
  if (mapped.size() == built.size() &&
      std::equal(mapped.begin(), mapped.end(), built.begin())) {
    return true;
  }
  std::size_t at = 0;
  std::size_t common = std::min(mapped.size(), built.size());
  while (at < common && mapped[at] == built[at]) ++at;
  std::printf("MISMATCH column %s: sizes %zu vs %zu, first divergence at index %zu\n", name,
              mapped.size(), built.size(), at);
  return false;
}

int RunGraphIdentity(const std::string& path) {
  Internet internet = LoadInternetBinary(path);
  const AsGraph& mapped = internet.graph();
  AsGraphBuilder builder;
  for (AsId id = 0; id < mapped.num_ases(); ++id) builder.AddAs(mapped.AsnOf(id));
  for (const AsGraph::Edge& edge : mapped.EdgeList()) {
    builder.AddEdge(edge.a, edge.b, edge.type);
  }
  AsGraph built = std::move(builder).Build();

  bool ok = ColumnsEqual("asn_of", mapped.AsnColumn(), built.AsnColumn());
  ok &= ColumnsEqual("by_asn", mapped.ByAsnColumn(), built.ByAsnColumn());
  ok &= ColumnsEqual("slice", mapped.SliceColumn(), built.SliceColumn());
  ok &= ColumnsEqual("entry_ids", mapped.EntryIdsColumn(), built.EntryIdsColumn());
  if (ok) {
    std::printf("OK: %s (%zu ASes, %zu edges) is bit-identical to the builder-built graph\n",
                path.c_str(), mapped.num_ases(), mapped.num_edges());
  }
  return ok ? 0 : 1;
}

struct TopologyKey {
  bool era2020 = true;
  std::uint64_t topo_seed = 0;
  std::uint32_t ases = 0;
};

std::string ReproString(const TopologyKey& topo, const check::DiffCaseConfig& config) {
  return StrFormat("%s:%llu:%u:%llu:%zu:%s:%zu:%zu", topo.era2020 ? "2020" : "2015",
                   static_cast<unsigned long long>(topo.topo_seed), topo.ases,
                   static_cast<unsigned long long>(config.case_seed), config.excluded_count,
                   check::ToString(config.lock), config.locked_count,
                   config.filtered_sender_count);
}

World BuildWorld(const TopologyKey& topo) {
  GeneratorParams params =
      topo.era2020 ? GeneratorParams::Era2020(topo.ases) : GeneratorParams::Era2015(topo.ases);
  params.seed = topo.topo_seed;
  return GenerateWorld(params);
}

// Runs one case and handles reporting. Returns true when the oracle held.
bool RunCase(const World& world, const TopologyKey& topo, const check::DiffCaseConfig& config) {
  Counters().cases.Increment();
  check::DiffReport report = check::RunDiffCase(world.full_graph, config);
  if (report.ok) return true;
  Counters().mismatches.Increment();
  obs::Log(obs::LogLevel::kError, "diffcheck", "oracle.mismatch")
      .Kv("era", topo.era2020 ? "2020" : "2015")
      .Kv("topo_seed", static_cast<std::uint64_t>(topo.topo_seed))
      .Kv("ases", topo.ases)
      .Kv("case_seed", static_cast<std::uint64_t>(config.case_seed))
      .Kv("excluded", static_cast<std::uint64_t>(config.excluded_count))
      .Kv("lock", check::ToString(config.lock))
      .Kv("locked", static_cast<std::uint64_t>(config.locked_count))
      .Kv("senders", static_cast<std::uint64_t>(config.filtered_sender_count))
      .Kv("oracle", report.oracle)
      .Kv("first_asn", report.first_mismatch_asn)
      .Kv("detail", report.detail);
  std::printf("MISMATCH %s\n  replay: flatnet_diffcheck --repro %s\n", report.Summary().c_str(),
              ReproString(topo, config).c_str());
  return false;
}

// Runs one batch-kernel case and handles reporting, like RunCase.
bool RunBatchCase(const World& world, const TopologyKey& topo, std::uint64_t case_seed) {
  Counters().cases.Increment();
  check::DiffReport report = check::RunBatchReachCase(world.full_graph, case_seed);
  if (report.ok) return true;
  Counters().mismatches.Increment();
  std::string repro = StrFormat("%s:%llu:%u:%llu:batch", topo.era2020 ? "2020" : "2015",
                                static_cast<unsigned long long>(topo.topo_seed), topo.ases,
                                static_cast<unsigned long long>(case_seed));
  obs::Log(obs::LogLevel::kError, "diffcheck", "oracle.mismatch")
      .Kv("repro", repro)
      .Kv("oracle", report.oracle)
      .Kv("first_asn", report.first_mismatch_asn)
      .Kv("detail", report.detail);
  std::printf("MISMATCH %s\n  replay: flatnet_diffcheck --repro %s\n", report.Summary().c_str(),
              repro.c_str());
  return false;
}

int RunRepro(const std::string& repro) {
  auto fields = Split(repro, ':');
  bool batch = fields.size() == 5 && fields[4] == "batch";
  if (fields.size() != 8 && !batch) throw cli::UsageError("--repro: wrong number of fields");
  TopologyKey topo;
  if (fields[0] == "2020") {
    topo.era2020 = true;
  } else if (fields[0] == "2015") {
    topo.era2020 = false;
  } else {
    throw cli::UsageError("--repro: era must be 2020 or 2015");
  }
  topo.topo_seed = cli::ParseUnsigned<std::uint64_t>(fields[1], "--repro topo-seed");
  topo.ases = cli::ParseUnsigned<std::uint32_t>(fields[2], "--repro ases");
  check::DiffCaseConfig config;
  config.case_seed = cli::ParseUnsigned<std::uint64_t>(fields[3], "--repro case-seed");
  if (!batch) {
    auto lock = check::ParseLockSetup(fields[5]);
    if (!lock) throw cli::UsageError("--repro: unknown lock setup");
    config.excluded_count = cli::ParseUnsigned<std::size_t>(fields[4], "--repro excluded");
    config.lock = *lock;
    config.locked_count = cli::ParseUnsigned<std::size_t>(fields[6], "--repro locked");
    config.filtered_sender_count =
        cli::ParseUnsigned<std::size_t>(fields[7], "--repro senders");
  }

  World world = BuildWorld(topo);
  std::printf("replaying %s: %zu ASes, %zu edges\n", repro.c_str(), world.num_ases(),
              world.full_graph.num_edges());
  bool ok = batch ? RunBatchCase(world, topo, config.case_seed) : RunCase(world, topo, config);
  std::printf("%s\n", ok ? "OK: engines agree" : "MISMATCH (see above)");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::Main(argc, argv, "flatnet_diffcheck", kUsage, [](cli::Args& args) {
    std::uint64_t cases = 200;
    std::uint64_t seed = 20200901;
    std::uint32_t min_ases = 200;
    std::uint32_t max_ases = 900;
    std::uint64_t per_topology = 8;
    std::string era = "both";
    std::string repro;
    std::string graph_identity;

    while (args.Next()) {
      if (args.Is("--cases")) {
        cases = args.Unsigned<std::uint64_t>(1);
      } else if (args.Is("--seed")) {
        seed = args.Unsigned<std::uint64_t>();
      } else if (args.Is("--min-ases")) {
        min_ases = args.Unsigned<std::uint32_t>(50);
      } else if (args.Is("--max-ases")) {
        max_ases = args.Unsigned<std::uint32_t>();
      } else if (args.Is("--per-topology")) {
        per_topology = args.Unsigned<std::uint64_t>(1);
      } else if (args.Is("--era")) {
        constexpr const char* kEras[] = {"2020", "2015", "both"};
        era = kEras[args.Choice({"2020", "2015", "both"})];
      } else if (args.Is("--repro")) {
        repro = args.Value();
      } else if (args.Is("--graph-identity")) {
        graph_identity = args.Value();
      } else {
        args.Unknown();
      }
    }
    if (max_ases < min_ases) throw cli::UsageError("--max-ases is below --min-ases");

    if (!graph_identity.empty()) return RunGraphIdentity(graph_identity);
    if (!repro.empty()) return RunRepro(repro);

    Rng master(seed);
    Stopwatch total;
    std::uint64_t done = 0;
    std::uint64_t failures = 0;
    std::uint64_t topologies = 0;
    while (done < cases) {
      TopologyKey topo;
      topo.era2020 = era == "2020" || (era == "both" && topologies % 2 == 0);
      topo.topo_seed = master.NextU64();
      std::uint64_t span = std::uint64_t{max_ases} - min_ases + 1;
      topo.ases = static_cast<std::uint32_t>(min_ases + master.UniformU64(span));
      Stopwatch sw;
      World world = BuildWorld(topo);
      ++topologies;
      std::size_t n = world.num_ases();
      obs::Log(obs::LogLevel::kInfo, "diffcheck", "topology")
          .Kv("era", topo.era2020 ? "2020" : "2015")
          .Kv("seed", static_cast<std::uint64_t>(topo.topo_seed))
          .Kv("ases", static_cast<std::uint64_t>(n))
          .Kv("edges", static_cast<std::uint64_t>(world.full_graph.num_edges()))
          .Kv("gen_s", sw.ElapsedSeconds());
      if (!RunBatchCase(world, topo, topo.topo_seed)) ++failures;

      for (std::uint64_t k = 0; k < per_topology && done < cases; ++k, ++done) {
        check::DiffCaseConfig config;
        config.case_seed = master.NextU64();
        // Every third case runs the unrestricted graph; the rest excise up
        // to ~12% of the ASes. Lock setups cycle so all three appear per
        // topology.
        config.excluded_count = k % 3 == 0 ? 0 : 1 + master.UniformU64(n / 8);
        switch (k % 3) {
          case 0: config.lock = check::LockSetup::kNone; break;
          case 1: config.lock = check::LockSetup::kFull; break;
          default: config.lock = check::LockSetup::kDirectOnly; break;
        }
        if (config.lock != check::LockSetup::kNone) {
          config.locked_count = 1 + master.UniformU64(n / 10);
          config.filtered_sender_count = 1 + master.UniformU64(3);
        }
        if (!RunCase(world, topo, config)) ++failures;
      }
    }

    std::printf("diffcheck: %llu cases over %llu topologies, %llu mismatches, %.1fs\n",
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(topologies),
                static_cast<unsigned long long>(failures), total.ElapsedSeconds());
    return failures == 0 ? 0 : 1;
  });
}
