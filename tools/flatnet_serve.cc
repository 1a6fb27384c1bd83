// flatnet_serve: resident analysis query service.
//
// Loads a topology once (from a SaveInternet stem, generating and caching
// it when absent) and answers reach / reliance / leak / status queries over
// line-delimited JSON on TCP — see src/serve/protocol.h for the grammar.
// Results are cached (sharded byte-budget LRU), admission is bounded, and
// SIGTERM/SIGINT drain gracefully: admitted queries finish and answer
// before the process exits.
//
// Usage:
//   flatnet_serve [--topology <stem>] [--era 2015|2020] [--ases N] [--seed S]
//                 [--port P] [--bind ADDR] [--port-file <file>]
//                 [--threads N] [--cache-mb MB] [--max-inflight N]
//                 [--default-deadline-ms MS] [--sweep <file>] [--leak <file>]
//                 [--fail <file>] [--log-level <level>] [--metrics-out <file>]
//                 [--slow-query-ms MS] [--recorder-dump <file>]
//                 [--shard I/N] [--max-connections N]
//
// Fleet membership: --shard I/N declares this process shard I of an
// N-shard fleet (0-based). Attach then keeps only this shard's slice of
// each store's rankings and cells under the consistent-hash ring
// (src/fleet/ring.h), and status advertises the owned ranges so the
// flatnet_router can route and merge. --max-connections caps live
// connections; past the cap an accept receives one structured
// `overloaded` error line (the router treats it as backpressure).
//
// Observability: --slow-query-ms (or FLATNET_SLOW_QUERY_MS) logs each
// request slower than the threshold with its phase timeline;
// --recorder-dump (or FLATNET_RECORDER_DUMP) enables the flight recorder
// and installs a fatal-signal handler that dumps it to the named file;
// FLATNET_METRICS_INTERVAL republishes --metrics-out every N seconds while
// the server runs. The `metrics` and `debug` serve ops expose the same
// state over the socket.
//
// With --topology, the stem is loaded when present; otherwise the era
// topology is generated and saved there (atomic publish), so restarts are
// fast. Without --topology the topology lives only in memory. --port 0
// (default) binds an ephemeral port; --port-file publishes the bound port
// for scripted clients.
//
// --sweep attaches a flatnet_sweep result store, enabling the `top` op
// (a load or fingerprint failure is then fatal). Without the flag,
// <stem>.sweep is attached when it exists and matches — best-effort, so a
// stale store logs a warning instead of blocking startup. --leak does the
// same for a flatnet_leaksim --campaign store and the `leakdist` op
// (implicit candidate: <stem>.leak), and --fail for a flatnet_failsim
// store and the `hegemony` + `failure` ops (implicit candidate:
// <stem>.fail).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <filesystem>

#include "core/graph_store.h"
#include "core/serialize.h"
#include "core/study.h"
#include "failsim/store.h"
#include "leaksim/store.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serve/server.h"
#include "sweep/store.h"
#include "util/error.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

serve::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();  // one atomic store
}

int Usage() {
  std::fprintf(stderr,
               "usage: flatnet_serve [--topology <stem>] [--era 2015|2020] [--ases N] "
               "[--seed S]\n"
               "                     [--port P] [--bind ADDR] [--port-file <file>]\n"
               "                     [--threads N] [--cache-mb MB] [--max-inflight N]\n"
               "                     [--default-deadline-ms MS] [--sweep <file>] "
               "[--leak <file>]\n"
               "                     [--fail <file>] [--log-level <level>] "
               "[--metrics-out <file>]\n"
               "                     [--slow-query-ms MS] [--recorder-dump <file>]\n"
               "                     [--shard I/N] [--max-connections N]\n");
  return 2;
}

Internet LoadOrGenerate(const std::string& stem, const std::string& era, std::uint32_t ases,
                        std::uint64_t seed) {
  // A `.graph` topology is memory-mapped: adjacency serves straight from
  // the file, no builder, no hash maps.
  if (IsGraphStorePath(stem)) {
    if (std::filesystem::exists(stem)) {
      std::fprintf(stderr, "mapping topology from %s...\n", stem.c_str());
      return LoadInternetBinary(stem);
    }
  } else if (!stem.empty() && InternetCacheExists(stem)) {
    std::fprintf(stderr, "loading topology from %s...\n", stem.c_str());
    return LoadInternet(stem);
  }
  StudyOptions options;
  options.generator =
      era == "2015" ? GeneratorParams::Era2015(ases) : GeneratorParams::Era2020(ases);
  if (seed != 0) options.generator.seed = seed;
  options.campaign.seed = options.generator.seed ^ 0xca3;
  std::fprintf(stderr, "generating %s-era Internet (%u ASes, seed %llu)...\n", era.c_str(),
               options.generator.total_ases,
               static_cast<unsigned long long>(options.generator.seed));
  Study study(options);
  Internet internet = study.internet();
  if (IsGraphStorePath(stem)) {
    SaveInternetBinary(internet, stem);
    std::fprintf(stderr, "cached topology at %s\n", stem.c_str());
  } else if (!stem.empty()) {
    SaveInternet(internet, stem);
    std::fprintf(stderr, "cached topology at %s.{as-rel.txt,meta.tsv}\n", stem.c_str());
  }
  return internet;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stem;
  std::string era = "2020";
  std::uint32_t ases = 0;
  std::uint64_t seed = 0;
  std::string bind_address = "127.0.0.1";
  std::uint64_t port = 0;
  std::string port_file;
  std::string metrics_out;
  std::string recorder_dump;
  std::string sweep_path;
  std::string leak_path;
  std::string fail_path;
  std::uint64_t max_connections = 0;
  serve::DispatcherOptions dispatch;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    auto next_u64 = [&](std::uint64_t* out) {
      const char* v = next();
      auto parsed = v ? ParseU64(v) : std::nullopt;
      if (!parsed) return false;
      *out = *parsed;
      return true;
    };
    std::uint64_t value = 0;
    if (arg == "--topology") {
      const char* v = next();
      if (!v) return Usage();
      stem = v;
    } else if (arg == "--era") {
      const char* v = next();
      if (!v || (std::strcmp(v, "2015") != 0 && std::strcmp(v, "2020") != 0)) return Usage();
      era = v;
    } else if (arg == "--ases") {
      if (!next_u64(&value)) return Usage();
      ases = static_cast<std::uint32_t>(value);
    } else if (arg == "--seed") {
      if (!next_u64(&seed)) return Usage();
    } else if (arg == "--port") {
      if (!next_u64(&port) || port > 65535) return Usage();
    } else if (arg == "--bind") {
      const char* v = next();
      if (!v) return Usage();
      bind_address = v;
    } else if (arg == "--port-file") {
      const char* v = next();
      if (!v) return Usage();
      port_file = v;
    } else if (arg == "--threads") {
      if (!next_u64(&value)) return Usage();
      dispatch.threads = value;
    } else if (arg == "--cache-mb") {
      if (!next_u64(&value)) return Usage();
      dispatch.cache_bytes = value * 1024 * 1024;
    } else if (arg == "--max-inflight") {
      if (!next_u64(&value) || value == 0) return Usage();
      dispatch.max_inflight = value;
    } else if (arg == "--default-deadline-ms") {
      if (!next_u64(&value)) return Usage();
      dispatch.default_deadline_ms = static_cast<std::int64_t>(value);
    } else if (arg == "--slow-query-ms") {
      if (!next_u64(&value)) return Usage();
      dispatch.slow_query_ms = static_cast<std::int64_t>(value);
    } else if (arg == "--shard") {
      // I/N, e.g. --shard 0/3: shard index / fleet size.
      const char* v = next();
      if (!v) return Usage();
      const char* slash = std::strchr(v, '/');
      if (!slash) return Usage();
      auto index = ParseU64(std::string(v, slash));
      auto count = ParseU64(slash + 1);
      if (!index || !count || *count == 0 || *index >= *count) return Usage();
      dispatch.shard_index = *index;
      dispatch.shard_count = *count;
    } else if (arg == "--max-connections") {
      if (!next_u64(&max_connections)) return Usage();
    } else if (arg == "--recorder-dump") {
      const char* v = next();
      if (!v) return Usage();
      recorder_dump = v;
    } else if (arg == "--sweep") {
      const char* v = next();
      if (!v) return Usage();
      sweep_path = v;
    } else if (arg == "--leak") {
      const char* v = next();
      if (!v) return Usage();
      leak_path = v;
    } else if (arg == "--fail") {
      const char* v = next();
      if (!v) return Usage();
      fail_path = v;
    } else if (arg == "--log-level") {
      const char* v = next();
      auto level = v ? obs::ParseLogLevel(v) : std::nullopt;
      if (!level) return Usage();
      obs::SetLogLevel(*level);
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return Usage();
      metrics_out = v;
    } else {
      return Usage();
    }
  }

  obs::RegisterCoreMetrics();
  if (!recorder_dump.empty()) {
    // The flag copy must outlive the process: the handler reads it at
    // crash time. InstallCrashHandler copies into static storage.
    obs::InstallCrashHandler(recorder_dump);
  } else {
    obs::InstallCrashHandlerFromEnv();
  }
  Internet internet;
  try {
    internet = LoadOrGenerate(stem, era, ases, seed);
  } catch (const Error& e) {
    std::fprintf(stderr, "flatnet_serve: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "topology: %zu ASes, %zu relationships\n", internet.num_ases(),
               internet.graph().num_edges());

  serve::Dispatcher dispatcher(internet, dispatch);

  // Explicit --sweep must attach; an implicit <stem>.sweep is opportunistic
  // (a store from an older topology just logs and is skipped).
  bool explicit_sweep = !sweep_path.empty();
  if (!explicit_sweep && !stem.empty()) {
    std::string candidate = stem + ".sweep";
    if (std::filesystem::exists(candidate)) sweep_path = candidate;
  }
  if (!sweep_path.empty()) {
    try {
      dispatcher.AttachSweepStore(sweep::SweepStore::Load(sweep_path), sweep_path);
      std::fprintf(stderr, "sweep store: %s (top op enabled)\n", sweep_path.c_str());
    } catch (const Error& e) {
      if (explicit_sweep) {
        std::fprintf(stderr, "cannot attach sweep store: %s\n", e.what());
        return 1;
      }
      std::fprintf(stderr, "ignoring sweep store %s: %s\n", sweep_path.c_str(), e.what());
    }
  }

  // Same contract for the leak-campaign store: explicit --leak is fatal on
  // failure, the implicit <stem>.leak candidate is opportunistic.
  bool explicit_leak = !leak_path.empty();
  if (!explicit_leak && !stem.empty()) {
    std::string candidate = stem + ".leak";
    if (std::filesystem::exists(candidate)) leak_path = candidate;
  }
  if (!leak_path.empty()) {
    try {
      dispatcher.AttachLeakStore(leaksim::LeakStore::Load(leak_path), leak_path);
      std::fprintf(stderr, "leak store: %s (leakdist op enabled)\n", leak_path.c_str());
    } catch (const Error& e) {
      if (explicit_leak) {
        std::fprintf(stderr, "cannot attach leak store: %s\n", e.what());
        return 1;
      }
      std::fprintf(stderr, "ignoring leak store %s: %s\n", leak_path.c_str(), e.what());
    }
  }

  // And for the failure-campaign store: explicit --fail is fatal on
  // failure, the implicit <stem>.fail candidate is opportunistic.
  bool explicit_fail = !fail_path.empty();
  if (!explicit_fail && !stem.empty()) {
    std::string candidate = stem + ".fail";
    if (std::filesystem::exists(candidate)) fail_path = candidate;
  }
  if (!fail_path.empty()) {
    try {
      dispatcher.AttachFailStore(failsim::FailStore::Load(fail_path), fail_path);
      std::fprintf(stderr, "fail store: %s (hegemony + failure ops enabled)\n",
                   fail_path.c_str());
    } catch (const Error& e) {
      if (explicit_fail) {
        std::fprintf(stderr, "cannot attach fail store: %s\n", e.what());
        return 1;
      }
      std::fprintf(stderr, "ignoring fail store %s: %s\n", fail_path.c_str(), e.what());
    }
  }

  serve::ServerOptions server_options;
  server_options.bind_address = bind_address;
  server_options.port = static_cast<std::uint16_t>(port);
  server_options.max_connections = max_connections;
  serve::Server server(dispatcher, server_options);

  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << '\n';
    if (!out) {
      std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
      return 1;
    }
  }
  std::printf("listening on %s:%u\n", bind_address.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  {
    // Republishes --metrics-out on the FLATNET_METRICS_INTERVAL cadence
    // while the server runs; a no-op when either is unset.
    obs::MetricsFlusher flusher(metrics_out, obs::MetricsFlusher::IntervalFromEnv());
    server.Run();
  }
  g_server = nullptr;

  serve::CacheStats cache = dispatcher.cache_stats();
  std::printf("shutdown: cache %llu hits / %llu misses / %llu evictions, %llu entries\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.entries));
  if (!metrics_out.empty()) obs::WriteMetricsFile(metrics_out);
  return 0;
}
