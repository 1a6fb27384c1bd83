// flatnet_serve: resident analysis query service.
//
// Loads a topology once (from a `.graph` store or a text stem, generating
// and caching a `.graph` when absent) and answers reach / reliance / leak /
// status queries over line-delimited JSON on TCP — see
// src/serve/protocol.h for the grammar.
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
// With --topology, an existing `.graph` store or text stem is loaded. An
// absent `.graph` path gets the era topology (--era/--ases/--seed, the
// recipe flatnet_gen uses) generated and published there (atomic rename),
// so a restart maps exactly what the first run served; an absent text stem
// is an error. Without --topology the topology lives only in memory.
// --default-deadline-ms applies to queries that name no deadline_ms and
// shares the protocol's cap of 3600000 (1 h). --port 0 (default) binds an
// ephemeral port; --port-file publishes the bound port for scripted
// clients.
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
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include <filesystem>

#include "cli/cli.h"
#include "core/graph_store.h"
#include "core/study.h"
#include "failsim/store.h"
#include "leaksim/store.h"
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

constexpr char kUsage[] =
    "usage: flatnet_serve [--topology <stem>] [--era 2015|2020] [--ases N] "
    "[--seed S]\n"
    "                     [--port P] [--bind ADDR] [--port-file <file>]\n"
    "                     [--threads N] [--cache-mb MB] [--max-inflight N]\n"
    "                     [--default-deadline-ms MS] [--sweep <file>] "
    "[--leak <file>]\n"
    "                     [--fail <file>] [--log-level <level>] "
    "[--metrics-out <file>]\n"
    "                     [--slow-query-ms MS] [--recorder-dump <file>]\n"
    "                     [--shard I/N] [--max-connections N]\n";

void AttachSweep(serve::Dispatcher& dispatcher, const std::string& path) {
  dispatcher.AttachSweepStore(sweep::SweepStore::Load(path), path);
}

void AttachLeak(serve::Dispatcher& dispatcher, const std::string& path) {
  dispatcher.AttachLeakStore(leaksim::LeakStore::Load(path), path);
}

void AttachFail(serve::Dispatcher& dispatcher, const std::string& path) {
  dispatcher.AttachFailStore(failsim::FailStore::Load(path), path);
}

// --shard I/N, e.g. 0/3: this process is shard I of an N-shard fleet. The
// ring holds shard ids in 32 bits.
void ParseShard(const std::string& value, serve::DispatcherOptions* dispatch) {
  std::size_t slash = value.find('/');
  if (slash == std::string::npos) throw cli::UsageError("--shard: expected I/N");
  std::string_view text = value;
  auto count = cli::ParseUnsigned<std::uint32_t>(text.substr(slash + 1), "--shard count", 1);
  auto index = cli::ParseUnsigned<std::uint32_t>(text.substr(0, slash), "--shard index");
  if (index >= count) throw cli::UsageError("--shard: the index must be below the count");
  dispatch->shard_index = index;
  dispatch->shard_count = count;
}

// A result store the dispatcher can serve from: `<stem>.<kind>` is its
// implicit path, `ops` what attaching it enables.
struct StoreSlot {
  const char* kind;
  const char* ops;
  void (*attach)(serve::Dispatcher& dispatcher, const std::string& path);
};

constexpr StoreSlot kStores[] = {
    {"sweep", "top op", AttachSweep},
    {"leak", "leakdist op", AttachLeak},
    {"fail", "hegemony + failure ops", AttachFail},
};

// Attaches each store. An explicit --sweep/--leak/--fail path must attach
// (a load or fingerprint failure is fatal); an implicit <stem>.<kind> is
// opportunistic (a store from an older topology just logs and is skipped).
void AttachStores(serve::Dispatcher& dispatcher, const std::string& stem,
                  const std::string (&explicit_paths)[std::size(kStores)]) {
  for (std::size_t i = 0; i < std::size(kStores); ++i) {
    const StoreSlot& store = kStores[i];
    std::string path = explicit_paths[i];
    bool is_explicit = !path.empty();
    if (!is_explicit && !stem.empty()) {
      std::string candidate = stem + "." + store.kind;
      if (std::filesystem::exists(candidate)) path = candidate;
    }
    if (path.empty()) continue;
    try {
      store.attach(dispatcher, path);
      std::fprintf(stderr, "%s store: %s (%s enabled)\n", store.kind, path.c_str(), store.ops);
    } catch (const Error& e) {
      if (is_explicit) {
        throw Error(StrFormat("cannot attach %s store: %s", store.kind, e.what()));
      }
      std::fprintf(stderr, "ignoring %s store %s: %s\n", store.kind, path.c_str(), e.what());
    }
  }
}

// A `.graph` store is memory-mapped: adjacency serves straight from the
// file, no builder, no hash maps. An absent text stem fails in the loader,
// naming the missing file: text is never written as a cache.
Internet LoadOrGenerate(const std::string& topology, bool era2020, std::uint32_t ases,
                        std::uint64_t seed) {
  bool absent_graph = IsGraphStorePath(topology) && !std::filesystem::exists(topology);
  if (!topology.empty() && !absent_graph) {
    std::fprintf(stderr, "loading topology from %s...\n", topology.c_str());
    return LoadInternetAuto(topology);
  }
  StudyOptions options = EraStudyOptions(era2020, ases, seed);
  std::fprintf(stderr, "generating %s-era Internet (%u ASes, seed %llu)...\n",
               era2020 ? "2020" : "2015", options.generator.total_ases,
               static_cast<unsigned long long>(options.generator.seed));
  Study study(options);
  Internet internet = study.internet();
  if (!topology.empty()) {
    SaveInternetBinary(internet, topology);
    std::fprintf(stderr, "cached topology at %s\n", topology.c_str());
  }
  return internet;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::Main(argc, argv, "flatnet_serve", kUsage, [](cli::Args& args) {
    std::string stem;
    bool era2020 = true;
    std::uint32_t ases = 0;
    std::uint64_t seed = 0;
    std::string port_file;
    std::string recorder_dump;
    std::string store_paths[std::size(kStores)];  // --sweep, --leak, --fail
    serve::ServerOptions server_options;
    serve::DispatcherOptions dispatch;

    while (args.Next()) {
      if (args.Is("--topology")) {
        stem = args.Value();
      } else if (args.Is("--era")) {
        era2020 = args.Choice({"2015", "2020"}) == 1;
      } else if (args.Is("--ases")) {
        ases = args.Unsigned<std::uint32_t>();
      } else if (args.Is("--seed")) {
        seed = args.Unsigned<std::uint64_t>();
      } else if (args.Is("--port")) {
        server_options.port = args.Unsigned<std::uint16_t>();
      } else if (args.Is("--bind")) {
        server_options.bind_address = args.Value();
      } else if (args.Is("--port-file")) {
        port_file = args.Value();
      } else if (args.Is("--threads")) {
        dispatch.threads = args.Unsigned<std::size_t>();
      } else if (args.Is("--cache-mb")) {
        // Scaled to bytes, so the MB count must not overflow.
        dispatch.cache_bytes =
            args.Unsigned<std::size_t>(0, std::numeric_limits<std::size_t>::max() >> 20) << 20;
      } else if (args.Is("--max-inflight")) {
        dispatch.max_inflight = args.Unsigned<std::size_t>(1);
      } else if (args.Is("--default-deadline-ms")) {
        dispatch.default_deadline_ms = args.Unsigned<std::int64_t>(0, serve::kMaxDeadlineMs);
      } else if (args.Is("--slow-query-ms")) {
        dispatch.slow_query_ms = args.Unsigned<std::int64_t>();
      } else if (args.Is("--shard")) {
        ParseShard(args.Value(), &dispatch);
      } else if (args.Is("--max-connections")) {
        server_options.max_connections = args.Unsigned<std::size_t>();
      } else if (args.Is("--recorder-dump")) {
        recorder_dump = args.Value();
      } else if (args.Is("--sweep")) {
        store_paths[0] = args.Value();
      } else if (args.Is("--leak")) {
        store_paths[1] = args.Value();
      } else if (args.Is("--fail")) {
        store_paths[2] = args.Value();
      } else {
        args.Unknown();
      }
    }

    if (!recorder_dump.empty()) {
      // Overrides FLATNET_RECORDER_DUMP. The handler reads the path at
      // crash time; InstallCrashHandler copies it into static storage.
      obs::InstallCrashHandler(recorder_dump);
    }
    Internet internet = LoadOrGenerate(stem, era2020, ases, seed);
    std::fprintf(stderr, "topology: %zu ASes, %zu relationships\n", internet.num_ases(),
                 internet.graph().num_edges());

    serve::Dispatcher dispatcher(internet, dispatch);
    AttachStores(dispatcher, stem, store_paths);

    serve::Server server(dispatcher, server_options);
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << '\n';
      if (!out) throw Error("cannot write port file " + port_file);
    }
    std::printf("listening on %s:%u\n", server_options.bind_address.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    g_server = &server;
    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);
    server.Run();
    g_server = nullptr;

    serve::CacheStats cache = dispatcher.cache_stats();
    std::printf("shutdown: cache %llu hits / %llu misses / %llu evictions, %llu entries\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.evictions),
                static_cast<unsigned long long>(cache.entries));
    return 0;
  });
}
