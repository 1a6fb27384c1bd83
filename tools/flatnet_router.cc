// flatnet_router: fleet frontend for sharded flatnet_serve backends.
//
// Listens on the same line-delimited JSON protocol as flatnet_serve and
// routes each request across N backend shards (started with --shard i/N)
// over a consistent-hash ring: point queries go to the owning shard (with
// failover and hedging for compute ops), `top` is scatter-gathered and
// k-way merged byte-identical to a single-process answer, and `status`
// returns the merged fleet view. Dead shards degrade ranking answers to
// `partial: true` instead of errors; a restarted shard heals back in via
// the background prober. See src/fleet/router.h for the routing table.
//
// Usage:
//   flatnet_router --backends HOST:PORT,HOST:PORT,...
//                  [--port P] [--bind ADDR] [--port-file <file>]
//                  [--probe-interval-ms MS] [--request-timeout-ms MS]
//                  [--max-connections N]
//                  [--log-level <level>] [--metrics-out <file>]
//
// --backends lists the shards in ring order: the i-th address must be the
// backend started with --shard i/N. The ownership ring is a function of
// the shard count alone, so order is identity and no flag can make the
// router and its shards disagree on an owner. Hedging is always on, with
// the constants of src/fleet/hedge.h: a slow compute query is re-issued to
// the next distinct live shard once the owner has been silent for a
// multiple of its EWMA latency; first response wins. Every *-ms flag is
// capped at 3600000 (1 h, the protocol's deadline_ms cap); a larger value
// is a usage error.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "fleet/router.h"
#include "serve/server.h"
#include "util/error.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

serve::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();  // one atomic store
}

constexpr char kUsage[] =
    "usage: flatnet_router --backends HOST:PORT,HOST:PORT,...\n"
    "                      [--port P] [--bind ADDR] [--port-file <file>]\n"
    "                      [--probe-interval-ms MS] [--request-timeout-ms MS]\n"
    "                      [--max-connections N]\n"
    "                      [--log-level <level>] [--metrics-out <file>]\n";

std::vector<fleet::BackendAddress> ParseBackendList(const std::string& list) {
  std::vector<fleet::BackendAddress> backends;
  for (std::string_view part : Split(list, ',')) {
    if (!part.empty()) backends.push_back(fleet::ParseBackendAddress(std::string(part)));
  }
  return backends;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::Main(argc, argv, "flatnet_router", kUsage, [](cli::Args& args) {
    using Ms = std::chrono::milliseconds;
    fleet::RouterOptions router_options;
    serve::ServerOptions server_options;
    std::string port_file;

    while (args.Next()) {
      if (args.Is("--backends")) {
        for (const fleet::BackendAddress& backend : args.Value(ParseBackendList)) {
          router_options.backends.push_back(backend);
        }
      } else if (args.Is("--backend")) {
        // Repeatable single-address form, for scripts that build the list.
        router_options.backends.push_back(args.Value(fleet::ParseBackendAddress));
      } else if (args.Is("--port")) {
        server_options.port = args.Unsigned<std::uint16_t>();
      } else if (args.Is("--bind")) {
        server_options.bind_address = args.Value();
      } else if (args.Is("--port-file")) {
        port_file = args.Value();
      } else if (args.Is("--probe-interval-ms")) {
        router_options.probe_interval = Ms(args.Unsigned<Ms::rep>(1, serve::kMaxDeadlineMs));
      } else if (args.Is("--request-timeout-ms")) {
        router_options.request_timeout = Ms(args.Unsigned<Ms::rep>(1, serve::kMaxDeadlineMs));
      } else if (args.Is("--max-connections")) {
        server_options.max_connections = args.Unsigned<std::size_t>();
      } else {
        args.Unknown();
      }
    }
    if (router_options.backends.empty()) {
      throw cli::UsageError("at least one --backends address is required");
    }

    fleet::FleetRouter router(router_options);
    router.Start();
    std::fprintf(stderr, "fleet: %zu shards, %zu live\n", router_options.backends.size(),
                 router.pool().NumAlive());

    serve::Server server(
        [&router](const std::string& line, std::function<void(std::string)> done,
                  std::chrono::steady_clock::time_point received_at) {
          router.Handle(line, std::move(done), received_at);
        },
        /*drain=*/nullptr, server_options);

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << '\n';
      if (!out) throw Error("cannot write port file " + port_file);
    }
    std::printf("routing on %s:%u\n", server_options.bind_address.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    g_server = &server;
    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);
    server.Run();
    g_server = nullptr;
    router.Stop();

    fleet::RouterStats stats = router.stats();
    std::printf("shutdown: %llu requests, %llu errors, %llu hedges (%llu won), %llu partial\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.errors),
                static_cast<unsigned long long>(stats.hedge_issued),
                static_cast<unsigned long long>(stats.hedge_won),
                static_cast<unsigned long long>(stats.partial_answers));
    return 0;
  });
}
