// flatnet_loadgen: closed-loop load generator and checker for flatnet_serve.
//
// Opens N connections, sweeps a randomized mix of reach / reliance / leak /
// status queries over origins sampled from the topology (a small hot set is
// revisited so the server's result cache sees repeats), and reports p50 /
// p95 / p99 latency, throughput, error rate, and cache-hit rate as one JSON
// object on stdout. A single preflight `status` probe builds a capability
// map: `top` joins the mix only when the server reports a loaded sweep
// store, and `hegemony` / `failure` join only when it reports a loaded fail
// store (their origins and scenarios come from the store's advertisement,
// so every query hits a real cell). Ops the server cannot answer are listed
// under `skipped_ops` in the report instead of surfacing as counted errors.
//
// Requests carry `"timing":true` (disable with --no-timing), so every ok
// response returns the server's phase timeline. The report's `attribution`
// object splits mean latency into server-side groups — queue wait, cache
// probe, propagation, serialization, other — plus the client-side residual
// (RTT + loadgen overhead = measured latency minus server_ms), answering
// "where did the milliseconds go" without any server-side log digging.
//
// --verify K additionally cross-checks K reach queries: each is issued
// twice (cold, then cached) and the raw `result` bytes must be identical,
// the response must carry no `timing` field (the queries are sent without
// one, confirming tracing-off responses are byte-stable), a third timed
// issue of the same query must embed identical `result` bytes, and the
// reported reachable count must equal a direct local computation with the
// independent valley-free BFS engine (bgp/reachability.h) on the same
// topology — the serve path runs the phase-based RouteComputation, so this
// exercises the same cross-engine equivalence the differential oracle
// (src/check) guarantees.
//
// --fleet points the loadgen at a flatnet_router instead of a single
// server: the preflight reads the router's merged fleet view, rebuilds the
// consistent-hash ring locally from its shard count, and
// attributes every keyed request to its owning shard. The report then
// carries a `fleet` object — per-shard p50/p95/p99 from the client's
// vantage, the router's hedge counters and win rate, the number of
// partial (`partial: true`) ranking answers observed, and how many
// requests came back `unavailable` (a dead owner's store slice).
// `unavailable` responses are expected while a shard is down, so in fleet
// mode they are counted separately instead of as hard errors.
//
// Usage:
//   flatnet_loadgen --topology <stem> (--port P | --port-file <file>)
//                   [--host ADDR] [--requests N] [--connections C]
//                   [--seed S] [--verify K] [--no-timing] [--fleet]
//                   [--log-level <level>] [--metrics-out <file>]
//
// Exits nonzero on any protocol error, transport failure, or verification
// mismatch.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bgp/leak.h"
#include "bgp/reachability.h"
#include "cli/cli.h"
#include "core/graph_store.h"
#include "core/serialize.h"
#include "fleet/backend.h"
#include "fleet/ring.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

constexpr char kUsage[] =
    "usage: flatnet_loadgen --topology <stem> (--port P | --port-file <file>)\n"
    "                       [--host ADDR] [--requests N] [--connections C]\n"
    "                       [--seed S] [--verify K] [--no-timing] [--fleet]\n"
    "                       [--log-level <level>] [--metrics-out <file>]\n";

// Bounds every dial and every reply by the protocol's deadline cap, so a
// hung server fails the run instead of hanging it.
constexpr std::chrono::milliseconds kTimeout{serve::kMaxDeadlineMs};

// Sends one request line and returns its reply line.
std::string RoundTrip(fleet::BackendConn& conn, const std::string& request) {
  conn.SendLine(request);
  std::optional<std::string> reply = conn.ReadLine(std::chrono::steady_clock::now() + kTimeout);
  if (!reply) throw Error("no reply within the deadline cap");
  return std::move(*reply);
}

// Server-side latency attribution, accumulated from `timing` fields.
// Phases are folded into coarse groups so the report stays readable:
// queue wait, cache probe, propagation (all propagation.* phases),
// serialization (serialize + write), and other (accept/parse/setup/...).
struct Attribution {
  double queue_ms = 0.0;
  double cache_ms = 0.0;
  double propagation_ms = 0.0;
  double serialize_ms = 0.0;
  double other_ms = 0.0;
  double server_ms = 0.0;    // sum of every reported phase
  double residual_ms = 0.0;  // client latency - server_ms (RTT + overhead)
  std::uint64_t timed = 0;   // responses that carried a timing field

  void Fold(const Json& timing, double client_ms) {
    const Json& phases = timing.Get("phases");
    if (phases.type() != Json::Type::kArray) return;
    double total = 0.0;
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const Json& entry = phases[i];
      if (entry.Get("name").type() != Json::Type::kString ||
          entry.Get("ms").type() != Json::Type::kNumber) {
        continue;
      }
      const std::string& name = entry.Get("name").AsString();
      double ms = entry.Get("ms").AsNumber();
      total += ms;
      if (name == "queue") {
        queue_ms += ms;
      } else if (name == "cache_probe") {
        cache_ms += ms;
      } else if (name.rfind("propagation.", 0) == 0) {
        propagation_ms += ms;
      } else if (name == "serialize" || name == "write") {
        serialize_ms += ms;
      } else {
        other_ms += ms;
      }
    }
    server_ms += total;
    residual_ms += client_ms - total;
    ++timed;
  }

  void Merge(const Attribution& other) {
    queue_ms += other.queue_ms;
    cache_ms += other.cache_ms;
    propagation_ms += other.propagation_ms;
    serialize_ms += other.serialize_ms;
    other_ms += other.other_ms;
    server_ms += other.server_ms;
    residual_ms += other.residual_ms;
    timed += other.timed;
  }
};

struct WorkerTally {
  std::vector<double> latencies_ms;
  std::uint64_t ok = 0;
  std::uint64_t cached = 0;
  std::uint64_t cacheable = 0;
  std::uint64_t errors = 0;
  Attribution attribution;
  std::vector<std::string> error_samples;
  // Fleet mode: latencies bucketed by the owning shard of each keyed
  // request, plus the degraded-answer counters the report surfaces.
  std::vector<std::vector<double>> shard_latencies_ms;
  std::uint64_t partial = 0;
  std::uint64_t unavailable = 0;
};

// What the server can answer, discovered by one preflight `status` probe.
// Ops the server cannot serve (no sweep store → top, no fail store →
// hegemony / failure) are left out of the request mix and recorded in
// `skipped` for the report, instead of being issued and counted as errors.
struct Capabilities {
  bool top = false;
  bool fail = false;
  bool fail_users = false;                  // store carries loss_users
  std::vector<Asn> fail_origins;            // advertised cell origins
  std::vector<std::string> fail_scenarios;  // advertised scenario slugs
  std::vector<std::string> skipped;         // ops absent from the mix
};

Capabilities ProbeCapabilities(const Json& status) {
  Capabilities caps;
  const Json& result = status.Get("result");
  const Json& sweep_loaded = result.Get("sweep_store").Get("loaded");
  caps.top = sweep_loaded.type() == Json::Type::kBool && sweep_loaded.AsBool();
  const Json& fail_store = result.Get("fail_store");
  const Json& fail_loaded = fail_store.Get("loaded");
  if (fail_loaded.type() == Json::Type::kBool && fail_loaded.AsBool()) {
    const Json& users = fail_store.Get("has_users");
    caps.fail_users = users.type() == Json::Type::kBool && users.AsBool();
    const Json& origins = fail_store.Get("origins");
    if (origins.type() == Json::Type::kArray) {
      for (std::size_t i = 0; i < origins.size(); ++i) {
        if (origins[i].type() == Json::Type::kNumber) {
          caps.fail_origins.push_back(static_cast<Asn>(origins[i].AsU64()));
        }
      }
    }
    const Json& scenarios = fail_store.Get("scenarios");
    if (scenarios.type() == Json::Type::kArray) {
      for (std::size_t i = 0; i < scenarios.size(); ++i) {
        if (scenarios[i].type() == Json::Type::kString) {
          caps.fail_scenarios.push_back(scenarios[i].AsString());
        }
      }
    }
    caps.fail = !caps.fail_origins.empty() && !caps.fail_scenarios.empty();
  }
  if (!caps.top) caps.skipped.push_back("top");
  if (!caps.fail) {
    caps.skipped.push_back("hegemony");
    caps.skipped.push_back("failure");
  }
  return caps;
}

// One of `table`'s spellings, drawn uniformly.
template <typename Enum, std::size_t N>
const char* RandomName(Rng& rng, const NameTable<Enum, N>& table) {
  return table.names[rng.UniformU64(N)];
}

// Builds one request from the mix. Base: ~55% reach, 20% reliance, 15%
// leak, 10% status. A loaded sweep store moves 10 points from reach to
// `top`; a loaded fail store moves another 10 to `hegemony` / `failure`
// (5 each), targeting the store's advertised origins and scenarios so the
// queries hit real cells. Origins come from a 16-AS hot pool 70% of the
// time so identical queries recur and the result cache gets hits. The
// store-backed ops and status are answered inline and never cached.
std::string BuildRequest(Rng& rng, const AsGraph& graph, const std::vector<Asn>& asns,
                         const std::vector<Asn>& hot, std::uint64_t id,
                         const Capabilities& caps, bool timing, bool* cacheable,
                         std::optional<Asn>* key_asn) {
  auto pick = [&](const std::vector<Asn>& pool) {
    return pool[rng.UniformU64(pool.size())];
  };
  auto origin = [&] { return rng.Bernoulli(0.7) ? pick(hot) : pick(asns); };
  const char* timing_key = timing ? ",\"timing\":true" : "";
  std::uint64_t roll = rng.UniformU64(100);
  *cacheable = true;
  key_asn->reset();  // set for keyed ops; scatter and status stay unkeyed
  std::uint64_t hi = 55u - (caps.top ? 10u : 0u) - (caps.fail ? 10u : 0u);
  if (roll < hi) {
    Asn o = origin();
    *key_asn = o;
    return StrFormat("{\"op\":\"reach\",\"origin\":%u,\"mode\":\"%s\",\"id\":%llu%s}", o,
                     RandomName(rng, serve::kReachModeNames),
                     static_cast<unsigned long long>(id), timing_key);
  }
  if (roll < hi + 20u) {
    Asn o = origin();
    *key_asn = o;
    return StrFormat("{\"op\":\"reliance\",\"origin\":%u,\"k\":10,\"id\":%llu%s}", o,
                     static_cast<unsigned long long>(id), timing_key);
  }
  if (roll < hi + 35u) {
    Asn victim = origin();
    Asn leaker = origin();
    while (leaker == victim) leaker = pick(asns);
    // The service rejects a leaker that holds no route to the victim as a
    // bad request, so draw again until the leaker holds one.
    LeakExperiment experiment(graph, *graph.IdOf(victim), LeakConfig{});
    for (int draw = 0; !experiment.CanLeak(*graph.IdOf(leaker)); ++draw) {
      if (draw == 1000) throw Error(StrFormat("no AS holds a route to AS%u to leak", victim));
      leaker = pick(asns);
    }
    *key_asn = victim;
    return StrFormat("{\"op\":\"leak\",\"victim\":%u,\"leaker\":%u,\"id\":%llu%s}", victim,
                     leaker, static_cast<unsigned long long>(id), timing_key);
  }
  hi += 35u;
  *cacheable = false;
  if (caps.top) {
    hi += 10u;
    if (roll < hi) {
      // Two draws, sequenced: as arguments of one call their order would be
      // the compiler's choice, and so would the request mix.
      const char* metric = RandomName(rng, serve::kTopMetricNames);
      std::uint64_t k = 1 + rng.UniformU64(20);
      return StrFormat("{\"op\":\"top\",\"k\":%llu,\"metric\":\"%s\",\"id\":%llu%s}",
                       static_cast<unsigned long long>(k), metric,
                       static_cast<unsigned long long>(id), timing_key);
    }
  }
  if (caps.fail) {
    hi += 5u;
    if (roll < hi) {
      Asn o = pick(caps.fail_origins);
      *key_asn = o;
      return StrFormat("{\"op\":\"hegemony\",\"origin\":%u,\"k\":%llu,\"id\":%llu%s}", o,
                       static_cast<unsigned long long>(1 + rng.UniformU64(10)),
                       static_cast<unsigned long long>(id), timing_key);
    }
    hi += 5u;
    if (roll < hi) {
      using serve::FailColumn;
      FailColumn column = caps.fail_users && rng.Bernoulli(0.33) ? FailColumn::kLossUsers
                          : rng.Bernoulli(0.5)                   ? FailColumn::kDisconnected
                                                                 : FailColumn::kLossAses;
      Asn o = pick(caps.fail_origins);
      *key_asn = o;
      return StrFormat(
          "{\"op\":\"failure\",\"origin\":%u,\"scenario\":\"%s\",\"column\":\"%s\","
          "\"q\":[0.5,0.9],\"id\":%llu%s}",
          o, caps.fail_scenarios[rng.UniformU64(caps.fail_scenarios.size())].c_str(),
          serve::ToString(column), static_cast<unsigned long long>(id), timing_key);
    }
  }
  return StrFormat("{\"op\":\"status\",\"id\":%llu%s}", static_cast<unsigned long long>(id),
                   timing_key);
}

// The raw `result` bytes of an ok response: from the `result` key to the
// closing brace, or to the `timing` field a timed response appends after
// it. Comparing these checks byte-identity between cold, cached, and timed
// replies without reserializing.
std::string_view RawResultBytes(const std::string& response) {
  std::size_t at = response.find("\"result\":");
  if (at == std::string::npos) return {};
  std::string_view bytes = std::string_view(response).substr(at);
  std::size_t timing = bytes.rfind(",\"timing\":");
  if (timing != std::string_view::npos) return bytes.substr(0, timing);
  if (!bytes.empty() && bytes.back() == '}') bytes.remove_suffix(1);
  return bytes;
}

int Run(cli::Args& args) {
  std::string stem;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string port_file;
  std::uint64_t requests = 200;
  std::uint64_t connections = 4;
  std::uint64_t seed = 1;
  std::uint64_t verify = 1;
  bool timing = true;
  bool fleet_mode = false;

  while (args.Next()) {
    if (args.Is("--topology")) {
      stem = args.Value();
    } else if (args.Is("--host")) {
      host = args.Value();
    } else if (args.Is("--port")) {
      port = args.Unsigned<std::uint16_t>(1);
    } else if (args.Is("--port-file")) {
      port_file = args.Value();
    } else if (args.Is("--requests")) {
      requests = args.Unsigned<std::uint64_t>(1);
    } else if (args.Is("--connections")) {
      connections = args.Unsigned<std::uint64_t>(1);
    } else if (args.Is("--seed")) {
      seed = args.Unsigned<std::uint64_t>();
    } else if (args.Is("--verify")) {
      verify = args.Unsigned<std::uint64_t>();
    } else if (args.Is("--no-timing")) {
      timing = false;
    } else if (args.Is("--fleet")) {
      fleet_mode = true;
    } else {
      args.Unknown();
    }
  }
  if (stem.empty() || (port == 0) == port_file.empty()) throw cli::UsageError();
  if (!port_file.empty()) {
    std::ifstream in(port_file);
    std::uint64_t value = 0;
    if (!(in >> value) || value == 0 || value > 65535) {
      throw Error("cannot read port from " + port_file);
    }
    port = static_cast<std::uint16_t>(value);
  }

  const fleet::BackendAddress server{host, port};
  auto dial = [&server] { return fleet::BackendConn::Dial(server, kTimeout); };

  Internet internet = LoadInternetAuto(stem);
  std::vector<Asn> asns;
  asns.reserve(internet.num_ases());
  for (AsId id = 0; id < internet.num_ases(); ++id) {
    asns.push_back(internet.graph().AsnOf(id));
  }
  if (asns.size() < 2) throw Error("topology too small to generate load");
  Rng pool_rng(seed);
  std::vector<Asn> hot;
  for (std::size_t i = 0; i < 16; ++i) hot.push_back(asns[pool_rng.UniformU64(asns.size())]);

  // Preflight status probe: one capability map decides which store-backed
  // ops join the mix, so the loadgen works against servers started with
  // any combination of stores.
  Capabilities caps;
  std::optional<fleet::Ring> ring;
  {
    Json status = Json::Parse(RoundTrip(*dial(), "{\"op\":\"status\",\"id\":\"probe\"}"));
    caps = ProbeCapabilities(status);
    if (fleet_mode) {
      // Rebuild the router's ring locally (the ring is a function of the
      // shard count alone) so each keyed request can be attributed to the
      // shard that served it.
      const Json& ring_config = status.Get("result").Get("fleet").Get("ring");
      if (ring_config.type() != Json::Type::kObject) {
        throw Error(StrFormat("--fleet: %s:%u is not a flatnet_router (no fleet view)",
                              host.c_str(), static_cast<unsigned>(port)));
      }
      ring.emplace(ring_config.At("shards").AsU64());
      std::fprintf(stderr, "fleet: %llu shards\n",
                   static_cast<unsigned long long>(ring->num_shards()));
    }
  }
  std::fprintf(stderr, "sweep store %s: top queries %s\n", caps.top ? "loaded" : "absent",
               caps.top ? "in the mix" : "skipped");
  std::fprintf(stderr, "fail store %s: hegemony/failure queries %s\n",
               caps.fail ? "loaded" : "absent", caps.fail ? "in the mix" : "skipped");

  std::atomic<std::uint64_t> next_id{0};
  std::vector<WorkerTally> tallies(connections);
  std::mutex fail_mu;
  std::string transport_failure;

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (std::uint64_t w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      WorkerTally& tally = tallies[w];
      if (ring) tally.shard_latencies_ms.resize(ring->num_shards());
      try {
        std::unique_ptr<fleet::BackendConn> client = dial();
        Rng rng(seed * 0x9e3779b97f4a7c15ULL + w + 1);
        for (;;) {
          std::uint64_t id = next_id.fetch_add(1);
          if (id >= requests) break;
          bool cacheable = false;
          std::optional<Asn> key_asn;
          std::string request =
              BuildRequest(rng, internet.graph(), asns, hot, id, caps, timing, &cacheable,
                           &key_asn);
          auto start = std::chrono::steady_clock::now();
          std::string response = RoundTrip(*client, request);
          double client_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
          tally.latencies_ms.push_back(client_ms);
          if (ring && key_asn) {
            tally.shard_latencies_ms[ring->Owner(*key_asn)].push_back(client_ms);
          }
          Json doc = Json::Parse(response);
          if (doc.Get("ok").type() == Json::Type::kBool && doc.Get("ok").AsBool()) {
            ++tally.ok;
            const Json& partial = doc.Get("result").Get("partial");
            if (partial.type() == Json::Type::kBool && partial.AsBool()) ++tally.partial;
            if (doc.Get("timing").type() == Json::Type::kObject) {
              tally.attribution.Fold(doc.Get("timing"), client_ms);
            }
            if (cacheable) {
              ++tally.cacheable;
              if (doc.Get("cached").type() == Json::Type::kBool &&
                  doc.Get("cached").AsBool()) {
                ++tally.cached;
              }
            }
          } else if (fleet_mode && doc.Get("error").Get("code").type() ==
                                       Json::Type::kString &&
                     doc.Get("error").Get("code").AsString() == "unavailable") {
            // A dead owner's store slice: expected while a shard is down, so
            // it degrades the fleet report instead of failing the run.
            ++tally.unavailable;
          } else {
            ++tally.errors;
            if (tally.error_samples.size() < 3) tally.error_samples.push_back(response);
          }
        }
      } catch (const Error& e) {
        std::lock_guard<std::mutex> lock(fail_mu);
        if (transport_failure.empty()) transport_failure = e.what();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  if (!transport_failure.empty()) {
    std::fprintf(stderr, "transport failure: %s\n", transport_failure.c_str());
    return 1;
  }

  std::vector<double> latencies;
  std::uint64_t ok = 0, cached = 0, cacheable = 0, errors = 0;
  std::uint64_t partial = 0, unavailable = 0;
  std::vector<std::vector<double>> shard_latencies(ring ? ring->num_shards() : 0);
  Attribution attribution;
  for (const WorkerTally& tally : tallies) {
    latencies.insert(latencies.end(), tally.latencies_ms.begin(), tally.latencies_ms.end());
    ok += tally.ok;
    cached += tally.cached;
    cacheable += tally.cacheable;
    errors += tally.errors;
    partial += tally.partial;
    unavailable += tally.unavailable;
    for (std::size_t s = 0; s < tally.shard_latencies_ms.size(); ++s) {
      shard_latencies[s].insert(shard_latencies[s].end(),
                                tally.shard_latencies_ms[s].begin(),
                                tally.shard_latencies_ms[s].end());
    }
    attribution.Merge(tally.attribution);
    for (const std::string& sample : tally.error_samples) {
      std::fprintf(stderr, "error response: %s\n", sample.c_str());
    }
  }

  // Verification pass: cold-vs-cached byte identity plus an independent
  // local recomputation for `verify` hierarchy-free reach queries.
  std::uint64_t verify_checked = 0;
  std::uint64_t verify_mismatches = 0;
  if (verify > 0) {
    try {
      std::unique_ptr<fleet::BackendConn> client = dial();
      ReachabilityEngine engine(internet.graph());
      Rng rng(seed ^ 0x5eedULL);
      for (std::uint64_t i = 0; i < verify; ++i) {
        Asn origin_asn = asns[rng.UniformU64(asns.size())];
        AsId origin = *internet.graph().IdOf(origin_asn);
        std::string request = StrFormat(
            "{\"op\":\"reach\",\"origin\":%u,\"mode\":\"hierarchy_free\",\"id\":\"v%llu\"}",
            origin_asn, static_cast<unsigned long long>(i));
        std::string cold = RoundTrip(*client, request);
        std::string warm = RoundTrip(*client, request);
        // The same query with timing must return identical result bytes —
        // tracing never perturbs the payload, only appends to it.
        std::string timed =
            RoundTrip(*client, request.substr(0, request.size() - 1) + ",\"timing\":true}");
        ++verify_checked;
        Json cold_doc = Json::Parse(cold);
        Json warm_doc = Json::Parse(warm);
        Json timed_doc = Json::Parse(timed);
        bool ok_pair = cold_doc.Get("ok").type() == Json::Type::kBool &&
                       cold_doc.Get("ok").AsBool() &&
                       warm_doc.Get("ok").type() == Json::Type::kBool &&
                       warm_doc.Get("ok").AsBool();
        bool bytes_equal = RawResultBytes(cold) == RawResultBytes(warm);
        bool warm_from_cache = ok_pair && warm_doc.Get("cached").AsBool();
        // Untimed responses must not grow a timing field; the timed issue
        // must carry one and embed the same result bytes.
        bool timing_clean = !cold_doc.Contains("timing") && !warm_doc.Contains("timing") &&
                            timed_doc.Get("timing").type() == Json::Type::kObject &&
                            RawResultBytes(timed) == RawResultBytes(cold);
        bool count_matches = false;
        if (ok_pair) {
          Bitset excluded = internet.HierarchyFreeExclusion(origin);
          std::size_t local = ReachableCount(internet.graph(), origin, &excluded);
          count_matches =
              cold_doc.Get("result").Get("reachable").AsU64() == local;
        }
        if (!(ok_pair && bytes_equal && warm_from_cache && timing_clean && count_matches)) {
          ++verify_mismatches;
          std::fprintf(stderr,
                       "verify mismatch for AS%u: ok=%d bytes_equal=%d cached=%d "
                       "timing_clean=%d count_matches=%d\n  cold: %s\n  warm: %s\n",
                       origin_asn, ok_pair, bytes_equal, warm_from_cache, timing_clean,
                       count_matches, cold.c_str(), warm.c_str());
        }
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "verify failure: %s\n", e.what());
      ++verify_mismatches;
    }
  }

  Json report = Json::MakeObject();
  if (ring) {
    // One post-run status round-trip: the router's hedge counters cover
    // this run (plus its own probes, which never hedge).
    Json fleet = Json::MakeObject();
    fleet["partial_answers"] = partial;
    fleet["unavailable"] = unavailable;
    try {
      Json status = Json::Parse(RoundTrip(*dial(), "{\"op\":\"status\",\"id\":\"post\"}"));
      const Json& counters = status.Get("result").Get("fleet");
      std::uint64_t issued = counters.Get("hedge_issued").type() == Json::Type::kNumber
                                 ? counters.At("hedge_issued").AsU64()
                                 : 0;
      std::uint64_t won = counters.Get("hedge_won").type() == Json::Type::kNumber
                              ? counters.At("hedge_won").AsU64()
                              : 0;
      fleet["hedge_issued"] = issued;
      fleet["hedge_win_rate"] =
          issued > 0 ? static_cast<double>(won) / static_cast<double>(issued) : 0.0;
      fleet["hedge_won"] = won;
      fleet["shards_alive"] = counters.Get("alive");
    } catch (const Error& e) {
      std::fprintf(stderr, "post-run fleet status failed: %s\n", e.what());
    }
    Json per_shard = Json::MakeArray();
    for (std::size_t s = 0; s < shard_latencies.size(); ++s) {
      Json entry = Json::MakeObject();
      entry["requests"] = static_cast<std::uint64_t>(shard_latencies[s].size());
      entry["shard"] = static_cast<std::uint64_t>(s);
      if (!shard_latencies[s].empty()) {
        EmpiricalCdf cdf(shard_latencies[s]);
        entry["p50_ms"] = cdf.Quantile(0.50);
        entry["p95_ms"] = cdf.Quantile(0.95);
        entry["p99_ms"] = cdf.Quantile(0.99);
      }
      per_shard.Append(std::move(entry));
    }
    fleet["per_shard"] = std::move(per_shard);
    report["fleet"] = std::move(fleet);
  }
  if (attribution.timed > 0) {
    // Mean milliseconds per timed request, by server-side phase group,
    // plus what the server never saw (network + client overhead).
    double n = static_cast<double>(attribution.timed);
    Json attr = Json::MakeObject();
    attr["cache_ms"] = attribution.cache_ms / n;
    attr["other_ms"] = attribution.other_ms / n;
    attr["propagation_ms"] = attribution.propagation_ms / n;
    attr["queue_ms"] = attribution.queue_ms / n;
    attr["residual_ms"] = attribution.residual_ms / n;
    attr["serialize_ms"] = attribution.serialize_ms / n;
    attr["server_ms"] = attribution.server_ms / n;
    attr["timed"] = attribution.timed;
    report["attribution"] = std::move(attr);
  }
  report["cache_hit_rate"] =
      cacheable > 0 ? static_cast<double>(cached) / static_cast<double>(cacheable) : 0.0;
  report["cacheable"] = cacheable;
  report["errors"] = errors;
  report["ok"] = ok;
  if (!latencies.empty()) {
    EmpiricalCdf cdf(latencies);
    report["p50_ms"] = cdf.Quantile(0.50);
    report["p95_ms"] = cdf.Quantile(0.95);
    report["p99_ms"] = cdf.Quantile(0.99);
  }
  report["requests"] = requests;
  report["seconds"] = seconds;
  Json skipped_ops = Json::MakeArray();
  for (const std::string& op : caps.skipped) skipped_ops.Append(Json(op));
  report["skipped_ops"] = std::move(skipped_ops);
  report["throughput_qps"] =
      seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  report["verify_checked"] = verify_checked;
  report["verify_mismatches"] = verify_mismatches;
  std::printf("%s\n", report.Dump().c_str());
  return (errors == 0 && verify_mismatches == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::Main(argc, argv, "flatnet_loadgen", kUsage, Run);
}
