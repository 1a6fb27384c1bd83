#include "fleet/router.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "fleet/merge.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serve/dispatcher.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatnet::fleet {
namespace {

using serve::ErrorCode;
using serve::ErrorResponse;
using serve::OkResponse;
using serve::QueryKind;
using serve::Request;

struct RouterCounters {
  obs::Counter& requests = obs::GetCounter("fleet.requests");
  obs::Counter& errors = obs::GetCounter("fleet.errors");
  obs::Counter& hedge_issued = obs::GetCounter("fleet.hedge.issued");
  obs::Counter& hedge_won = obs::GetCounter("fleet.hedge.won");
  obs::Counter& partial = obs::GetCounter("fleet.partial_answers");
  obs::Counter& unavailable = obs::GetCounter("fleet.unavailable");
  obs::Counter& retries = obs::GetCounter("fleet.retries");
};

RouterCounters& Counters() {
  static RouterCounters counters;
  return counters;
}

// Detecting an overloaded backend without parsing: ErrorResponse's
// sorted-key dump always starts with this exact prefix.
bool IsOverloadedResponse(const std::string& response) {
  static const std::string kPrefix = "{\"error\":{\"code\":\"overloaded\"";
  return response.compare(0, kPrefix.size(), kPrefix) == 0;
}

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The prober's own request line; shards answer it like any status query.
const std::string kProbeLine = "{\"id\":\"fleet-probe\",\"op\":\"status\"}";
// A probe waits at most this long (or the request timeout, if shorter).
constexpr std::chrono::milliseconds kProbeTimeout{1000};

}  // namespace

FleetRouter::FleetRouter(const RouterOptions& options)
    : options_(options),
      ring_(options.backends.size()),
      pool_(options.backends),
      hedge_(options.backends.size()),
      start_time_(std::chrono::steady_clock::now()) {}

FleetRouter::~FleetRouter() { Stop(); }

void FleetRouter::Start() {
  for (std::size_t shard = 0; shard < pool_.num_shards(); ++shard) ProbeShard(shard);
  obs::Log(obs::LogLevel::kInfo, "fleet", "router.started")
      .Kv("shards", static_cast<std::uint64_t>(pool_.num_shards()))
      .Kv("alive", static_cast<std::uint64_t>(pool_.NumAlive()));
  prober_ = std::thread([this] { ProbeLoop(); });
}

void FleetRouter::Stop() {
  bool was_stopped = false;
  {
    // Set the flag under the prober's mutex: a prober between its
    // predicate check and its wait would otherwise miss the notify and
    // sleep out a whole probe interval before the join returns.
    std::lock_guard<std::mutex> lock(prober_mu_);
    was_stopped = stop_.exchange(true, std::memory_order_relaxed);
  }
  prober_cv_.notify_all();
  if (!was_stopped && prober_.joinable()) prober_.join();
}

void FleetRouter::ProbeShard(std::size_t shard) {
  Exchange probe = Send(shard, kProbeLine);
  AwaitFirst({&probe, 1}, probe.sent_at + std::min(options_.request_timeout, kProbeTimeout));
}

void FleetRouter::ProbeLoop() {
  std::unique_lock<std::mutex> lock(prober_mu_);
  while (!stop_.load(std::memory_order_relaxed)) {
    prober_cv_.wait_for(lock, options_.probe_interval,
                        [this] { return stop_.load(std::memory_order_relaxed); });
    if (stop_.load(std::memory_order_relaxed)) return;
    lock.unlock();
    for (std::size_t shard = 0; shard < pool_.num_shards(); ++shard) {
      if (stop_.load(std::memory_order_relaxed)) return;
      ProbeShard(shard);
    }
    lock.lock();
  }
}

void FleetRouter::Handle(const std::string& line, std::function<void(std::string)> done,
                         std::chrono::steady_clock::time_point /*received_at*/) {
  Counters().requests.Increment();

  Request request;
  std::string response;
  try {
    serve::ParseRequest(line, request);
    response = Route(request, line);
  } catch (const serve::ProtocolError& e) {
    Counters().errors.Increment();
    if (e.code() == ErrorCode::kUnavailable) Counters().unavailable.Increment();
    response = ErrorResponse(request.id, e.code(), e.what());
  } catch (const Error& e) {
    Counters().errors.Increment();
    obs::Log(obs::LogLevel::kError, "fleet", "router.internal_error").Kv("error", e.what());
    response = ErrorResponse(request.id, ErrorCode::kInternal, e.what());
  }
  done(std::move(response));
}

std::string FleetRouter::HandleSync(const std::string& line) {
  std::string response;
  Handle(
      line, [&response](std::string r) { response = std::move(r); },
      std::chrono::steady_clock::now());
  return response;
}

std::string FleetRouter::Route(const Request& request, const std::string& line) {
  switch (request.kind) {
    case QueryKind::kReach:
    case QueryKind::kReliance:
      return ForwardCompute(request.origin, line);
    case QueryKind::kLeak:
      return ForwardCompute(request.victim, line);
    case QueryKind::kLeakDist:
      return ForwardStore(request.victim, line);
    case QueryKind::kHegemony:
    case QueryKind::kFailure:
      return ForwardStore(request.origin, line);
    case QueryKind::kTop:
      return ScatterTop(request.id, line);
    case QueryKind::kStatus:
      return FleetStatus(request.id);
    case QueryKind::kMetrics:
      return OkResponse(request.id, serve::MetricsResult(request), false);
    case QueryKind::kDebug:
      return OkResponse(request.id, obs::RecorderJson(request.debug_n).Dump(), false);
  }
  throw serve::ProtocolError(ErrorCode::kInternal, "unreachable op");
}

FleetRouter::Exchange FleetRouter::Send(std::size_t shard, const std::string& line,
                                        bool keyed) {
  Exchange exchange{.shard = shard, .keyed = keyed};
  try {
    exchange.conn = pool_.Checkout(shard);
    exchange.conn->SendLine(line);
  } catch (const Error&) {
    Settle(exchange, Outcome::kBroken);
  }
  exchange.sent_at = Clock::now();
  return exchange;
}

std::optional<FleetRouter::Reply> FleetRouter::AwaitFirst(std::span<Exchange> flight,
                                                          Clock::time_point deadline,
                                                          bool expire) {
  for (;;) {
    pollfd fds[2];
    std::size_t polled[2];
    nfds_t n = 0;
    for (std::size_t i = 0; i < flight.size() && n < 2; ++i) {
      Exchange& exchange = flight[i];
      if (exchange.conn == nullptr) continue;
      if (std::optional<std::string> line = exchange.conn->TakeLine()) {
        Settle(exchange, Outcome::kReplied);
        return Reply{i, std::move(*line)};
      }
      fds[n] = pollfd{exchange.conn->fd(), POLLIN, 0};
      polled[n++] = i;
    }
    if (n == 0) return std::nullopt;
    auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - Clock::now());
    if (left.count() <= 0) {
      if (expire) {
        for (nfds_t k = 0; k < n; ++k) Settle(flight[polled[k]], Outcome::kSilent);
      }
      return std::nullopt;
    }
    timespec timeout{static_cast<time_t>(left.count() / 1000000000),
                     static_cast<long>(left.count() % 1000000000)};
    if (::ppoll(fds, n, &timeout, nullptr) < 0 && errno != EINTR) {
      for (nfds_t k = 0; k < n; ++k) Settle(flight[polled[k]], Outcome::kBroken);
      return std::nullopt;
    }
    for (nfds_t k = 0; k < n; ++k) {
      if (fds[k].revents == 0) continue;
      try {
        flight[polled[k]].conn->ReadAvailable();
      } catch (const Error&) {
        Settle(flight[polled[k]], Outcome::kBroken);
      }
    }
  }
}

void FleetRouter::Settle(Exchange& exchange, Outcome outcome) {
  std::size_t shard = exchange.shard;
  if (outcome == Outcome::kReplied) {
    if (exchange.keyed) hedge_.Observe(shard, MillisSince(exchange.sent_at));
    pool_.MarkSuccess(shard);
    pool_.Checkin(shard, std::move(exchange.conn));
    return;
  }
  exchange.conn.reset();
  pool_.MarkFailure(shard);
  // After a transport error the shard's pooled connections are likely
  // dead too.
  if (outcome == Outcome::kBroken) pool_.DropIdle(shard);
}

std::optional<std::string> FleetRouter::RoundTrip(std::size_t shard, const std::string& line,
                                                  std::uint32_t key_asn, bool hedgeable) {
  auto deadline = Clock::now() + options_.request_timeout;
  // The primary and, once it outlasts its hedge delay, the hedge.
  Exchange flight[2] = {Send(shard, line, /*keyed=*/true), Exchange{}};
  std::optional<Reply> reply;
  if (hedgeable && flight[0].conn != nullptr) {
    auto delay = std::chrono::duration<double, std::milli>(hedge_.DelayMsFor(shard));
    auto hedge_at = flight[0].sent_at + std::chrono::duration_cast<Clock::duration>(delay);
    reply = AwaitFirst({flight, 1}, std::min(hedge_at, deadline), /*expire=*/false);
    std::size_t neighbor = Ring::npos;
    if (!reply && flight[0].conn != nullptr && Clock::now() < deadline) {
      neighbor = ring_.NextLiveDistinct(key_asn, shard, pool_.AliveMask());
    }
    if (neighbor != Ring::npos) {
      Counters().hedge_issued.Increment();
      flight[1] = Send(neighbor, line, /*keyed=*/true);
    }
  }
  // First complete line on either connection wins; the loser is closed
  // unread when `flight` goes out of scope — checking it back in with a
  // response in flight would desynchronize the pool.
  if (!reply) reply = AwaitFirst(flight, deadline);
  if (!reply) return std::nullopt;
  if (reply->index == 1) Counters().hedge_won.Increment();
  return std::move(reply->line);
}

std::string FleetRouter::ForwardCompute(std::uint32_t key_asn,
                                        const std::string& line) {
  std::vector<bool> untried(pool_.num_shards(), true);
  std::string overloaded_response;
  for (std::size_t attempt = 0; attempt < pool_.num_shards(); ++attempt) {
    std::vector<bool> eligible = pool_.AliveMask();
    for (std::size_t i = 0; i < eligible.size(); ++i) {
      if (!untried[i]) eligible[i] = false;
    }
    std::size_t target = ring_.FirstLive(key_asn, eligible);
    if (target == Ring::npos) break;
    untried[target] = false;
    if (attempt > 0) Counters().retries.Increment();

    std::optional<std::string> response = RoundTrip(target, line, key_asn, true);
    if (!response) continue;  // transport failure; fail over along the ring
    if (IsOverloadedResponse(*response)) {
      // The shard shed this query at admission; give the next shard on the
      // ring one chance before relaying the pushback to the client.
      overloaded_response = std::move(*response);
      continue;
    }
    return *response;
  }
  if (!overloaded_response.empty()) return overloaded_response;
  throw serve::ProtocolError(
      ErrorCode::kUnavailable,
      StrFormat("no live shard could answer for AS%u (%zu of %zu shards alive)",
                key_asn, pool_.NumAlive(), pool_.num_shards()));
}

std::string FleetRouter::ForwardStore(std::uint32_t key_asn,
                                      const std::string& line) {
  std::size_t owner = ring_.Owner(key_asn);
  if (!pool_.alive(owner)) {
    throw serve::ProtocolError(
        ErrorCode::kUnavailable,
        StrFormat("shard %zu (%s) owns AS%u and is down; its slice of the store "
                  "is unavailable until it rejoins the ring",
                  owner, pool_.address(owner).ToString().c_str(), key_asn));
  }
  // Store lookups are microseconds on the shard; the only retryable outcome
  // is admission pushback, which a short backoff rides out.
  for (std::size_t attempt = 0; attempt < 3; ++attempt) {
    if (attempt > 0) {
      Counters().retries.Increment();
      std::this_thread::sleep_for(std::chrono::milliseconds(10 << attempt));
    }
    std::optional<std::string> response = RoundTrip(owner, line, key_asn, false);
    if (!response) {
      throw serve::ProtocolError(
          ErrorCode::kUnavailable,
          StrFormat("shard %zu (%s) owning AS%u did not answer", owner,
                    pool_.address(owner).ToString().c_str(), key_asn));
    }
    if (IsOverloadedResponse(*response) && attempt + 1 < 3) continue;
    return *response;
  }
  throw serve::ProtocolError(ErrorCode::kInternal, "unreachable");
}

std::string FleetRouter::ScatterTop(const Json& id, const std::string& line) {
  std::vector<std::size_t> missing;
  std::vector<Exchange> pending;
  for (std::size_t shard = 0; shard < pool_.num_shards(); ++shard) {
    if (pool_.alive(shard)) {
      pending.push_back(Send(shard, line));
    } else {
      missing.push_back(shard);
    }
  }

  auto deadline = Clock::now() + options_.request_timeout;
  std::vector<Json> results;
  std::string error_response;
  for (Exchange& exchange : pending) {
    std::optional<Reply> reply = AwaitFirst({&exchange, 1}, deadline);
    if (!reply) {
      missing.push_back(exchange.shard);
      continue;
    }
    Json doc = Json::Parse(reply->line);
    if (doc.Get("ok").type() == Json::Type::kBool && doc.Get("ok").AsBool()) {
      results.push_back(doc.At("result"));
    } else if (error_response.empty()) {
      // A semantic rejection (no sweep store, bad metric) is common to all
      // shards — relay the first one verbatim, as a direct server would.
      error_response = std::move(reply->line);
    }
  }
  if (results.empty()) {
    if (!error_response.empty()) return error_response;
    throw serve::ProtocolError(ErrorCode::kUnavailable,
                               "no live shard answered the ranking scatter");
  }
  std::sort(missing.begin(), missing.end());
  if (!missing.empty()) Counters().partial.Increment();
  return OkResponse(id, MergeTop(results, missing, ring_), false);
}

std::string FleetRouter::FleetStatus(const Json& id) {
  Json shards = Json::MakeArray();
  std::vector<Json> shard_results(pool_.num_shards());
  std::vector<bool> answered(pool_.num_shards(), false);
  // Shards are asked in turn: asking all at once makes three shards build
  // a status together, which costs the fleet's p50 more than it saves.
  for (std::size_t shard = 0; shard < pool_.num_shards(); ++shard) {
    if (!pool_.alive(shard)) continue;
    Exchange exchange = Send(shard, kProbeLine);
    std::optional<Reply> reply =
        AwaitFirst({&exchange, 1}, exchange.sent_at + options_.request_timeout);
    if (!reply) continue;
    Json doc = Json::Parse(reply->line);
    if (doc.Get("ok").type() == Json::Type::kBool && doc.Get("ok").AsBool()) {
      shard_results[shard] = doc.At("result");
      answered[shard] = true;
    }
  }

  // Merged capability view: a loadgen preflight against the router must
  // only enable ops every live shard can serve its slice of.
  bool any = false;
  bool sweep_loaded = true;
  bool leak_loaded = true;
  bool fail_loaded = true;
  bool fail_has_users = true;
  std::vector<std::uint64_t> leak_victims;
  std::vector<std::uint64_t> fail_origins;
  std::vector<std::string> fail_scenarios;
  Json num_ases;
  Json num_edges;
  for (std::size_t shard = 0; shard < pool_.num_shards(); ++shard) {
    Json entry = Json::MakeObject();
    entry["address"] = pool_.address(shard).ToString();
    entry["alive"] = static_cast<bool>(answered[shard]);
    entry["index"] = static_cast<std::uint64_t>(shard);
    entry["owned_ranges"] = RangesJson(ring_, shard);
    if (answered[shard]) {
      const Json& result = shard_results[shard];
      any = true;
      entry["cache_hit_ratio"] = result.At("cache").Get("hit_ratio");
      entry["inflight"] = result.Get("inflight");
      entry["uptime_s"] = result.Get("uptime_s");
      std::uint64_t requests = 0;
      std::uint64_t errors = 0;
      if (result.Get("ops").type() == Json::Type::kObject) {
        for (const auto& [op, counters] : result.At("ops").AsObject()) {
          requests += counters.Get("requests").AsU64();
          errors += counters.Get("errors").AsU64();
        }
      }
      entry["errors"] = errors;
      entry["requests"] = requests;
      if (num_ases.is_null()) num_ases = result.Get("num_ases");
      if (num_edges.is_null()) num_edges = result.Get("num_edges");
      const Json& sweep = result.Get("sweep_store");
      const Json& leak = result.Get("leak_store");
      const Json& fail = result.Get("fail_store");
      sweep_loaded = sweep_loaded && sweep.Get("loaded").type() == Json::Type::kBool &&
                     sweep.At("loaded").AsBool();
      bool leak_here = leak.Get("loaded").type() == Json::Type::kBool &&
                       leak.At("loaded").AsBool();
      leak_loaded = leak_loaded && leak_here;
      if (leak_here) {
        for (const Json& v : leak.At("victims").AsArray()) {
          leak_victims.push_back(v.AsU64());
        }
      }
      bool fail_here = fail.Get("loaded").type() == Json::Type::kBool &&
                       fail.At("loaded").AsBool();
      fail_loaded = fail_loaded && fail_here;
      if (fail_here) {
        fail_has_users = fail_has_users && fail.Get("has_users").type() ==
                                               Json::Type::kBool &&
                         fail.At("has_users").AsBool();
        for (const Json& o : fail.At("origins").AsArray()) {
          fail_origins.push_back(o.AsU64());
        }
        for (const Json& s : fail.At("scenarios").AsArray()) {
          fail_scenarios.push_back(s.AsString());
        }
      }
    }
    shards.Append(std::move(entry));
  }
  if (!any) {
    sweep_loaded = false;
    leak_loaded = false;
    fail_loaded = false;
  }
  std::sort(leak_victims.begin(), leak_victims.end());
  leak_victims.erase(std::unique(leak_victims.begin(), leak_victims.end()),
                     leak_victims.end());
  std::sort(fail_origins.begin(), fail_origins.end());
  fail_origins.erase(std::unique(fail_origins.begin(), fail_origins.end()),
                     fail_origins.end());
  // Scenario slugs: first-seen order per shard is already the enum order,
  // and every CLI-produced store holds the same scenario set; dedup keeps
  // the first occurrence.
  std::vector<std::string> scenarios;
  for (const std::string& s : fail_scenarios) {
    if (std::find(scenarios.begin(), scenarios.end(), s) == scenarios.end()) {
      scenarios.push_back(s);
    }
  }

  RouterStats stats = this->stats();
  Json fleet = Json::MakeObject();
  fleet["alive"] = static_cast<std::uint64_t>(pool_.NumAlive());
  fleet["errors"] = stats.errors;
  fleet["hedge_issued"] = stats.hedge_issued;
  fleet["hedge_won"] = stats.hedge_won;
  fleet["partial_answers"] = stats.partial_answers;
  fleet["probe_interval_ms"] =
      static_cast<std::uint64_t>(options_.probe_interval.count());
  fleet["requests"] = stats.requests;
  fleet["retries"] = stats.retries;
  fleet["shard_deaths"] = pool_.deaths();
  fleet["shards"] = std::move(shards);
  fleet["unavailable"] = stats.unavailable;
  Json ring = Json::MakeObject();
  ring["shards"] = static_cast<std::uint64_t>(ring_.num_shards());
  ring["vnodes"] = static_cast<std::uint64_t>(kVnodes);
  fleet["ring"] = std::move(ring);

  Json sweep_store = Json::MakeObject();
  sweep_store["loaded"] = sweep_loaded;
  Json leak_store = Json::MakeObject();
  leak_store["loaded"] = leak_loaded;
  if (leak_loaded) {
    Json victims = Json::MakeArray();
    for (std::uint64_t v : leak_victims) victims.Append(Json(v));
    leak_store["victims"] = std::move(victims);
  }
  Json fail_store = Json::MakeObject();
  fail_store["loaded"] = fail_loaded;
  if (fail_loaded) {
    fail_store["has_users"] = fail_has_users;
    Json origins = Json::MakeArray();
    for (std::uint64_t o : fail_origins) origins.Append(Json(o));
    fail_store["origins"] = std::move(origins);
    Json scenario_list = Json::MakeArray();
    for (const std::string& s : scenarios) scenario_list.Append(Json(s));
    fail_store["scenarios"] = std::move(scenario_list);
  }

  Json result = Json::MakeObject();
  result["fail_store"] = std::move(fail_store);
  result["fleet"] = std::move(fleet);
  result["leak_store"] = std::move(leak_store);
  if (!num_ases.is_null()) result["num_ases"] = num_ases;
  if (!num_edges.is_null()) result["num_edges"] = num_edges;
  result["role"] = "router";
  result["sweep_store"] = std::move(sweep_store);
  result["uptime_s"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_)
          .count();
  return OkResponse(id, result.Dump(), false);
}

RouterStats FleetRouter::stats() const {
  RouterStats stats;
  stats.requests = Counters().requests.value();
  stats.errors = Counters().errors.value();
  stats.hedge_issued = Counters().hedge_issued.value();
  stats.hedge_won = Counters().hedge_won.value();
  stats.partial_answers = Counters().partial.value();
  stats.unavailable = Counters().unavailable.value();
  stats.retries = Counters().retries.value();
  return stats;
}

}  // namespace flatnet::fleet
