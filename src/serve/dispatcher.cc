#include "serve/dispatcher.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>

#include <cstdlib>

#include "bgp/hegemony.h"
#include "bgp/propagation.h"
#include "bgp/reliance.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/reqtrace.h"
#include "util/env.h"
#include "util/strings.h"

namespace flatnet::serve {
namespace {

struct ServeCounters {
  obs::Counter& requests = obs::GetCounter("serve.requests");
  obs::Counter& errors = obs::GetCounter("serve.errors");
  obs::Counter& overloaded = obs::GetCounter("serve.overloaded");
  obs::Counter& deadline_exceeded = obs::GetCounter("serve.deadline_exceeded");
  obs::Counter& slow_queries = obs::GetCounter("serve.slow_queries");
  obs::Gauge& inflight = obs::GetGauge("serve.inflight");
};

ServeCounters& Counters() {
  static ServeCounters counters;
  return counters;
}

// Each op's serve.<op>.requests / .errors / .latency_ms, registered
// together on first use.
struct OpMetrics {
  obs::Counter* requests;
  obs::Counter* errors;
  obs::Histogram* latency;
};

const OpMetrics& MetricsOf(QueryKind kind) {
  static const std::array<OpMetrics, kNumQueryKinds> table = [] {
    const std::vector<double> bounds{0.1,  0.3,   1.0,   3.0,    10.0,
                                     30.0, 100.0, 300.0, 1000.0, 3000.0};
    std::array<OpMetrics, kNumQueryKinds> ops{};
    for (std::size_t i = 0; i < kNumQueryKinds; ++i) {
      std::string prefix = StrFormat("serve.%s.", ToString(static_cast<QueryKind>(i)));
      ops[i] = {&obs::GetCounter(prefix + "requests"), &obs::GetCounter(prefix + "errors"),
                &obs::GetHistogram(prefix + "latency_ms", bounds)};
    }
    return ops;
  }();
  return table[static_cast<std::size_t>(kind)];
}

// FLATNET_SLOW_QUERY_MS: non-negative integer milliseconds; unset or
// unparseable disables the slow-query log.
std::int64_t SlowQueryMsFromEnv() {
  auto text = GetEnv("FLATNET_SLOW_QUERY_MS");
  if (!text) return 0;
  char* end = nullptr;
  long long ms = std::strtoll(text->c_str(), &end, 10);
  if (end == text->c_str() || *end != '\0' || ms < 0) return 0;
  return static_cast<std::int64_t>(ms);
}

// Nearest-rank quantile over an ascending pre-sorted sample — the same
// convention as util/stats.h Quantile, without re-sorting per query.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

// Sets the `mean` and `quantiles` a distribution op (leakdist, failure)
// answers with: the requested quantiles of `sorted`, or p50/p90/p99 when
// the request named none.
void SetDistribution(const std::vector<double>& sorted, const std::vector<double>& requested,
                     Json& result) {
  static const std::vector<double> kDefaultQuantiles{0.5, 0.9, 0.99};
  Json quantiles = Json::MakeArray();
  for (double q : requested.empty() ? kDefaultQuantiles : requested) {
    Json entry = Json::MakeObject();
    entry["q"] = q;
    entry["value"] = SortedQuantile(sorted, q);
    quantiles.Append(std::move(entry));
  }
  double sum = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  result["mean"] = sorted.empty() ? 0.0 : sum / static_cast<double>(sorted.size());
  result["quantiles"] = std::move(quantiles);
}

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::string MetricsResult(const Request& request) {
  Json result = Json::MakeObject();
  result["format"] = ToString(request.format);
  if (request.format == MetricsFormat::kPrometheus) {
    result["content_type"] = "text/plain; version=0.0.4";
    result["text"] = obs::RenderPrometheusText();
  } else {
    result["metrics"] = obs::ObservabilitySnapshot();
  }
  return result.Dump();
}

Dispatcher::Dispatcher(const Internet& internet, const DispatcherOptions& options)
    : internet_(internet),
      options_(options),
      cache_(options.cache_bytes),
      pool_(options.threads),
      users_(internet.metadata().UserArray()),
      start_time_(std::chrono::steady_clock::now()) {
  if (options.shard_count > 1) {
    if (options.shard_index >= options.shard_count) {
      throw InvalidArgument(StrFormat("shard index %zu out of range (%zu shards)",
                                      options.shard_index, options.shard_count));
    }
    ring_.emplace(options.shard_count);
    obs::Log(obs::LogLevel::kInfo, "serve", "shard.configured")
        .Kv("index", static_cast<std::uint64_t>(options.shard_index))
        .Kv("count", static_cast<std::uint64_t>(options.shard_count));
  }
  slow_query_ms_ = options.slow_query_ms >= 0 ? options.slow_query_ms : SlowQueryMsFromEnv();
  if (slow_query_ms_ > 0) {
    obs::Log(obs::LogLevel::kInfo, "serve", "slow_query_log.armed")
        .Kv("threshold_ms", slow_query_ms_);
  }
}

void Dispatcher::AttachSweepStore(sweep::SweepStore store, const std::string& path) {
  store.ValidateAgainst(internet_);
  sweep_store_ = std::move(store);
  sweep_path_ = path;
  for (std::size_t c = 0; c < sweep::kNumSweepColumns; ++c) {
    auto column = static_cast<sweep::SweepColumn>(c);
    if (!sweep_store_.HasColumn(column)) continue;
    const std::vector<std::uint32_t>& values = sweep_store_.table().Column(column);
    std::vector<AsId>& ranking = sweep_rankings_[c];
    // Sharded, the ranking covers only this shard's slice of origin space:
    // the router's k-way merge of the disjoint per-shard rankings then
    // reproduces the full ranking exactly (fleet/merge.h).
    ranking.clear();
    ranking.reserve(values.size());
    for (AsId id = 0; id < static_cast<AsId>(values.size()); ++id) {
      if (OwnsAsId(id)) ranking.push_back(id);
    }
    std::sort(ranking.begin(), ranking.end(), [&](AsId a, AsId b) {
      if (values[a] != values[b]) return values[a] > values[b];
      return internet_.graph().AsnOf(a) < internet_.graph().AsnOf(b);
    });
  }
  std::size_t owned = 0;
  for (AsId id = 0; id < internet_.num_ases(); ++id) {
    if (OwnsAsId(id)) ++owned;
  }
  sweep_loaded_ = true;
  obs::Log(obs::LogLevel::kInfo, "serve", "sweep_store.attached")
      .Kv("path", path)
      .Kv("origins", static_cast<std::uint64_t>(sweep_store_.num_origins()))
      .Kv("owned", static_cast<std::uint64_t>(owned));
}

void Dispatcher::AttachLeakStore(leaksim::LeakStore store, const std::string& path) {
  store.ValidateAgainst(internet_);
  leak_store_ = std::move(store);
  leak_path_ = path;
  leak_sorted_.clear();
  leak_sorted_.reserve(leak_store_.num_cells());
  for (std::size_t i = 0; i < leak_store_.num_cells(); ++i) {
    if (!OwnsAsId(leak_store_.cell(i).spec.victim)) {
      // Not this shard's slice: keep the index aligned but hold no samples.
      leak_sorted_.emplace_back();
      continue;
    }
    std::vector<double> sorted = leak_store_.cell(i).fraction_ases;
    std::sort(sorted.begin(), sorted.end());
    leak_sorted_.push_back(std::move(sorted));
  }
  leak_loaded_ = true;
  obs::Log(obs::LogLevel::kInfo, "serve", "leak_store.attached")
      .Kv("path", path)
      .Kv("cells", static_cast<std::uint64_t>(leak_store_.num_cells()));
}

void Dispatcher::AttachFailStore(failsim::FailStore store, const std::string& path) {
  store.ValidateAgainst(internet_);
  fail_store_ = std::move(store);
  fail_path_ = path;
  fail_sorted_.clear();
  fail_sorted_.reserve(fail_store_.num_cells());
  hegemony_rankings_.clear();
  for (std::size_t i = 0; i < fail_store_.num_cells(); ++i) {
    const failsim::FailCellResult& cell = fail_store_.cell(i);
    if (!OwnsAsId(cell.spec.origin)) {
      fail_sorted_.emplace_back();
      continue;
    }
    FailSortedCell sorted;
    sorted.loss_ases = cell.loss_ases;
    std::sort(sorted.loss_ases.begin(), sorted.loss_ases.end());
    sorted.disconnected = cell.disconnected;
    std::sort(sorted.disconnected.begin(), sorted.disconnected.end());
    sorted.loss_users = cell.loss_users;
    std::sort(sorted.loss_users.begin(), sorted.loss_users.end());
    fail_sorted_.push_back(std::move(sorted));
    hegemony_rankings_.emplace(cell.spec.origin, HegemonyRank{});
  }
  // One hegemony computation per distinct origin — milliseconds each, so
  // attach stays cheap and every `hegemony` query is a prefix copy.
  for (auto& [origin, rank] : hegemony_rankings_) {
    AnnouncementSource source;
    source.node = origin;
    RouteComputation computation(internet_.graph(), {source});
    HegemonyResult result = ComputeHegemony(computation);
    rank.ranking = HegemonyRanking(result);
    rank.scores.reserve(rank.ranking.size());
    for (AsId a : rank.ranking) rank.scores.push_back(result.hegemony[a]);
    rank.num_viewpoints = result.num_viewpoints;
    rank.trimmed_each_end = result.trimmed_each_end;
  }
  fail_loaded_ = true;
  obs::Log(obs::LogLevel::kInfo, "serve", "fail_store.attached")
      .Kv("path", path)
      .Kv("cells", static_cast<std::uint64_t>(fail_store_.num_cells()))
      .Kv("origins", static_cast<std::uint64_t>(hegemony_rankings_.size()));
}

AsId Dispatcher::ResolveAsn(Asn asn, const char* field) const {
  auto id = internet_.graph().IdOf(asn);
  if (!id) {
    throw ProtocolError(ErrorCode::kUnknownAsn,
                        StrFormat("%s AS%u is not in the topology", field, asn));
  }
  return *id;
}

Bitset Dispatcher::ResolveAsnList(const std::vector<Asn>& asns) const {
  Bitset mask(internet_.num_ases());
  for (Asn asn : asns) mask.Set(ResolveAsn(asn, "listed"));
  return mask;
}

bool Dispatcher::OwnsAsId(AsId id) const {
  if (!ring_) return true;
  return ring_->Owner(internet_.graph().AsnOf(id)) == options_.shard_index;
}

void Dispatcher::RequireOwned(AsId id, const char* op) const {
  if (OwnsAsId(id)) return;
  Asn asn = internet_.graph().AsnOf(id);
  throw ProtocolError(
      ErrorCode::kBadRequest,
      StrFormat("%s: AS%u belongs to shard %zu of %zu (this is shard %zu; route "
                "through the fleet router)",
                op, asn, ring_->Owner(asn), options_.shard_count,
                options_.shard_index));
}

void Dispatcher::Handle(const std::string& line, std::function<void(std::string)> done) {
  Handle(line, std::move(done), std::chrono::steady_clock::now());
}

void Dispatcher::Handle(const std::string& line, std::function<void(std::string)> done,
                        std::chrono::steady_clock::time_point received_at) {
  Counters().requests.Increment();
  auto t0 = std::chrono::steady_clock::now();

  Request request;
  try {
    ParseRequest(line, request);
  } catch (const ProtocolError& e) {
    Counters().errors.Increment();
    done(ErrorResponse(request.id, e.code(), e.what()));
    return;
  }
  MetricsOf(request.kind).requests->Increment();

  // Tracing is paid only when asked for — by this request (`timing`) or by
  // an armed slow-query threshold. Otherwise a request's total tracing
  // cost is the two clock reads above and null-pointer branches below, and
  // the response bytes are exactly the untraced encoding.
  std::shared_ptr<obs::RequestTrace> trace;
  if (request.timing || slow_query_ms_ > 0) {
    auto t_parse = std::chrono::steady_clock::now();
    trace = std::make_shared<obs::RequestTrace>(received_at);
    trace->MarkAt("accept", t0);
    trace->MarkAt("parse", t_parse);
  }

  // `status`, `top`, `leakdist`, `metrics`, and `debug` read precomputed
  // or in-memory state — microseconds, so they skip the cache and the pool
  // entirely and are answered on the connection thread.
  if (request.kind != QueryKind::kReach && request.kind != QueryKind::kReliance &&
      request.kind != QueryKind::kLeak) {
    try {
      std::string result;
      switch (request.kind) {
        case QueryKind::kStatus: result = StatusResult(); break;
        case QueryKind::kTop: result = ExecuteTop(request); break;
        case QueryKind::kLeakDist: result = ExecuteLeakDist(request); break;
        case QueryKind::kMetrics: result = MetricsResult(request); break;
        case QueryKind::kDebug: result = obs::RecorderJson(request.debug_n).Dump(); break;
        case QueryKind::kHegemony: result = ExecuteHegemony(request); break;
        case QueryKind::kFailure: result = ExecuteFailure(request); break;
        default: break;
      }
      if (trace != nullptr) trace->Mark("execute");
      Respond(request, result, false, trace.get(), done);
    } catch (const ProtocolError& e) {
      Counters().errors.Increment();
      MetricsOf(request.kind).errors->Increment();
      done(ErrorResponse(request.id, e.code(), e.what()));
    }
    MetricsOf(request.kind).latency->Observe(MillisSince(t0));
    return;
  }

  std::string key = CacheKey(request);
  if (auto hit = cache_.Get(key)) {
    if (trace != nullptr) trace->Mark("cache_probe");
    Respond(request, *hit, true, trace.get(), done);
    MetricsOf(request.kind).latency->Observe(MillisSince(t0));
    return;
  }
  if (trace != nullptr) trace->Mark("cache_probe");

  // The deadline clock starts at admission, so time spent queued behind
  // other queries counts against the request's budget.
  std::int64_t deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms : options_.default_deadline_ms;
  std::shared_ptr<CancelToken> token;
  if (deadline_ms > 0) {
    token = std::make_shared<CancelToken>(std::chrono::steady_clock::now() +
                                          std::chrono::milliseconds(deadline_ms));
  }

  inflight_.fetch_add(1, std::memory_order_relaxed);
  Counters().inflight.Set(inflight_.load(std::memory_order_relaxed));
  // `request` and `done` are captured by copy: if admission rejects the
  // job, the originals are still live for the overload response below.
  auto job = [this, request, key, token, done, t0, trace] {
    if (trace != nullptr) trace->Mark("queue");
    std::string response;
    bool respond_ok = false;
    try {
      std::string result = Execute(request, token.get(), trace.get());
      cache_.Put(key, result);
      respond_ok = true;
      Respond(request, result, false, trace.get(), done);
    } catch (const CancelledError&) {
      Counters().deadline_exceeded.Increment();
      Counters().errors.Increment();
      MetricsOf(request.kind).errors->Increment();
      response = ErrorResponse(request.id, ErrorCode::kDeadlineExceeded,
                               "query abandoned past its deadline");
    } catch (const ProtocolError& e) {
      Counters().errors.Increment();
      MetricsOf(request.kind).errors->Increment();
      response = ErrorResponse(request.id, e.code(), e.what());
    } catch (const Error& e) {
      Counters().errors.Increment();
      MetricsOf(request.kind).errors->Increment();
      obs::Log(obs::LogLevel::kError, "serve", "query.internal_error")
          .Kv("op", ToString(request.kind))
          .Kv("error", e.what());
      response = ErrorResponse(request.id, ErrorCode::kInternal, e.what());
    }
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    Counters().inflight.Set(inflight_.load(std::memory_order_relaxed));
    MetricsOf(request.kind).latency->Observe(MillisSince(t0));
    if (!respond_ok) done(response);
  };
  if (!pool_.TrySubmit(std::move(job), options_.max_inflight)) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    Counters().inflight.Set(inflight_.load(std::memory_order_relaxed));
    Counters().overloaded.Increment();
    Counters().errors.Increment();
    MetricsOf(request.kind).errors->Increment();
    done(ErrorResponse(request.id, ErrorCode::kOverloaded,
                       StrFormat("at the admission high-water mark (%zu queries in flight)",
                                 options_.max_inflight)));
  }
}

void Dispatcher::Respond(const Request& request, const std::string& result, bool cached,
                         obs::RequestTrace* trace,
                         const std::function<void(std::string)>& done) const {
  if (trace == nullptr) {
    done(OkResponse(request.id, result, cached));
    return;
  }
  std::string timing;
  const std::string* timing_ptr = nullptr;
  if (request.timing) {
    trace->Mark("serialize");
    timing = trace->TimingJson().Dump();
    timing_ptr = &timing;
  }
  done(OkResponse(request.id, result, cached, timing_ptr));
  trace->Mark("write");
  if (slow_query_ms_ > 0 && trace->MarkedMs() >= static_cast<double>(slow_query_ms_)) {
    Counters().slow_queries.Increment();
    obs::Log(obs::LogLevel::kWarn, "serve", "slow_query")
        .Kv("op", ToString(request.kind))
        .Kv("cached", cached)
        .Kv("threshold_ms", slow_query_ms_)
        .Kv("total_ms", trace->MarkedMs())
        .Kv("phases", trace->Format());
  }
}

std::string Dispatcher::HandleSync(const std::string& line) {
  std::mutex mu;
  std::condition_variable cv;
  std::string response;
  bool ready = false;
  // Notify under the lock: once `ready` is visible the waiter may return
  // and destroy `cv`, so the callback must be done with `cv` before the
  // waiter can reacquire `mu`.
  Handle(line, [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    response = std::move(r);
    ready = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ready; });
  return response;
}

void Dispatcher::Drain() { pool_.Wait(); }

std::string Dispatcher::Execute(const Request& request, const CancelToken* cancel,
                                obs::RequestTrace* trace) const {
  switch (request.kind) {
    case QueryKind::kReach: return ExecuteReach(request, cancel, trace);
    case QueryKind::kReliance: return ExecuteReliance(request, cancel, trace);
    case QueryKind::kLeak: return ExecuteLeak(request, cancel, trace);
    default: break;  // Handle answers every other op inline
  }
  throw ProtocolError(ErrorCode::kInternal, "unreachable op");
}

std::string Dispatcher::ExecuteReach(const Request& request, const CancelToken* cancel,
                                     obs::RequestTrace* trace) const {
  AsId origin = ResolveAsn(request.origin, "origin");
  std::size_t n = internet_.num_ases();

  Bitset excluded(n);
  switch (request.mode) {
    case ReachMode::kFull: break;
    case ReachMode::kProviderFree: excluded = internet_.ProviderFreeExclusion(origin); break;
    case ReachMode::kTier1Free: excluded = internet_.Tier1FreeExclusion(origin); break;
    case ReachMode::kHierarchyFree:
      excluded = internet_.HierarchyFreeExclusion(origin);
      break;
  }
  for (Asn asn : request.excluded) {
    AsId id = ResolveAsn(asn, "excluded");
    if (id == origin) {
      throw ProtocolError(ErrorCode::kBadRequest, "the origin cannot be excluded");
    }
    excluded.Set(id);
  }

  PropagationOptions options;
  options.cancel = cancel;
  options.trace = trace;
  if (excluded.Any()) options.excluded = &excluded;
  Bitset locked;
  if (!request.peer_locked.empty()) {
    // Peer locking protects the origin's prefix: locked ASes accept it only
    // directly from the origin (kFull). kDirectOnly names no refused
    // senders in a reach query, so it degenerates to unfiltered — accepted
    // for symmetry with leak, where it models the pre-erratum semantics.
    locked = ResolveAsnList(request.peer_locked);
    options.peer_locked = &locked;
    options.protected_origin = origin;
    options.lock_mode = request.lock_mode;
  }

  AnnouncementSource source;
  source.node = origin;
  if (trace != nullptr) trace->Mark("setup");
  RouteComputation computation(internet_.graph(), {source}, options);
  std::size_t reachable = computation.ReachedCount();

  std::size_t denominator = n > 0 ? n - 1 : 0;
  Json result = Json::MakeObject();
  result["denominator"] = static_cast<std::uint64_t>(denominator);
  result["excluded"] = static_cast<std::uint64_t>(excluded.Count());
  result["fraction"] = denominator > 0
                           ? static_cast<double>(reachable) / static_cast<double>(denominator)
                           : 0.0;
  result["mode"] = ToString(request.mode);
  result["origin"] = request.origin;
  result["reachable"] = static_cast<std::uint64_t>(reachable);
  std::string out = result.Dump();
  if (trace != nullptr) trace->Mark("serialize");
  return out;
}

std::string Dispatcher::ExecuteReliance(const Request& request, const CancelToken* cancel,
                                        obs::RequestTrace* trace) const {
  AsId origin = ResolveAsn(request.origin, "origin");

  PropagationOptions options;
  options.cancel = cancel;
  options.trace = trace;
  AnnouncementSource source;
  source.node = origin;
  if (trace != nullptr) trace->Mark("setup");
  RouteComputation computation(internet_.graph(), {source}, options);
  ThrowIfCancelled(cancel, "serve.reliance");
  RelianceResult reliance = ComputeReliance(computation);
  if (trace != nullptr) trace->Mark("reliance");

  // Rank every AS with nonzero reliance; ties broken by ascending ASN so
  // the payload is deterministic.
  struct Ranked {
    double value;
    Asn asn;
    AsId id;
  };
  std::vector<Ranked> ranked;
  for (AsId id = 0; id < internet_.num_ases(); ++id) {
    if (reliance.reliance[id] > 0.0 && id != origin) {
      ranked.push_back({reliance.reliance[id], internet_.graph().AsnOf(id), id});
    }
  }
  std::size_t k = std::min(request.top_k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(k),
                    ranked.end(), [](const Ranked& a, const Ranked& b) {
                      if (a.value != b.value) return a.value > b.value;
                      return a.asn < b.asn;
                    });
  ranked.resize(k);

  Json top = Json::MakeArray();
  for (const Ranked& r : ranked) {
    Json entry = Json::MakeObject();
    entry["asn"] = r.asn;
    entry["name"] = internet_.NameOf(r.id);
    entry["reliance"] = r.value;
    top.Append(std::move(entry));
  }
  Json result = Json::MakeObject();
  result["k"] = static_cast<std::uint64_t>(request.top_k);
  result["origin"] = request.origin;
  result["top"] = std::move(top);
  std::string out = result.Dump();
  if (trace != nullptr) trace->Mark("serialize");
  return out;
}

std::string Dispatcher::ExecuteLeak(const Request& request, const CancelToken* cancel,
                                    obs::RequestTrace* trace) const {
  AsId victim = ResolveAsn(request.victim, "victim");
  AsId leaker = ResolveAsn(request.leaker, "leaker");

  LeakConfig config;
  config.lock_mode = request.lock_mode;
  config.model = request.model;
  config.cancel = cancel;
  config.trace = trace;
  if (!request.peer_locked.empty()) {
    config.peer_locked = ResolveAsnList(request.peer_locked);
  }
  if (trace != nullptr) trace->Mark("setup");
  // The constructor runs the victim-only baseline propagation (untraced);
  // Run's joint propagation marks the propagation.* phases via config.trace.
  LeakExperiment experiment(internet_.graph(), victim, std::move(config),
                            users_.empty() ? nullptr : &users_);
  if (trace != nullptr) trace->Mark("baseline");
  std::optional<LeakOutcome> outcome = experiment.Run(leaker);
  if (!outcome) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "leaker holds no route to the victim (nothing to leak)");
  }

  Json result = Json::MakeObject();
  result["detoured"] = static_cast<std::uint64_t>(outcome->detoured_count);
  result["fraction_ases"] = outcome->fraction_ases_detoured;
  result["fraction_users"] = outcome->fraction_users_detoured;
  result["leaker"] = request.leaker;
  result["model"] = ToString(request.model);
  result["victim"] = request.victim;
  std::string out = result.Dump();
  if (trace != nullptr) trace->Mark("serialize");
  return out;
}

std::string Dispatcher::ExecuteTop(const Request& request) const {
  if (!sweep_loaded_) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "no sweep store loaded (run flatnet_sweep, then start the "
                        "server with --sweep)");
  }
  sweep::SweepColumn column = request.metric;
  if (!sweep_store_.HasColumn(column)) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        StrFormat("the loaded sweep store has no '%s' column",
                                  sweep::ToString(column)));
  }

  const std::vector<AsId>& ranking = sweep_rankings_[static_cast<std::size_t>(column)];
  std::size_t k = std::min(request.top_k, ranking.size());
  Json top = Json::MakeArray();
  for (std::size_t i = 0; i < k; ++i) {
    AsId id = ranking[i];
    Json entry = Json::MakeObject();
    entry["asn"] = internet_.graph().AsnOf(id);
    entry["name"] = internet_.NameOf(id);
    entry["reach"] = static_cast<std::uint64_t>(sweep_store_.Value(column, id));
    top.Append(std::move(entry));
  }
  Json result = Json::MakeObject();
  result["denominator"] =
      static_cast<std::uint64_t>(internet_.num_ases() > 0 ? internet_.num_ases() - 1 : 0);
  result["k"] = static_cast<std::uint64_t>(request.top_k);
  result["metric"] = sweep::ToString(column);
  result["top"] = std::move(top);
  return result.Dump();
}

std::string Dispatcher::ExecuteLeakDist(const Request& request) const {
  if (!leak_loaded_) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "no leak store loaded (run flatnet_leaksim --campaign, then start "
                        "the server with --leak)");
  }
  AsId victim = ResolveAsn(request.victim, "victim");
  RequireOwned(victim, ToString(request.kind));
  std::size_t cell_index =
      leak_store_.FindCell(victim, request.scenario, request.lock_mode, request.model);
  if (cell_index == leaksim::LeakStore::npos) {
    throw ProtocolError(
        ErrorCode::kBadRequest,
        StrFormat("the loaded leak store has no cell for victim AS%u, scenario '%s', "
                  "lock_mode '%s', model '%s'",
                  request.victim, kLeakScenarioSlugs.Name(request.scenario),
                  ToString(request.lock_mode), ToString(request.model)));
  }
  const leaksim::LeakCellResult& cell = leak_store_.cell(cell_index);

  Json result = Json::MakeObject();
  SetDistribution(leak_sorted_[cell_index], request.quantiles, result);
  result["attempts"] = static_cast<std::uint64_t>(cell.attempts);
  result["collected"] = static_cast<std::uint64_t>(cell.collected());
  result["lock_mode"] = ToString(request.lock_mode);
  result["model"] = ToString(request.model);
  result["requested"] = static_cast<std::uint64_t>(cell.spec.trials);
  result["scenario"] = kLeakScenarioSlugs.Name(request.scenario);
  result["under_collected"] = cell.UnderCollected();
  result["victim"] = request.victim;
  return result.Dump();
}

std::string Dispatcher::ExecuteHegemony(const Request& request) const {
  if (!fail_loaded_) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "no fail store loaded (run flatnet_failsim, then start the "
                        "server with --fail)");
  }
  AsId origin = ResolveAsn(request.origin, "origin");
  RequireOwned(origin, ToString(request.kind));
  auto it = hegemony_rankings_.find(origin);
  if (it == hegemony_rankings_.end()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        StrFormat("the loaded fail store has no cells for origin AS%u",
                                  request.origin));
  }
  const HegemonyRank& rank = it->second;

  std::size_t k = std::min(request.top_k, rank.ranking.size());
  Json top = Json::MakeArray();
  for (std::size_t i = 0; i < k; ++i) {
    AsId id = rank.ranking[i];
    Json entry = Json::MakeObject();
    entry["asn"] = internet_.graph().AsnOf(id);
    entry["hegemony"] = rank.scores[i];
    entry["name"] = internet_.NameOf(id);
    top.Append(std::move(entry));
  }
  Json result = Json::MakeObject();
  result["k"] = static_cast<std::uint64_t>(request.top_k);
  result["num_viewpoints"] = static_cast<std::uint64_t>(rank.num_viewpoints);
  result["origin"] = request.origin;
  result["top"] = std::move(top);
  result["trimmed_each_end"] = static_cast<std::uint64_t>(rank.trimmed_each_end);
  return result.Dump();
}

std::string Dispatcher::ExecuteFailure(const Request& request) const {
  if (!fail_loaded_) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "no fail store loaded (run flatnet_failsim, then start the "
                        "server with --fail)");
  }
  AsId origin = ResolveAsn(request.origin, "origin");
  RequireOwned(origin, ToString(request.kind));
  std::size_t cell_index = fail_store_.FindCell(origin, request.fail_scenario);
  if (cell_index == failsim::FailStore::npos) {
    throw ProtocolError(
        ErrorCode::kBadRequest,
        StrFormat("the loaded fail store has no cell for origin AS%u, scenario '%s'",
                  request.origin, failsim::ToString(request.fail_scenario)));
  }
  if (request.fail_column == FailColumn::kLossUsers && !fail_store_.has_users()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "the loaded fail store has no user-weighted column (rerun "
                        "flatnet_failsim with --users)");
  }
  const failsim::FailCellResult& cell = fail_store_.cell(cell_index);
  const FailSortedCell& cell_sorted = fail_sorted_[cell_index];
  const std::vector<double>* sorted = &cell_sorted.loss_ases;
  switch (request.fail_column) {
    case FailColumn::kLossAses: break;
    case FailColumn::kDisconnected: sorted = &cell_sorted.disconnected; break;
    case FailColumn::kLossUsers: sorted = &cell_sorted.loss_users; break;
  }

  Json result = Json::MakeObject();
  SetDistribution(*sorted, request.quantiles, result);
  result["baseline"] = static_cast<std::uint64_t>(cell.baseline);
  result["collected"] = static_cast<std::uint64_t>(cell.collected());
  result["column"] = ToString(request.fail_column);
  result["origin"] = request.origin;
  result["requested"] = static_cast<std::uint64_t>(cell.spec.trials);
  result["scenario"] = failsim::ToString(request.fail_scenario);
  result["severity"] = cell.spec.severity;
  result["under_collected"] = cell.UnderCollected();
  return result.Dump();
}

std::string Dispatcher::StatusResult() {
  CacheStats stats = cache_.Stats();
  obs::GetGauge("serve.cache.bytes").Set(static_cast<std::int64_t>(stats.bytes));
  obs::GetGauge("serve.cache.entries").Set(static_cast<std::int64_t>(stats.entries));
  Counters().inflight.Set(inflight_.load(std::memory_order_relaxed));

  Json cache = Json::MakeObject();
  cache["bytes"] = stats.bytes;
  cache["capacity_bytes"] = stats.capacity_bytes;
  cache["entries"] = stats.entries;
  cache["evictions"] = stats.evictions;
  cache["hit_ratio"] = stats.hits + stats.misses > 0
                           ? static_cast<double>(stats.hits) /
                                 static_cast<double>(stats.hits + stats.misses)
                           : 0.0;
  cache["hits"] = stats.hits;
  cache["misses"] = stats.misses;
  cache["oversize"] = stats.oversize;

  // Per-op request/error counters, keyed by wire op name.
  Json ops = Json::MakeObject();
  for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
    auto kind = static_cast<QueryKind>(k);
    Json op = Json::MakeObject();
    op["errors"] = MetricsOf(kind).errors->value();
    op["requests"] = MetricsOf(kind).requests->value();
    ops[ToString(kind)] = std::move(op);
  }

  Json sweep_store = Json::MakeObject();
  sweep_store["loaded"] = sweep_loaded_;
  if (sweep_loaded_) {
    Json columns = Json::MakeArray();
    for (std::size_t c = 0; c < sweep::kNumSweepColumns; ++c) {
      auto column = static_cast<sweep::SweepColumn>(c);
      if (sweep_store_.HasColumn(column)) columns.Append(Json(sweep::ToString(column)));
    }
    sweep_store["columns"] = std::move(columns);
    sweep_store["num_origins"] = static_cast<std::uint64_t>(sweep_store_.num_origins());
    sweep_store["path"] = sweep_path_;
  }

  Json leak_store = Json::MakeObject();
  leak_store["loaded"] = leak_loaded_;
  if (leak_loaded_) {
    leak_store["cells"] = static_cast<std::uint64_t>(leak_store_.num_cells());
    leak_store["path"] = leak_path_;
    // Distinct victim ASNs, ascending — lets a client (or the CI smoke
    // test) discover which victims are queryable without a topology scan.
    std::vector<Asn> victims;
    for (std::size_t i = 0; i < leak_store_.num_cells(); ++i) {
      AsId victim = leak_store_.cell(i).spec.victim;
      if (OwnsAsId(victim)) victims.push_back(internet_.graph().AsnOf(victim));
    }
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
    Json victim_list = Json::MakeArray();
    for (Asn asn : victims) victim_list.Append(Json(asn));
    leak_store["victims"] = std::move(victim_list);
  }

  Json fail_store = Json::MakeObject();
  fail_store["loaded"] = fail_loaded_;
  if (fail_loaded_) {
    fail_store["cells"] = static_cast<std::uint64_t>(fail_store_.num_cells());
    fail_store["has_users"] = fail_store_.has_users();
    fail_store["path"] = fail_path_;
    // Distinct origin ASNs, ascending — the origins `hegemony` and
    // `failure` can answer for, discoverable without a topology scan.
    std::vector<Asn> origins;
    origins.reserve(hegemony_rankings_.size());
    for (const auto& [id, rank] : hegemony_rankings_) {
      origins.push_back(internet_.graph().AsnOf(id));
    }
    std::sort(origins.begin(), origins.end());
    Json origin_list = Json::MakeArray();
    for (Asn asn : origins) origin_list.Append(Json(asn));
    fail_store["origins"] = std::move(origin_list);
    // Distinct scenario slugs in enum order. CLI-produced stores hold the
    // full origins x scenarios cross-product, so a client can combine the
    // two lists freely.
    Json scenario_list = Json::MakeArray();
    for (std::size_t s = 0; s < failsim::kNumFailScenarios; ++s) {
      auto scenario = static_cast<failsim::FailScenario>(s);
      for (std::size_t i = 0; i < fail_store_.num_cells(); ++i) {
        const failsim::FailCellSpec& spec = fail_store_.cell(i).spec;
        if (spec.scenario == scenario && OwnsAsId(spec.origin)) {
          scenario_list.Append(Json(failsim::ToString(scenario)));
          break;
        }
      }
    }
    fail_store["scenarios"] = std::move(scenario_list);
  }

  Json result = Json::MakeObject();
  result["cache"] = std::move(cache);
  result["fail_store"] = std::move(fail_store);
  result["inflight"] = static_cast<std::int64_t>(inflight());
  result["leak_store"] = std::move(leak_store);
  result["metrics"] = obs::ObservabilitySnapshot();
  result["num_ases"] = static_cast<std::uint64_t>(internet_.num_ases());
  result["num_edges"] = static_cast<std::uint64_t>(internet_.graph().num_edges());
  result["ops"] = std::move(ops);
  if (ring_) {
    // Fleet identity: which slice of the hash space this shard owns. Hex
    // interval strings — JSON numbers are doubles and would corrupt the
    // 64-bit ring points.
    Json shard = Json::MakeObject();
    shard["count"] = static_cast<std::uint64_t>(options_.shard_count);
    shard["index"] = static_cast<std::uint64_t>(options_.shard_index);
    shard["vnodes"] = static_cast<std::uint64_t>(fleet::kVnodes);
    Json ranges = Json::MakeArray();
    for (const auto& [lo, hi] : ring_->RangesOf(options_.shard_index)) {
      Json pair = Json::MakeArray();
      pair.Append(Json(StrFormat("%016llx", static_cast<unsigned long long>(lo))));
      pair.Append(Json(StrFormat("%016llx", static_cast<unsigned long long>(hi))));
      ranges.Append(std::move(pair));
    }
    shard["owned_ranges"] = std::move(ranges);
    result["shard"] = std::move(shard);
  }
  result["slow_query_ms"] = slow_query_ms_;
  result["sweep_store"] = std::move(sweep_store);
  result["threads"] = static_cast<std::uint64_t>(pool_.thread_count());
  result["uptime_s"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count();
  return result.Dump();
}

}  // namespace flatnet::serve
