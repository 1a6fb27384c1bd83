// Query execution with admission control for the resident service.
//
// The dispatcher owns the shared immutable Internet, the result cache, and
// a ThreadPool. One request flows: parse → status answered inline → cache
// probe (hit returns the stored payload verbatim) → bounded admission
// (structured `overloaded` error past the high-water mark, so the service
// sheds load instead of queueing without bound) → execution on a pool
// thread under a per-request CancelToken whose deadline covers queue wait
// as well as compute (the propagation engines poll it between phases and
// abandon expired work with `deadline_exceeded`).
//
// Instrumentation: per-endpoint latency histograms
// (serve.<op>.latency_ms), per-op request/error counters
// (serve.<op>.requests / serve.<op>.errors), aggregate
// request/error/overload counters, an inflight gauge, and the cache
// counters from cache.h.
//
// Tracing: a request carrying `"timing":true` (any op) gets a per-phase
// timeline — accept, parse, cache_probe, queue, setup, the propagation
// phases, serialize — attached to its response under `timing`. When a
// slow-query threshold is configured (options or FLATNET_SLOW_QUERY_MS),
// every request is timed and offenders past the threshold are logged with
// their full timeline. With both off, the per-request cost is two
// steady_clock reads and the response bytes are untouched.
#ifndef FLATNET_SERVE_DISPATCHER_H_
#define FLATNET_SERVE_DISPATCHER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/internet.h"
#include "failsim/store.h"
#include "fleet/ring.h"
#include "leaksim/store.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "sweep/store.h"
#include "util/thread_pool.h"

namespace flatnet::serve {

struct DispatcherOptions {
  // Worker threads for query execution; 0 = hardware concurrency.
  std::size_t threads = 0;
  // Admission high-water mark: queries queued or running. At the mark, new
  // queries (cache hits and status excepted) are rejected as `overloaded`.
  std::size_t max_inflight = 64;
  // Result-cache byte budget.
  std::size_t cache_bytes = 64 * 1024 * 1024;
  // Deadline applied when a request does not carry `deadline_ms`; 0 = none.
  std::int64_t default_deadline_ms = 0;
  // Requests slower than this (wall time, admission to response) are logged
  // at warn with their phase timeline and counted in serve.slow_queries.
  // 0 disables; a negative value (the default) defers to the
  // FLATNET_SLOW_QUERY_MS environment variable (unset/invalid = disabled).
  std::int64_t slow_query_ms = -1;
  // Fleet slice identity: this process is shard `shard_index` of
  // `shard_count` under the consistent-hash ring (fleet/ring.h, built from
  // the count alone — every fleet member derives identical ownership).
  // Attach methods then keep only the owned slice of each store's rankings
  // and cells; compute ops are unaffected (every shard holds the full
  // topology, which is what makes failover and hedging possible).
  // shard_count <= 1 means unsharded.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
};

// The `result` of a `metrics` request: this process's own metrics
// registry. The dispatcher and the fleet router both answer it locally.
std::string MetricsResult(const Request& request);

class Dispatcher {
 public:
  // `internet` must outlive the dispatcher; queries only read it.
  Dispatcher(const Internet& internet, const DispatcherOptions& options);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // Attaches a loaded sweep store and precomputes the per-column rankings
  // the `top` op serves from (value descending, ASN ascending). Validates
  // the store against this dispatcher's topology — a fingerprint or size
  // mismatch throws and nothing is attached. Call before serving traffic;
  // not synchronized against concurrent Handle().
  void AttachSweepStore(sweep::SweepStore store, const std::string& path);
  bool has_sweep_store() const { return sweep_loaded_; }

  // Attaches a loaded leak-campaign store and pre-sorts every cell's
  // detour fractions so a `leakdist` query is a rank lookup. Validates
  // the store's fingerprint against this topology — a mismatch throws and
  // nothing is attached. Same threading contract as AttachSweepStore.
  void AttachLeakStore(leaksim::LeakStore store, const std::string& path);
  bool has_leak_store() const { return leak_loaded_; }

  // Attaches a loaded failure-campaign store: pre-sorts every cell's
  // damage columns so a `failure` query is a rank lookup, and computes
  // the hegemony ranking for every distinct cell origin so a `hegemony`
  // query is a prefix copy (the scores live on the current topology, not
  // in the store — attach re-derives them deterministically). Validates
  // the store's fingerprint against this topology — a mismatch throws and
  // nothing is attached. Same threading contract as AttachSweepStore.
  void AttachFailStore(failsim::FailStore store, const std::string& path);
  bool has_fail_store() const { return fail_loaded_; }

  // Handles one request line. `done` receives exactly one response line
  // (no trailing newline) — inline for parse errors, cache hits, status,
  // and overload rejections; on a pool thread for computed queries. `done`
  // must be thread-safe against other responses on the same connection.
  void Handle(const std::string& line, std::function<void(std::string)> done);

  // Same, with the moment the request line was received off the wire (the
  // server's read loop passes it) so the timeline's `accept` phase covers
  // socket-to-dispatcher latency. The overload above uses now().
  void Handle(const std::string& line, std::function<void(std::string)> done,
              std::chrono::steady_clock::time_point received_at);

  // Convenience for tests and the loadgen verifier: blocks until the
  // response is ready.
  std::string HandleSync(const std::string& line);

  // Waits until every admitted query has finished (shutdown drain).
  void Drain();

  CacheStats cache_stats() const { return cache_.Stats(); }
  std::int64_t inflight() const { return inflight_.load(std::memory_order_relaxed); }
  const Internet& internet() const { return internet_; }

 private:
  // Runs one pooled query (reach, reliance or leak; Handle answers the
  // other ops inline); returns the compact `result` JSON. Throws
  // ProtocolError / CancelledError on failure. `trace` (nullable) receives
  // the setup / propagation / serialize phase marks.
  std::string Execute(const Request& request, const CancelToken* cancel,
                      obs::RequestTrace* trace) const;
  std::string ExecuteReach(const Request& request, const CancelToken* cancel,
                           obs::RequestTrace* trace) const;
  std::string ExecuteReliance(const Request& request, const CancelToken* cancel,
                              obs::RequestTrace* trace) const;
  std::string ExecuteLeak(const Request& request, const CancelToken* cancel,
                          obs::RequestTrace* trace) const;
  std::string ExecuteTop(const Request& request) const;
  std::string ExecuteLeakDist(const Request& request) const;
  std::string ExecuteHegemony(const Request& request) const;
  std::string ExecuteFailure(const Request& request) const;
  std::string StatusResult();

  // Delivers a successful response: attaches the timing field when the
  // request opted in, then applies the slow-query threshold to the full
  // timeline (including the write itself).
  void Respond(const Request& request, const std::string& result, bool cached,
               obs::RequestTrace* trace, const std::function<void(std::string)>& done) const;

  AsId ResolveAsn(Asn asn, const char* field) const;
  Bitset ResolveAsnList(const std::vector<Asn>& asns) const;

  // True when this shard owns `id`'s slice of origin space (always true
  // unsharded). Store ops for non-owned keys are rejected naming the owner.
  bool OwnsAsId(AsId id) const;
  // Throws bad_request naming the owning shard when `id` is not owned.
  void RequireOwned(AsId id, const char* op) const;

  const Internet& internet_;
  DispatcherOptions options_;
  // Present when shard_count > 1: the fleet ownership ring.
  std::optional<fleet::Ring> ring_;
  // Resolved slow-query threshold (options / env); <= 0 = disabled.
  std::int64_t slow_query_ms_ = 0;
  ResultCache cache_;
  ThreadPool pool_;
  std::vector<double> users_;  // per-AS populations for leak weighting
  std::atomic<std::int64_t> inflight_{0};
  std::chrono::steady_clock::time_point start_time_;

  // Sweep store state (immutable once attached). One ranking per present
  // column: origins ordered by value descending, ASN ascending, so a
  // `top` query is a k-element prefix copy.
  sweep::SweepStore sweep_store_;
  bool sweep_loaded_ = false;
  std::string sweep_path_;
  std::array<std::vector<AsId>, sweep::kNumSweepColumns> sweep_rankings_;

  // Leak-campaign store state (immutable once attached). One ascending
  // sorted copy of each cell's detour fractions, so a quantile is a
  // single nearest-rank index.
  leaksim::LeakStore leak_store_;
  bool leak_loaded_ = false;
  std::string leak_path_;
  // Empty for a cell whose victim another shard owns.
  std::vector<std::vector<double>> leak_sorted_;

  // Failure-campaign store state (immutable once attached). Each cell's
  // damage columns ascending-sorted for quantile lookups, plus one
  // hegemony ranking per distinct cell origin (score descending, ASN
  // ascending — positive-score ASes only), computed at attach time.
  failsim::FailStore fail_store_;
  bool fail_loaded_ = false;
  std::string fail_path_;
  struct FailSortedCell {
    std::vector<double> loss_ases;
    std::vector<double> disconnected;
    std::vector<double> loss_users;  // empty unless the store has_users
  };
  std::vector<FailSortedCell> fail_sorted_;  // empty for another shard's cells
  struct HegemonyRank {
    std::vector<AsId> ranking;
    std::vector<double> scores;  // parallel to `ranking`
    std::size_t num_viewpoints = 0;
    std::size_t trimmed_each_end = 0;
  };
  std::map<AsId, HegemonyRank> hegemony_rankings_;
};

}  // namespace flatnet::serve

#endif  // FLATNET_SERVE_DISPATCHER_H_
