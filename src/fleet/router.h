// Fleet frontend: routes serve-protocol requests across backend shards.
//
// One FleetRouter fronts N flatnet_serve backends started with
// `--shard i/N`. Point queries are routed by their key ASN over the
// consistent-hash ring (fleet/ring.h):
//
//   reach / reliance / leak     keyed compute ops. Every shard holds the
//                               full topology, so any shard can answer —
//                               the ring picks the cache-affine owner, a
//                               slow owner gets hedged to the next distinct
//                               live shard (first response wins, the
//                               duplicate is abandoned), and a dead owner
//                               fails over to the shard inheriting its
//                               range.
//   leakdist / hegemony /       store ops. Only the owner shard attached
//   failure                     the cell, so these route strictly by
//                               ownership; a dead owner yields a structured
//                               `unavailable` error naming the shard, not a
//                               wrong answer from elsewhere.
//   top                         scatter-gather: every live shard returns
//                               its slice-local ranking and the router
//                               k-way merges them byte-identical to the
//                               single-process answer (fleet/merge.h).
//                               With dead shards the merge is returned with
//                               `partial: true` + missing_origin_ranges
//                               instead of an error.
//   status                      scatter: per-shard summaries plus a merged
//                               capability view loadgen's preflight
//                               understands.
//   metrics / debug             answered from the router's own registry and
//                               flight recorder.
//
// Forwarded requests are relayed verbatim in both directions — the shard
// echoes the client's `id` and the router does not re-encode the response,
// so single-shard answers are byte-identical to a direct connection.
//
// Every request to a shard, the prober's included, is one exchange: Send
// (checkout + send), AwaitFirst (the first reply line of one exchange, or
// of a primary and its hedge, before a deadline) and Settle, which applies
// the one failure rule to the shard's health and connections (DESIGN.md
// §15). A prober thread round-trips `status` to every backend on a fixed
// interval; a probe success is how a restarted shard heals back into the
// ring.
#ifndef FLATNET_FLEET_ROUTER_H_
#define FLATNET_FLEET_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fleet/backend.h"
#include "fleet/hedge.h"
#include "fleet/ring.h"
#include "serve/protocol.h"

namespace flatnet::fleet {

struct RouterOptions {
  // backends[i] is shard i — the order must match the shards' --shard i/N.
  std::vector<BackendAddress> backends;
  // Transport guard per forwarded request; a shard that stays silent this
  // long is treated as failed. Query deadlines (`deadline_ms`) are still
  // enforced end-to-end by the shard itself.
  std::chrono::milliseconds request_timeout{15000};
  std::chrono::milliseconds probe_interval{500};
};

// Point-in-time counters for the loadgen report and the fleet status view.
struct RouterStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t hedge_issued = 0;
  std::uint64_t hedge_won = 0;
  std::uint64_t partial_answers = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t retries = 0;
};

class FleetRouter {
 public:
  explicit FleetRouter(const RouterOptions& options);
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  // Synchronously probes every backend once (so the first request sees real
  // health) and starts the prober thread.
  void Start();
  void Stop();

  // Handles one request line; `done` receives exactly one response line.
  // Executes synchronously on the calling thread (the server's
  // per-connection reader), so pipelined requests on one connection
  // serialize — clients wanting fan-out open more connections.
  void Handle(const std::string& line, std::function<void(std::string)> done,
              std::chrono::steady_clock::time_point received_at);
  std::string HandleSync(const std::string& line);

  RouterStats stats() const;
  const Ring& ring() const { return ring_; }
  BackendPool& pool() { return pool_; }

 private:
  using Clock = std::chrono::steady_clock;

  // One request in flight to one shard. `conn` is null once the exchange
  // is settled (or its send failed); dropping an unsettled exchange closes
  // its connection, which is how a hedge race abandons the loser.
  struct Exchange {
    std::size_t shard = 0;
    std::unique_ptr<BackendConn> conn;
    Clock::time_point sent_at;
    // Keyed point ops feed the reply's latency to the hedge EWMA.
    bool keyed = false;
  };
  struct Reply {
    std::size_t index;  // which exchange of the awaited span replied
    std::string line;
  };
  enum class Outcome { kReplied, kSilent, kBroken };

  // Checks out a connection to `shard` and sends `line`. A transport error
  // settles the exchange as broken, and the result has no connection.
  Exchange Send(std::size_t shard, const std::string& line, bool keyed = false);
  // Polls the open exchanges of `flight` (at most two) for the first
  // complete reply line until `deadline`, settling the one that replies
  // and any that break. Exchanges still silent at the deadline are settled
  // as failed unless `expire` is false (the wait before a hedge). Returns
  // nullopt at the deadline or once no exchange is open.
  std::optional<Reply> AwaitFirst(std::span<Exchange> flight, Clock::time_point deadline,
                                  bool expire = true);
  // The failure rule. kReplied marks the shard alive and pools the
  // connection; kSilent marks it failed and closes the connection;
  // kBroken also drops the shard's idle connections.
  void Settle(Exchange& exchange, Outcome outcome);

  std::string Route(const serve::Request& request, const std::string& line);
  // Keyed compute op: owner-affine with failover and hedging.
  std::string ForwardCompute(std::uint32_t key_asn, const std::string& line);
  // Keyed store op: strict ownership; dead owner => `unavailable`.
  std::string ForwardStore(std::uint32_t key_asn, const std::string& line);
  // One keyed point request to `shard`; a `hedgeable` one is re-sent to
  // the next distinct live shard once `shard` outlasts its hedge delay.
  // Returns nullopt when no reply came (the shards have been settled).
  std::optional<std::string> RoundTrip(std::size_t shard, const std::string& line,
                                       std::uint32_t key_asn, bool hedgeable);
  std::string ScatterTop(const Json& id, const std::string& line);
  std::string FleetStatus(const Json& id);
  void ProbeShard(std::size_t shard);
  void ProbeLoop();

  RouterOptions options_;
  Ring ring_;
  BackendPool pool_;
  HedgePolicy hedge_;
  std::chrono::steady_clock::time_point start_time_;

  std::atomic<bool> stop_{false};
  std::thread prober_;
  std::mutex prober_mu_;
  std::condition_variable prober_cv_;
};

}  // namespace flatnet::fleet

#endif  // FLATNET_FLEET_ROUTER_H_
