// Adaptive request hedging: when to re-issue a slow request to a neighbor.
//
// The router keeps an exponentially-weighted moving average of each
// shard's observed response latency. A hedgeable request waits
// `kHedgeMultiplier × ewma(shard)` milliseconds (clamped to
// [kHedgeMinMs, kHedgeMaxMs]) for the primary before duplicating the
// request to the next distinct live shard on the ring; whichever response
// arrives first wins and the loser is abandoned. Before a shard's first
// observation the delay is kHedgeMaxMs — never hedge eagerly against a
// shard whose speed is unknown.
//
// The tail-at-scale tradeoff: a multiplier near the p50 duplicates half
// of all traffic; a multiplier of ~3 on the mean only duplicates genuine
// stragglers, which is where a fleet's p99 lives.
#ifndef FLATNET_FLEET_HEDGE_H_
#define FLATNET_FLEET_HEDGE_H_

#include <cstddef>
#include <mutex>
#include <vector>

namespace flatnet::fleet {

// Hedge after kHedgeMultiplier × the shard's EWMA latency, clamped to
// [kHedgeMinMs, kHedgeMaxMs] milliseconds.
inline constexpr double kHedgeMultiplier = 3.0;
inline constexpr double kHedgeMinMs = 2.0;
inline constexpr double kHedgeMaxMs = 250.0;
// EWMA smoothing factor in (0, 1]; higher tracks recent latency faster.
inline constexpr double kHedgeAlpha = 0.2;

class HedgePolicy {
 public:
  explicit HedgePolicy(std::size_t num_shards) : states_(num_shards) {}

  // Records one observed response latency for `shard`.
  void Observe(std::size_t shard, double latency_ms);

  // Milliseconds to wait for `shard` before issuing a hedge.
  double DelayMsFor(std::size_t shard) const;

  // The current EWMA for `shard`; 0 before the first observation.
  double EwmaMsOf(std::size_t shard) const;

 private:
  struct State {
    bool seen = false;
    double ewma_ms = 0.0;
  };

  mutable std::mutex mu_;
  std::vector<State> states_;
};

}  // namespace flatnet::fleet

#endif  // FLATNET_FLEET_HEDGE_H_
