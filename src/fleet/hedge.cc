#include "fleet/hedge.h"

#include <algorithm>

namespace flatnet::fleet {

void HedgePolicy::Observe(std::size_t shard, double latency_ms) {
  if (latency_ms < 0.0) latency_ms = 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  State& state = states_[shard];
  if (!state.seen) {
    state.seen = true;
    state.ewma_ms = latency_ms;
  } else {
    state.ewma_ms += kHedgeAlpha * (latency_ms - state.ewma_ms);
  }
}

double HedgePolicy::DelayMsFor(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const State& state = states_[shard];
  if (!state.seen) return kHedgeMaxMs;
  return std::clamp(kHedgeMultiplier * state.ewma_ms, kHedgeMinMs, kHedgeMaxMs);
}

double HedgePolicy::EwmaMsOf(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_[shard].ewma_ms;
}

}  // namespace flatnet::fleet
