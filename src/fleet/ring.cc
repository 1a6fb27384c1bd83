#include "fleet/ring.h"

#include <algorithm>

#include "util/error.h"
#include "util/strings.h"

namespace flatnet::fleet {

Ring::Ring(std::size_t num_shards) : num_shards_(num_shards) {
  if (num_shards == 0) throw InvalidArgument("ring: num_shards must be positive");
  points_.reserve(num_shards * kVnodes);
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    for (std::size_t replica = 0; replica < kVnodes; ++replica) {
      // Vnode keys live in [2^32, ...) of the input space (shard+1 shifted
      // up), ASN keys in [0, 2^32): no systematic input collisions.
      std::uint64_t key = (static_cast<std::uint64_t>(shard + 1) << 32) |
                          static_cast<std::uint64_t>(replica);
      points_.push_back(Vnode{Mix64(key), static_cast<std::uint32_t>(shard)});
    }
  }
  std::sort(points_.begin(), points_.end(), [](const Vnode& a, const Vnode& b) {
    if (a.point != b.point) return a.point < b.point;
    return a.shard < b.shard;
  });
  // A point collision would make ownership depend on tie-break order only;
  // the deterministic (point, shard) sort above keeps even that stable.
}

std::size_t Ring::FirstIndexAtOrAfter(std::uint64_t h) const {
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Vnode& v, std::uint64_t value) { return v.point < value; });
  if (it == points_.end()) return 0;  // wrap past the top of the hash space
  return static_cast<std::size_t>(it - points_.begin());
}

std::size_t Ring::Owner(std::uint32_t asn) const {
  return points_[FirstIndexAtOrAfter(Mix64(asn))].shard;
}

std::size_t Ring::FirstLive(std::uint32_t asn, const std::vector<bool>& alive) const {
  std::size_t start = FirstIndexAtOrAfter(Mix64(asn));
  for (std::size_t step = 0; step < points_.size(); ++step) {
    const Vnode& v = points_[(start + step) % points_.size()];
    if (alive[v.shard]) return v.shard;
  }
  return npos;
}

std::size_t Ring::NextLiveDistinct(std::uint32_t asn, std::size_t exclude,
                                   const std::vector<bool>& alive) const {
  std::size_t start = FirstIndexAtOrAfter(Mix64(asn));
  for (std::size_t step = 0; step < points_.size(); ++step) {
    const Vnode& v = points_[(start + step) % points_.size()];
    if (v.shard != exclude && alive[v.shard]) return v.shard;
  }
  return npos;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Ring::RangesOf(
    std::size_t shard) const {
  if (shard >= num_shards_) {
    throw InvalidArgument(StrFormat("ring: shard %zu out of range (%zu shards)", shard,
                                    num_shards_));
  }
  // Vnode i owns (points_[i-1].point, points_[i].point]; the first vnode
  // additionally owns the wrap [0, points_[0].point] ∪ (points_.back(), 2^64).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].shard != shard) continue;
    if (i == 0) {
      ranges.emplace_back(0, points_[0].point);
      if (points_.back().point != ~0ULL) {
        ranges.emplace_back(points_.back().point + 1, ~0ULL);
      }
    } else {
      if (points_[i - 1].point == points_[i].point) continue;  // collided vnode
      ranges.emplace_back(points_[i - 1].point + 1, points_[i].point);
    }
  }
  std::sort(ranges.begin(), ranges.end());
  // Coalesce adjacent intervals so the advertisement is minimal.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
  for (const auto& r : ranges) {
    if (!merged.empty() && merged.back().second != ~0ULL &&
        merged.back().second + 1 == r.first) {
      merged.back().second = r.second;
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

}  // namespace flatnet::fleet
