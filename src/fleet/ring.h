// Consistent-hash ring over the origin ASN space.
//
// The fleet partitions origins across N backend shards with a hash that is
// a pure function of the shard count: the frontend router builds a ring to
// route queries, and a sharded flatnet_serve builds the identical ring to
// decide which slice of a columnar store it owns — ownership agrees across
// processes with no coordination and no shared state. Each shard
// contributes kVnodes points mixed from (shard, replica); an ASN belongs
// to the shard of the first point at or clockwise-after its hash. Nothing
// sets the vnode count, so no two fleet members can disagree on it.
// A lookup is one binary search; failover and hedging walk clockwise to
// the next live (or next distinct live) shard, which is exactly the shard
// that inherits the range when the owner leaves the ring.
//
// std::hash is deliberately not used anywhere: its value for a given key
// is unspecified and may differ between processes or standard libraries,
// which would silently break the cross-process ownership agreement. Mix64
// (the SplitMix64 finalizer) is fixed by this header.
#ifndef FLATNET_FLEET_RING_H_
#define FLATNET_FLEET_RING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace flatnet::fleet {

inline constexpr std::size_t kVnodes = 64;

// SplitMix64 finalizer: deterministic, well mixed, stable across builds,
// platforms, and processes.
constexpr std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Ring {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Throws InvalidArgument when num_shards is zero.
  explicit Ring(std::size_t num_shards);

  std::size_t num_shards() const { return num_shards_; }

  // The shard that owns `asn` when every shard is alive.
  std::size_t Owner(std::uint32_t asn) const;

  // The first live shard at or clockwise-after the ASN's hash point — the
  // owner when it is alive, otherwise the shard that inherits the range.
  // `alive` must have num_shards() entries. Returns npos when every shard
  // is dead.
  std::size_t FirstLive(std::uint32_t asn, const std::vector<bool>& alive) const;

  // The next live shard clockwise that is distinct from `exclude` — the
  // hedge / failover target for a request already sent to `exclude`.
  // Returns npos when no other live shard exists.
  std::size_t NextLiveDistinct(std::uint32_t asn, std::size_t exclude,
                               const std::vector<bool>& alive) const;

  // The inclusive hash-space intervals owned by `shard`, ascending and
  // non-overlapping (a wrapping interval is split at the 2^64 boundary).
  // Shards advertise these in `status`; the router reports a dead shard's
  // ranges as `missing_origin_ranges` on partial answers.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> RangesOf(std::size_t shard) const;

 private:
  struct Vnode {
    std::uint64_t point;
    std::uint32_t shard;
  };

  // Index into points_ of the first vnode at or after `h` (wrapping).
  std::size_t FirstIndexAtOrAfter(std::uint64_t h) const;

  std::size_t num_shards_;
  std::vector<Vnode> points_;  // sorted by point ascending
};

}  // namespace flatnet::fleet

#endif  // FLATNET_FLEET_RING_H_
