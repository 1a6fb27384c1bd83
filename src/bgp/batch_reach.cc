#include "bgp/batch_reach.h"

#include <algorithm>
#include <bit>

#include "obs/metrics.h"
#include "util/error.h"

namespace flatnet {
namespace {

// Batches are the sweep's unit of work, so they get their own counters:
// a batch is neither one compute nor 64 of them.
struct BatchCounters {
  obs::Counter& passes = obs::GetCounter("reachability.batch.passes");
  obs::Counter& lanes = obs::GetCounter("reachability.batch.lanes");
  obs::Counter& nodes_reached = obs::GetCounter("reachability.batch.nodes_reached");
};

BatchCounters& Counters() {
  static BatchCounters counters;
  return counters;
}

// Ranks the lane counter consumes per block.
constexpr std::size_t kBlock = 16;

// Carry-save adder: (high, low) = a + b + c, bitwise.
inline void Csa(std::uint64_t& high, std::uint64_t& low, std::uint64_t a, std::uint64_t b,
                std::uint64_t c) {
  std::uint64_t u = a ^ b;
  high = (a & b) | (u & c);
  low = u ^ c;
}

// Per-lane population counts of `count` words (a multiple of kBlock)
// read `stride` apart: a positional popcount. Harley–Seal carry-save
// adders fold each block of 16 words into running ones/twos/fours/eights
// words and one "sixteens" word, which a bit-sliced counter of fixed
// depth accumulates (a fixed depth keeps the carry loop's exit
// predictable). Writes the counts of lanes [0, lanes) to `out`.
void CountLanesOf(const std::uint64_t* words, std::size_t stride, std::size_t count,
                  std::size_t lanes, std::uint32_t* out) {
  std::uint64_t ones = 0;
  std::uint64_t twos = 0;
  std::uint64_t fours = 0;
  std::uint64_t eights = 0;
  std::array<std::uint64_t, 32> sixteens_sliced{};
  const auto depth = static_cast<std::size_t>(std::bit_width(count / kBlock));
  for (std::size_t at = 0; at < count; at += kBlock) {
    auto word = [&](std::size_t i) { return words[(at + i) * stride]; };
    std::uint64_t twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
    Csa(twos_a, ones, ones, word(0), word(1));
    Csa(twos_b, ones, ones, word(2), word(3));
    Csa(fours_a, twos, twos, twos_a, twos_b);
    Csa(twos_a, ones, ones, word(4), word(5));
    Csa(twos_b, ones, ones, word(6), word(7));
    Csa(fours_b, twos, twos, twos_a, twos_b);
    Csa(eights_a, fours, fours, fours_a, fours_b);
    Csa(twos_a, ones, ones, word(8), word(9));
    Csa(twos_b, ones, ones, word(10), word(11));
    Csa(fours_a, twos, twos, twos_a, twos_b);
    Csa(twos_a, ones, ones, word(12), word(13));
    Csa(twos_b, ones, ones, word(14), word(15));
    Csa(fours_b, twos, twos, twos_a, twos_b);
    Csa(eights_b, fours, fours, fours_a, fours_b);
    Csa(sixteens, eights, eights, eights_a, eights_b);
    for (std::size_t k = 0; k < depth; ++k) {
      std::uint64_t carry = sixteens_sliced[k] & sixteens;
      sixteens_sliced[k] ^= sixteens;
      sixteens = carry;
    }
  }
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    auto bit = [&](std::uint64_t w) { return (w >> lane) & 1; };
    std::uint64_t total = bit(ones) + (bit(twos) << 1) + (bit(fours) << 2) + (bit(eights) << 3);
    for (std::size_t k = 0; k < depth; ++k) total += bit(sixteens_sliced[k]) << (k + 4);
    out[lane] = static_cast<std::uint32_t>(total);  // at most the rank count, a u32
  }
}

}  // namespace

BatchReachLayout::BatchReachLayout(const AsGraph& graph, const Bitset& base1,
                                   const Bitset& base2)
    : graph_(graph) {
  std::size_t n = graph.num_ases();
  if (base1.size() != n || base2.size() != n) {
    throw InvalidArgument("BatchReachLayout: baseline masks must be sized to the graph");
  }
  // Kahn's algorithm over provider→customer edges: a node is ranked once
  // every provider is, so one in-order pass sees each provider's final
  // words before the node's own.
  std::vector<std::uint32_t> pending(n);
  std::vector<std::uint32_t> depth(n, 0);  // longest provider chain above the node
  id_at_.reserve(n);
  for (AsId id = 0; id < n; ++id) {
    pending[id] = static_cast<std::uint32_t>(graph.ProviderIds(id).size());
    if (pending[id] == 0) id_at_.push_back(id);
  }
  for (std::size_t head = 0; head < id_at_.size(); ++head) {
    AsId id = id_at_[head];
    for (AsId customer : graph.CustomerIds(id)) {
      depth[customer] = std::max(depth[customer], depth[id] + 1);
      if (--pending[customer] == 0) id_at_.push_back(customer);
    }
  }
  ordered_ = id_at_.size();
  // Providers sit strictly shallower than their customers, so ordering by
  // depth stays topological. Within a depth, grouping nodes by provider
  // count makes the pass's inner loop run the same trip count for long
  // stretches, which the branch predictor rewards. The sort key reuses
  // `depth`: depth above bit 8, the provider count (capped) below.
  for (AsId id : id_at_) {
    depth[id] = depth[id] << 8 | std::min<std::uint32_t>(graph.ProviderIds(id).size(), 255);
  }
  auto shallower = [&](AsId a, AsId b) { return depth[a] < depth[b]; };
  std::stable_sort(id_at_.begin(), id_at_.end(), shallower);
  for (AsId id = 0; id < n; ++id) {
    if (pending[id] != 0) id_at_.push_back(id);
  }

  rank_of_.resize(n);
  for (std::size_t r = 0; r < n; ++r) rank_of_[id_at_[r]] = static_cast<std::uint32_t>(r);
  first_provider_.reserve(n + 1);
  baseline_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    AsId id = id_at_[r];
    first_provider_.push_back(static_cast<std::uint32_t>(provider_ranks_.size()));
    for (AsId provider : graph.ProviderIds(id)) provider_ranks_.push_back(rank_of_[provider]);
    baseline_[r] = static_cast<std::uint8_t>(base1.Test(id) | base2.Test(id) << 1);
  }
  first_provider_.push_back(static_cast<std::uint32_t>(provider_ranks_.size()));
}

BatchReachEngine::BatchReachEngine(const BatchReachLayout& layout)
    : layout_(layout),
      words_((layout.num_ases() + kBlock - 1) / kBlock * kBlock * kBatchColumns, 0),
      patch_(layout.num_ases()) {}

template <bool kTrackChange>
bool BatchReachEngine::Pass(std::size_t begin, std::size_t end) {
  const std::uint32_t* first = layout_.first_provider_.data();
  const std::uint32_t* providers = layout_.provider_ranks_.data();
  const std::uint8_t* baseline = layout_.baseline_.data();
  const Patch* patch = patch_.data();
  std::uint64_t* words = words_.data();
  bool changed = false;
  for (std::size_t r = begin; r < end; ++r) {
    const Patch& p = patch[r];
    std::uint64_t w0 = p.seed;
    std::uint64_t w1 = p.seed;
    std::uint64_t w2 = p.seed;
    for (std::uint32_t i = first[r]; i < first[r + 1]; ++i) {
      const std::uint64_t* from = words + std::size_t{providers[i]} * kBatchColumns;
      w0 |= from[0];
      w1 |= from[1];
      w2 |= from[2];
    }
    // A baseline member keeps no lane but its own origin's: the mask is 0
    // when the member bit is set, all ones otherwise.
    std::uint64_t keep = ~p.deny;
    std::uint64_t keep1 = keep & (std::uint64_t{baseline[r] & 1u} - 1);
    std::uint64_t keep2 = keep & (std::uint64_t{(baseline[r] >> 1) & 1u} - 1);
    w0 = (w0 & keep) | p.self;
    w1 = (w1 & keep1) | p.self;
    w2 = (w2 & keep2) | p.self;
    std::uint64_t* to = words + r * kBatchColumns;
    if constexpr (kTrackChange) changed |= ((w0 ^ to[0]) | (w1 ^ to[1]) | (w2 ^ to[2])) != 0;
    to[0] = w0;
    to[1] = w1;
    to[2] = w2;
  }
  return changed;
}

void BatchReachEngine::CountLanes(std::size_t lanes) {
  std::uint64_t reached = 0;
  for (std::size_t c = 0; c < kBatchColumns; ++c) {
    counts_[c].fill(0);
    CountLanesOf(words_.data() + c, kBatchColumns, words_.size() / kBatchColumns, lanes,
                 counts_[c].data());
    // Every live lane holds its own origin; destinations exclude it.
    for (std::size_t lane = 0; lane < lanes; ++lane) reached += --counts_[c][lane];
  }
  Counters().nodes_reached.Increment(reached);
}

void BatchReachEngine::Run(std::span<const AsId> origins) {
  std::size_t n = layout_.num_ases();
  if (origins.empty() || origins.size() > kBatchLanes) {
    throw InvalidArgument("BatchReachEngine: a batch holds 1 to 64 origins");
  }
  for (AsId origin : origins) {
    if (origin >= n) throw InvalidArgument("BatchReachEngine: origin out of range");
  }

  const AsGraph& graph = layout_.graph();
  const std::uint32_t* rank_of = layout_.rank_of_.data();
  for (std::size_t lane = 0; lane < origins.size(); ++lane) {
    std::uint64_t bit = std::uint64_t{1} << lane;
    AsId origin = origins[lane];
    Touch(rank_of[origin]).self |= bit;
    for (AsId provider : graph.ProviderIds(origin)) Touch(rank_of[provider]).deny |= bit;
    for (AsId peer : graph.PeerIds(origin)) Touch(rank_of[peer]).seed |= bit;
  }

  // The ordered prefix is exact after one pass: each rank's providers come
  // before it. The cyclic tail starts from zero and repeats to a fixpoint.
  std::size_t ordered = layout_.ordered_;
  std::fill(words_.data() + ordered * kBatchColumns, words_.data() + n * kBatchColumns, 0);
  Pass<false>(0, n);
  std::uint64_t passes = 1;
  if (ordered < n) {
    bool changed = true;
    while (changed) {
      changed = Pass<true>(ordered, n);
      ++passes;
    }
  }
  CountLanes(origins.size());

  for (std::uint32_t rank : touched_) patch_[rank] = Patch{};
  touched_.clear();
  Counters().passes.Increment(passes);
  Counters().lanes.Increment(origins.size());
}

Bitset BatchReachEngine::ReachedSet(std::size_t column, std::size_t lane) const {
  std::size_t n = layout_.num_ases();
  Bitset reached(n);
  for (std::size_t r = 0; r < n; ++r) {
    if ((words_[r * kBatchColumns + column] >> lane) & 1) reached.Set(layout_.id_at_[r]);
  }
  return reached;
}

}  // namespace flatnet
