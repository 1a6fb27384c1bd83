// Shared routing-policy vocabulary for the propagation engine.
//
// The model is Gao-Rexford: an AS prefers customer-learned routes over
// peer-learned over provider-learned, breaks the remaining tie on AS-path
// length, and keeps *all* routes tied for best (the paper propagates ties
// without breaking them). Export follows valley-free rules: routes learned
// from customers (and own prefixes) are exported to everyone; routes
// learned from peers or providers are exported only to customers.
#ifndef FLATNET_BGP_POLICY_H_
#define FLATNET_BGP_POLICY_H_

#include <cstdint>
#include <optional>

#include "asgraph/as_graph.h"
#include "util/bitset.h"
#include "util/cancel.h"
#include "util/names.h"

namespace flatnet::obs {
class RequestTrace;
}  // namespace flatnet::obs

namespace flatnet {

// Route preference classes, most preferred first. kOrigin marks the
// announcing AS itself.
enum class RouteClass : std::uint8_t {
  kOrigin = 0,
  kCustomer = 1,
  kPeer = 2,
  kProvider = 3,
  kNone = 4,
};

const char* ToString(RouteClass cls);

// AS-path length in AS hops from the origin (origin itself = 0).
using PathLength = std::uint16_t;
inline constexpr PathLength kInfLength = 0xffff;

// One announcement entering the propagation. base_length > 0 models a route
// *leak*: the leaker re-announces a route it learned over a path of that
// length, so its export competes as if it were base_length hops from the
// true origin.
struct AnnouncementSource {
  AsId node = kInvalidAsId;
  PathLength base_length = 0;
  // When set, only these direct neighbors receive the announcement (e.g.
  // "announce only to Tier-1s, Tier-2s, and providers"). Unset = all
  // neighbors.
  std::optional<Bitset> allowed_neighbors;
};

// Peer-locking semantics. The IMC paper's original results filtered leaked
// routes only on sessions *directly* with the misconfigured AS; the
// published erratum corrects this — a locking AS must discard the
// protected prefix from every neighbor except the protected origin, so a
// leak can never transit a locking AS even after laundering through a
// non-locking intermediary. Both modes are implemented so the erratum's
// effect is measurable (see bench_ablation_peerlock).
enum class PeerLockMode : std::uint8_t {
  kFull,        // erratum semantics (default)
  kDirectOnly,  // pre-erratum: only direct announcements are filtered
};

// The serve protocol's `lock_mode` spellings.
inline constexpr NameTable<PeerLockMode, 2> kPeerLockModeNames{{"full", "direct_only"}};
inline const char* ToString(PeerLockMode mode) { return kPeerLockModeNames.Name(mode); }

// Subgraph restriction and defensive filtering applied during propagation.
struct PropagationOptions {
  // Nodes removed from the subgraph: they neither receive nor forward
  // (implements reach(o, I \ X)).
  const Bitset* excluded = nullptr;

  // Peer locking (NTT-style): a locked AS accepts routes for the protected
  // prefix only when received directly from `protected_origin` (kFull), or
  // merely refuses announcements arriving straight from ASes in
  // `lock_filtered_senders` (kDirectOnly — the pre-erratum behaviour).
  const Bitset* peer_locked = nullptr;
  AsId protected_origin = kInvalidAsId;
  PeerLockMode lock_mode = PeerLockMode::kFull;
  // kDirectOnly: the senders a locking AS refuses (the leakers).
  const Bitset* lock_filtered_senders = nullptr;

  // When set, the propagation engines poll this token at phase boundaries
  // and abandon the computation with CancelledError once it expires —
  // request deadlines and shutdown drains in long-lived services (serve/)
  // ride on this.
  const CancelToken* cancel = nullptr;

  // When set, the phase engine marks each propagation phase
  // ("propagation.customer" / ".peer" / ".provider") on this per-request
  // timeline (obs/reqtrace.h) so serve responses can attribute latency to
  // individual phases. Null (the default) records nothing and costs one
  // branch per phase. Must outlive the computation.
  obs::RequestTrace* trace = nullptr;
};

// True when `receiver` must discard an announcement arriving from `sender`
// under `options` (exclusion or peer-lock filter). This predicate is the
// single definition of the filtering semantics: both the phase engine
// (propagation.cc) and the message-level engine (event_engine.cc) apply it
// edge-by-edge, so the differential oracle in src/check compares the two
// *propagation* implementations rather than two copies of this test.
inline bool IsEdgeFiltered(const PropagationOptions& options, AsId receiver, AsId sender) {
  if (options.excluded != nullptr && options.excluded->Test(receiver)) return true;
  if (options.peer_locked != nullptr && options.peer_locked->Test(receiver)) {
    if (options.lock_mode == PeerLockMode::kFull) {
      return sender != options.protected_origin;
    }
    // Pre-erratum: the lock only drops announcements arriving directly from
    // a filtered sender (the misconfigured AS); relayed copies slip through.
    return options.lock_filtered_senders != nullptr &&
           options.lock_filtered_senders->Test(sender);
  }
  return false;
}

}  // namespace flatnet

#endif  // FLATNET_BGP_POLICY_H_
