// Differential-testing oracle for the BGP kernels.
//
// The repo carries three independent implementations of single-prefix
// Gao-Rexford propagation: the phase engine (RouteComputation), the
// two-state BFS (ReachabilityEngine), and the message-level simulator
// (EventBgpEngine). On any common configuration their outcomes must agree
// exactly — reached sets, per-node route class, and path lengths — so a
// randomized sweep over (topology, origin, excluded set, peer-lock config)
// tuples is a nearly-free correctness oracle for all of them at once.
// Cases without peer locking also fail 1–4 random links (drawn from the
// same case seed) and hold the BFS's link filter to the phase engine run
// on the graph rebuilt without those links.
// RunDiffCase executes one such tuple and reports the first divergence;
// RunBatchReachCase holds the sweep's bit-parallel kernel to the BFS;
// tools/flatnet_diffcheck drives both at fuzz scale and logs reproducers.
#ifndef FLATNET_CHECK_DIFF_H_
#define FLATNET_CHECK_DIFF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "asgraph/as_graph.h"
#include "bgp/policy.h"

namespace flatnet::check {

// Which defensive-filtering setup a case exercises.
enum class LockSetup : std::uint8_t {
  kNone,        // plain propagation (reachability oracle applies too)
  kFull,        // erratum peer locking
  kDirectOnly,  // pre-erratum peer locking
};

const char* ToString(LockSetup setup);
std::optional<LockSetup> ParseLockSetup(std::string_view text);

// One oracle case. All randomness (origin, excluded set, locked set,
// filtered senders) derives from `case_seed`, so (graph, config) replays a
// divergence exactly.
struct DiffCaseConfig {
  std::uint64_t case_seed = 1;
  // Random non-origin ASes removed from the subgraph (reach(o, I \ X)).
  std::size_t excluded_count = 0;
  LockSetup lock = LockSetup::kNone;
  std::size_t locked_count = 0;           // peer-locking ASes when lock != kNone
  std::size_t filtered_sender_count = 1;  // kDirectOnly: refused senders
};

struct DiffReport {
  bool ok = true;
  // Which oracle diverged (e.g. "event.class", "reachability.set",
  // "invariant") — empty when ok.
  std::string oracle;
  // First AS where the divergence shows, kInvalidAsId when not applicable.
  AsId first_mismatch = kInvalidAsId;
  Asn first_mismatch_asn = 0;
  std::string detail;

  // One-line human-readable summary of the failure ("ok" when ok).
  std::string Summary() const;
};

// Runs all applicable engines plus the structural invariants on one
// configuration. Deterministic in (graph, config).
DiffReport RunDiffCase(const AsGraph& graph, const DiffCaseConfig& config);

// One batch of the sweep's kernel (bgp/batch_reach.h): up to 64 origins
// and two random baseline sets B1, B2, all drawn from `case_seed`. Every
// lane's reached set in column c must be bit-equal to
// ReachabilityEngine::ComputeInto under (B_c ∪ P(o)) \ {o}, with B_0 = ∅,
// and its count must match. Deterministic in (graph, case_seed).
DiffReport RunBatchReachCase(const AsGraph& graph, std::uint64_t case_seed);

}  // namespace flatnet::check

#endif  // FLATNET_CHECK_DIFF_H_
