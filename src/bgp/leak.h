// Route-leak / prefix-hijack simulation (§8).
//
// A victim announces its prefix (optionally to a restricted neighbor set);
// a misconfigured AS leaks the same prefix by re-exporting its learned
// route to *all* neighbors. Both announcements compete under Gao-Rexford
// selection with unbroken ties; an AS is "detoured" when any of its
// tied-best routes leads to the leaker — the paper's worst-case convention.
//
// Leak model: the leaked route carries the leaker's legitimate AS path, so
// it enters the competition with base length = the leaker's best path
// length to the victim (computed from a victim-only propagation). Setting
// LeakModel::kOriginate instead models an origination hijack (base 0).
//
// Peer locking follows the erratum: a locking AS accepts the victim's
// prefix only directly from the victim, so leaked routes can never pass
// through a locking AS regardless of who re-announced them.
#ifndef FLATNET_BGP_LEAK_H_
#define FLATNET_BGP_LEAK_H_

#include <memory>
#include <optional>
#include <vector>

#include "asgraph/as_graph.h"
#include "bgp/policy.h"
#include "bgp/propagation.h"
#include "util/bitset.h"
#include "util/names.h"

namespace flatnet {

enum class LeakModel {
  kReannounce,  // leaked route competes with the leaker's real path length
  kOriginate,   // hijack: leaker originates the prefix (length 0)
};

// The serve protocol's `model` spellings.
inline constexpr NameTable<LeakModel, 2> kLeakModelNames{{"reannounce", "originate"}};
inline const char* ToString(LeakModel model) { return kLeakModelNames.Name(model); }

struct LeakConfig {
  // Neighbors the victim announces to; nullopt = all neighbors.
  std::optional<Bitset> victim_export;
  // ASes deploying peer locking for the victim's prefixes; empty = none.
  std::optional<Bitset> peer_locked;
  // kFull = erratum semantics; kDirectOnly reproduces the original paper's
  // (under-)filtering for the ablation study.
  PeerLockMode lock_mode = PeerLockMode::kFull;
  LeakModel model = LeakModel::kReannounce;
  // Polled between propagation phases (see PropagationOptions::cancel);
  // must outlive the experiment when set.
  const CancelToken* cancel = nullptr;
  // Per-request phase timeline forwarded to the joint propagation (see
  // PropagationOptions::trace); null records nothing. Must outlive the
  // experiment when set.
  obs::RequestTrace* trace = nullptr;
};

struct LeakOutcome {
  AsId leaker = kInvalidAsId;
  // ASes whose tied-best set contains a leaked route, / (N - 2).
  double fraction_ases_detoured = 0.0;
  // Same, weighted by per-AS user population (0 when no weights given).
  double fraction_users_detoured = 0.0;
  std::size_t detoured_count = 0;
};

// Reusable per-thread scratch for repeated LeakExperiment::Run calls: the
// joint two-source propagation is recomputed in place instead of being
// reallocated per trial. Results are identical to the workspace-free
// overload; the campaign engine gives each worker thread one workspace.
class LeakWorkspace {
 public:
  LeakWorkspace() = default;

 private:
  friend class LeakExperiment;
  std::unique_ptr<RouteComputation> joint_;
  Bitset leaker_mask_;
};

// Precomputes the victim-only propagation for one (victim, config) pair and
// then evaluates leaks from arbitrary leakers against it.
class LeakExperiment {
 public:
  // `users`, when non-null, must have one entry per AS and enables the
  // user-weighted detour fraction. The pointer must outlive the experiment.
  LeakExperiment(const AsGraph& graph, AsId victim, LeakConfig config,
                 const std::vector<double>* users = nullptr);

  // Simulates a leak by `leaker`. Returns nullopt when the leaker equals
  // the victim or (in kReannounce mode) holds no route to the victim —
  // there is nothing to leak; callers should resample another leaker.
  std::optional<LeakOutcome> Run(AsId leaker) const;

  // Same, reusing `workspace` for the joint propagation state. Safe to
  // call concurrently from multiple threads with distinct workspaces (the
  // experiment itself is only read).
  std::optional<LeakOutcome> Run(AsId leaker, LeakWorkspace& workspace) const;

  // True exactly when Run(leaker) would return a value: the leaker is not
  // the victim and (under kReannounce) holds a baseline route. Used to
  // pre-draw trial assignments without paying for a propagation per
  // rejected draw.
  bool CanLeak(AsId leaker) const;

  // The victim-only computation (useful for diagnostics).
  const RouteComputation& baseline() const { return *baseline_; }

 private:
  const AsGraph& graph_;
  AsId victim_;
  LeakConfig config_;
  const std::vector<double>* users_;
  double total_users_ = 0.0;
  std::unique_ptr<RouteComputation> baseline_;
};

}  // namespace flatnet

#endif  // FLATNET_BGP_LEAK_H_
