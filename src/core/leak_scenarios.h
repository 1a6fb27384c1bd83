// §8's route-leak scenario matrix (with the erratum's peer-locking
// semantics): announcement configurations × peer-locking deployments,
// evaluated over randomly drawn misconfigured ASes.
#ifndef FLATNET_CORE_LEAK_SCENARIOS_H_
#define FLATNET_CORE_LEAK_SCENARIOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/leak.h"
#include "bgp/policy.h"
#include "core/internet.h"
#include "util/names.h"
#include "util/rng.h"

namespace flatnet {

enum class LeakScenario {
  kAnnounceAll,             // victim announces to every neighbor
  kAnnounceAllLockT1,       // + Tier-1 neighbors deploy peer locking
  kAnnounceAllLockT1T2,     // + Tier-1 and Tier-2 neighbors lock
  kAnnounceAllLockGlobal,   // + all neighbors lock
  kAnnounceHierarchyOnly,   // victim announces only to T1s, T2s, providers
};

inline constexpr std::size_t kNumLeakScenarios = 5;

// A display name, for tables and logs.
const char* ToString(LeakScenario scenario);

// The short slugs: flatnet_leaksim's --lock values (the first four) and
// the serve protocol's leakdist `scenario`.
inline constexpr NameTable<LeakScenario, kNumLeakScenarios> kLeakScenarioSlugs{
    {"none", "t1", "t1t2", "global", "hierarchy"}};

// Builds the LeakConfig for one (victim, scenario) cell: the victim's
// export restriction and/or the locking neighbor set, per the scenario
// matrix above. Shared by RunLeakScenario and the parallel campaign
// engine (src/leaksim/) so both evaluate identical configurations.
LeakConfig LeakConfigForScenario(const Internet& internet, AsId victim, LeakScenario scenario,
                                 PeerLockMode lock_mode = PeerLockMode::kFull);

struct LeakTrialSeries {
  LeakScenario scenario = LeakScenario::kAnnounceAll;
  // Trial accounting: `trials_requested` is what the caller asked for;
  // `attempts` counts every leaker draw (accepted + rejected). When the
  // attempt budget runs out before enough valid leakers are found the
  // series is shorter than requested — callers should check
  // UnderCollected() instead of assuming the full count.
  std::size_t trials_requested = 0;
  std::size_t attempts = 0;
  std::vector<double> fraction_ases_detoured;   // one entry per trial
  std::vector<double> fraction_users_detoured;  // filled when users given

  std::size_t collected() const { return fraction_ases_detoured.size(); }
  bool UnderCollected() const { return collected() < trials_requested; }
};

// The rejection-sampled leaker assignments for one cell: `leakers` holds
// up to `trials` ASes that pass LeakExperiment::CanLeak, in draw order;
// `attempts` counts every draw consumed from `rng`.
struct LeakDraw {
  std::vector<AsId> leakers;
  std::size_t attempts = 0;
};

// Replicates the serial draw loop without evaluating any leak: draws
// uniform leakers from `rng` until `trials` pass experiment.CanLeak or
// the attempt budget (trials * 20 + 100) is exhausted. Because evaluating
// a leak consumes no randomness, draw-then-evaluate yields exactly the
// same trials as the historical interleaved loop — this is the serial
// pre-draw phase the parallel campaign engine builds on.
LeakDraw DrawLeakers(const LeakExperiment& experiment, std::size_t num_ases,
                     std::size_t trials, Rng& rng);

// Runs `trials` leak simulations against `victim` under `scenario`,
// choosing the misconfigured AS uniformly at random (re-drawing when the
// leaker holds no route). `users`, when non-null, enables the Fig 9
// population weighting.
LeakTrialSeries RunLeakScenario(const Internet& internet, AsId victim, LeakScenario scenario,
                                std::size_t trials, std::uint64_t seed,
                                const std::vector<double>* users = nullptr,
                                PeerLockMode lock_mode = PeerLockMode::kFull);

// Fig 7/8's "average resilience" baseline: distinct random victims (drawn
// without replacement), each leaked by random misconfigured ASes with
// announce-to-all. Per-victim collection counts are surfaced so a victim
// whose draws never validate is visible instead of silently contributing
// zero trials.
struct BaselineVictimStats {
  AsId victim = 0;
  std::size_t requested = 0;
  std::size_t collected = 0;
  std::size_t attempts = 0;
};

struct BaselineResult {
  std::vector<double> fractions;  // all victims' trials, concatenated
  std::vector<BaselineVictimStats> per_victim;
};

BaselineResult AverageResilienceBaseline(const Internet& internet, std::size_t victims,
                                         std::size_t leakers_per_victim, std::uint64_t seed);

}  // namespace flatnet

#endif  // FLATNET_CORE_LEAK_SCENARIOS_H_
