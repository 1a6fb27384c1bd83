// Deterministic parallel failure-cascade campaign engine.
//
// A campaign is a list of cells (src/failsim/store.h); each cell's
// knockout sets are pre-drawn SERIALLY from the cell's seed — the random
// single-AS ablations and link draws replay a fixed Rng stream, the
// Tier-1 permutation comes from the same stream, and the hegemony
// cascade order is the deterministic ranking of bgp/hegemony.h on the
// intact graph. Only the evaluation of the drawn trials is parallel:
// chunks of the concatenated trial space run through campaign::RunChunks
// (campaign/runner.h), each worker holding a ReachabilityEngine plus
// knockout/reach scratch bitsets. Every trial runs on the one intact
// graph: AS knockouts as the engine's exclusion mask, link_set trials as
// its failed-link filter (the drawn EdgeList() indices are resolved to
// AsId pairs during the pre-draw). Every trial writes into its
// pre-assigned slot, so the resulting table — and the store serialized
// from it — is byte-identical at any thread count, any chunk size, and
// after a kill + resume. The journal is keyed on the campaign fingerprint,
// so resuming against different inputs is loud.
//
// Instrumented with src/obs/: failsim.chunks_completed / chunks_resumed /
// checkpoint_writes / trials_evaluated counters, a failsim.trials_per_sec
// gauge, and failsim.run / failsim.prepare / failsim.chunk trace spans.
#ifndef FLATNET_FAILSIM_ENGINE_H_
#define FLATNET_FAILSIM_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "core/internet.h"
#include "failsim/store.h"

namespace flatnet::failsim {

struct FailCampaignOptions : campaign::RunOptions {
  // Trials per chunk — the unit of claiming and of checkpointing. Every
  // trial is one reachability BFS on the intact graph, lighter than a
  // leak trial, but the default stays at 16: the journal header records
  // the chunk size, so a new default would refuse to resume journals
  // written under the old one, and 16 BFS runs still checkpoint every few
  // tens of milliseconds per worker at 100k ASes.
  std::uint32_t chunk_trials = 16;
  // Per-AS user weights (one entry per AS); non-null enables the
  // user-weighted loss column in every cell. Must outlive the run.
  const std::vector<double>* users = nullptr;
  // Viewpoint-trimming fraction for kHegemonyCascade rankings (each end).
  double hegemony_trim = 0.1;
};

struct FailCampaignStats {
  std::size_t chunks_total = 0;
  std::size_t chunks_resumed = 0;   // restored from the journal
  std::size_t chunks_computed = 0;  // computed by this run
  std::size_t trials_evaluated = 0;
  bool complete = false;  // false only when max_chunks stopped the run early
  double seconds = 0.0;
};

// Runs the campaign. The returned table covers every trial when
// stats->complete (untouched slots are zero on an early stop). Per-cell
// under-collection (fewer viable knockout sets than `trials` — e.g. a
// Tier-1 cell on a topology with 12 Tier-1s) is reported through each
// cell's collected()/UnderCollected(), never by silently shrinking
// someone else's slots. Throws InvalidArgument on a bad options/cell
// combination and Error on journal failures.
FailTable RunFailureCampaign(const Internet& internet, const std::vector<FailCellSpec>& cells,
                             const FailCampaignOptions& options = {},
                             FailCampaignStats* stats = nullptr);

// The campaign fingerprint the journal and store carry: FNV-1a over the
// topology fingerprint, the user-weight flag, the hegemony trim, and
// every cell spec.
std::uint64_t CampaignFingerprint(const Internet& internet,
                                  const std::vector<FailCellSpec>& cells, bool has_users,
                                  double hegemony_trim);

// Publishes `table` to `path` (atomic tmp+rename) and, on success,
// removes the now-redundant journal when `journal_path` is non-empty.
void FinalizeFailStore(const std::string& path, const FailTable& table,
                       const std::string& journal_path = std::string());

}  // namespace flatnet::failsim

#endif  // FLATNET_FAILSIM_ENGINE_H_
