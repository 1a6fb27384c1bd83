// Deterministic parallel failure-cascade campaign engine.
//
// A campaign is a list of cells (src/failsim/store.h); each cell's
// knockout sets are pre-drawn SERIALLY from the cell's seed — the random
// single-AS ablations and link draws replay a fixed Rng stream, the
// Tier-1 permutation comes from the same stream, and the hegemony
// cascade order is the deterministic ranking of bgp/hegemony.h on the
// intact graph. Only the evaluation of the drawn trials is parallel: the
// concatenated trial space is split into fixed-size chunks claimed off
// an atomic cursor by ThreadPool workers, each holding one reusable
// workspace (a ReachabilityEngine plus knockout/reach scratch bitsets).
// Every trial runs on the one intact graph: AS knockouts as the engine's
// exclusion mask, link_set trials as its failed-link filter (the drawn
// EdgeList() indices are resolved to AsId pairs during the pre-draw).
// Every trial writes into its pre-assigned slot, so the resulting table
// — and the store serialized from it — is byte-identical at any thread
// count and any chunk size.
//
// With a journal path set, completed chunks are checkpointed through
// sweep::SweepJournal (doubles ride as u32 word pairs); a killed run
// resumed with `resume = true` recomputes only the missing chunks and
// produces a byte-identical store. The journal header is keyed on the
// campaign fingerprint, so resuming against different inputs is loud.
//
// Instrumented with src/obs/: failsim.chunks_completed / chunks_resumed /
// checkpoint_writes / trials_evaluated counters, a failsim.trials_per_sec
// gauge, and failsim.run / failsim.prepare / failsim.chunk trace spans.
#ifndef FLATNET_FAILSIM_ENGINE_H_
#define FLATNET_FAILSIM_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/internet.h"
#include "failsim/store.h"

namespace flatnet::failsim {

struct FailCampaignOptions {
  // Worker parallelism; 0 = hardware concurrency.
  std::size_t threads = 0;
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
  // When non-empty, completed chunks are journaled here.
  std::string journal_path;
  // Resume from an existing journal at journal_path (fresh start when the
  // file does not exist). A mismatch against this topology, cell list, or
  // user-weight flag throws rather than silently recomputing.
  bool resume = false;
  // Test/smoke hooks: stop after this many freshly computed chunks
  // (0 = run to completion), and sleep per completed chunk so an external
  // kill can land mid-run on small campaigns.
  std::uint32_t max_chunks = 0;
  std::uint32_t throttle_chunk_ms = 0;
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
