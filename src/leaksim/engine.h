// Deterministic parallel leak-resilience campaign engine.
//
// A campaign is a list of cells (src/leaksim/store.h); each cell's trial
// assignments are pre-drawn SERIALLY from the cell's seed with
// DrawLeakers — the same rejection-sampling loop RunLeakScenario uses, so
// cell results are identical to the serial path for the same tuple. Only
// the evaluation of the drawn trials is parallel: chunks of the
// concatenated trial space run through campaign::RunChunks
// (campaign/runner.h), each worker holding one reusable LeakWorkspace, and
// every trial writes its pre-assigned slot. The table — and the store
// serialized from it — is byte-identical at any thread count and after a
// kill + resume. The journal is keyed on a campaign fingerprint mixing the
// topology hash with every cell spec, so resuming against different inputs
// is loud.
//
// Instrumented with src/obs/: leaksim.chunks_completed / chunks_resumed /
// checkpoint_writes / trials_evaluated counters, a leaksim.trials_per_sec
// gauge, and leaksim.run / leaksim.prepare / leaksim.chunk trace spans.
#ifndef FLATNET_LEAKSIM_ENGINE_H_
#define FLATNET_LEAKSIM_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "core/internet.h"
#include "leaksim/store.h"

namespace flatnet::leaksim {

struct LeakCampaignOptions : campaign::RunOptions {
  // Trials per chunk — the unit of claiming and of checkpointing.
  std::uint32_t chunk_trials = 64;
  // Per-AS user weights (one entry per AS); non-null enables the
  // user-weighted detour column in every cell. Must outlive the run.
  const std::vector<double>* users = nullptr;
};

struct LeakCampaignStats {
  std::size_t chunks_total = 0;
  std::size_t chunks_resumed = 0;   // restored from the journal
  std::size_t chunks_computed = 0;  // computed by this run
  std::size_t trials_evaluated = 0;
  std::size_t draw_attempts = 0;  // all cells' leaker draws (accepted + rejected)
  bool complete = false;  // false only when max_chunks stopped the run early
  double seconds = 0.0;
};

// Runs the campaign. The returned table covers every trial when
// stats->complete (untouched slots are zero on an early stop). Per-cell
// under-collection (attempt budget exhausted before `trials` valid
// leakers) is reported through each cell's collected()/UnderCollected(),
// never by silently shrinking someone else's slots. Throws
// InvalidArgument on a bad options/cell combination and Error on journal
// failures.
LeakTable RunLeakCampaign(const Internet& internet, const std::vector<LeakCellSpec>& cells,
                          const LeakCampaignOptions& options = {},
                          LeakCampaignStats* stats = nullptr);

// The campaign fingerprint the journal is keyed on: FNV-1a over the
// topology fingerprint, the user-weight flag, and every cell spec.
std::uint64_t CampaignFingerprint(const Internet& internet,
                                  const std::vector<LeakCellSpec>& cells, bool has_users);

// Publishes `table` to `path` (atomic tmp+rename) and, on success,
// removes the now-redundant journal when `journal_path` is non-empty.
void FinalizeLeakStore(const std::string& path, const LeakTable& table,
                       const std::string& journal_path = std::string());

}  // namespace flatnet::leaksim

#endif  // FLATNET_LEAKSIM_ENGINE_H_
