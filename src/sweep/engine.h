// Sharded all-origins batch sweep engine.
//
// Computes the paper's per-origin reachability metrics (and optionally
// the Fig 13 path-length bins) for EVERY AS in a topology. Chunks of
// origins run through campaign::RunChunks (campaign/runner.h), which owns
// the worker pool, journal and resume. The reach columns come from the
// bit-parallel kernel (bgp/batch_reach.h), 64 origins per pass over a
// layout built once per run and shared by every worker; a chunk of
// `chunk_size` origins fills ceil(chunk_size / 64) batches. Every origin's
// values are deterministic, so a killed run resumed with `resume = true`
// produces a byte-identical store.
//
// Instrumented with src/obs/: sweep.chunks_completed / chunks_resumed /
// checkpoint_writes / origins_computed counters, a sweep.origins_per_sec
// gauge, and sweep.run / sweep.chunk trace spans.
#ifndef FLATNET_SWEEP_ENGINE_H_
#define FLATNET_SWEEP_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "core/internet.h"
#include "sweep/store.h"

namespace flatnet::sweep {

struct SweepOptions : campaign::RunOptions {
  // Origins per chunk — the unit of claiming and of checkpointing. The
  // kernel evaluates 64 origins per batch, so a chunk below 64 (or not a
  // multiple of it) leaves lanes idle.
  std::uint32_t chunk_size = 256;
  // Bitmask of SweepColumn values to compute (kReachColumns by default).
  std::uint32_t columns = kReachColumns;
};

struct SweepRunStats {
  std::size_t chunks_total = 0;
  std::size_t chunks_resumed = 0;   // restored from the journal
  std::size_t chunks_computed = 0;  // computed by this run
  std::size_t origins_computed = 0;
  bool complete = false;  // false only when max_chunks stopped the run early
  double seconds = 0.0;
};

// Runs the sweep. The returned table covers every origin when
// stats->complete (untouched entries are zero on an early stop). Throws
// InvalidArgument on a bad options combination and Error on journal
// failures.
SweepTable RunSweep(const Internet& internet, const SweepOptions& options,
                    SweepRunStats* stats = nullptr);

// Hierarchy-free reachability for every AS (Fig 3 / Table 1): the
// hierarchy-free column of RunSweep on `threads` workers (0 = hardware
// concurrency). Element o equals AnalyzeReachability(internet, o)
// .hierarchy_free.
std::vector<std::uint32_t> HierarchyFreeSweep(const Internet& internet,
                                              std::size_t threads = 0);

// Publishes `table` to `path` (atomic tmp+rename) and, on success,
// removes the now-redundant journal when `journal_path` is non-empty.
void FinalizeSweepStore(const std::string& path, const SweepTable& table,
                        const std::string& journal_path = std::string());

}  // namespace flatnet::sweep

#endif  // FLATNET_SWEEP_ENGINE_H_
