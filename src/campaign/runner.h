// The chunk loop every campaign engine shares (sweep, leaksim, failsim).
//
// An engine describes its campaign as a ChunkPlan and supplies two
// pieces: a factory for per-thread ChunkWorkers, which evaluate a chunk
// of units (origins, trials) into a flat u32 payload, and `apply`, which
// writes a payload into the engine's table. Fresh chunks and chunks
// recovered from the journal reach the table through the same `apply`,
// so a resumed run cannot decode a payload differently from the run that
// wrote it. A payload must depend only on its chunk's units — never on
// the thread or on the order chunks finish in — so the table is
// byte-identical at any thread count and after any kill + resume.
//
// RunChunks owns the rest: the journal, the ThreadPool and chunk cursor,
// error capture, the CampaignMonitor, metrics and spans, and the test
// hooks. DESIGN.md §17 describes the contract.
#ifndef FLATNET_CAMPAIGN_RUNNER_H_
#define FLATNET_CAMPAIGN_RUNNER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

namespace flatnet::campaign {

// Options every campaign engine shares; SweepOptions, LeakCampaignOptions
// and FailCampaignOptions derive from it.
struct RunOptions {
  // Worker parallelism; 0 = hardware concurrency.
  std::size_t threads = 0;
  // When non-empty, completed chunks are journaled here.
  std::string journal_path;
  // Resume from an existing journal at journal_path (fresh start when the
  // file does not exist). The journal must match the campaign's inputs
  // and chunk size; a mismatch throws rather than silently recomputing.
  bool resume = false;
  // Test/smoke hooks: stop after exactly this many freshly computed
  // chunks (0 = run to completion), and sleep per completed chunk so an
  // external kill can land mid-run on small inputs.
  std::uint32_t max_chunks = 0;
  std::uint32_t throttle_chunk_ms = 0;
};

struct ChunkPlan {
  // Metric, span and log prefix ("sweep") and the prefix of rethrown
  // worker errors ("RunSweep").
  std::string component;
  std::string op;
  // What a unit is ("origins"; the rate gauge is <component>.<unit>_per_sec)
  // and the name of the counter totalling them ("origins_computed").
  std::string unit;
  std::string units_counter;
  std::size_t num_units = 0;
  std::uint32_t chunk_size = 0;
  std::size_t words_per_unit = 0;  // payload words per unit
  // Journal key: a fingerprint of every input the results depend on, and
  // the engine's payload schema tag.
  std::uint64_t fingerprint = 0;
  std::uint32_t columns = 0;
};

// Units [begin, begin + count) of chunk `index`.
struct Chunk {
  std::size_t index = 0;
  std::size_t begin = 0;
  std::size_t count = 0;
};

// One worker thread's evaluation state.
class ChunkWorker {
 public:
  ChunkWorker() = default;
  virtual ~ChunkWorker() = default;
  ChunkWorker(const ChunkWorker&) = delete;
  ChunkWorker& operator=(const ChunkWorker&) = delete;

  // Fills `payload` (chunk.count * words_per_unit words, zeroed).
  virtual void Evaluate(const Chunk& chunk, std::span<std::uint32_t> payload) = 0;
};

using MakeWorker = std::function<std::unique_ptr<ChunkWorker>()>;
// Called from worker threads for fresh chunks, each chunk at most once at
// a time, and from the calling thread for resumed ones.
using ApplyChunk =
    std::function<void(const Chunk& chunk, std::span<const std::uint32_t> payload)>;

struct RunStats {
  std::size_t chunks_total = 0;
  std::size_t chunks_resumed = 0;   // restored from the journal
  std::size_t chunks_computed = 0;  // computed by this run
  std::size_t units_computed = 0;
  bool complete = false;  // false only when max_chunks stopped the run early
};

// Runs every chunk the journal does not already hold. Throws
// InvalidArgument on a zero chunk size, Error naming the journal on
// journal failures, and Error on the first worker error.
RunStats RunChunks(const ChunkPlan& plan, const RunOptions& options,
                   const MakeWorker& make_worker, const ApplyChunk& apply);

// For campaigns whose cells own consecutive unit ranges
// [offsets[c], offsets[c + 1]): calls fn(cell, local, i) for each unit of
// `chunk`, `local` being its index within the cell and `i` within the
// chunk.
template <typename Fn>
void ForEachCellUnit(std::span<const std::size_t> offsets, const Chunk& chunk, Fn&& fn) {
  auto cell = static_cast<std::size_t>(
      std::upper_bound(offsets.begin(), offsets.end(), chunk.begin) - offsets.begin() - 1);
  for (std::size_t i = 0; i < chunk.count; ++i) {
    std::size_t unit = chunk.begin + i;
    while (unit >= offsets[cell + 1]) ++cell;
    fn(cell, unit - offsets[cell], i);
  }
}

// A double in a payload: two u32 words, low word first.
inline void EncodeDouble(double value, std::uint32_t* out) {
  auto bits = std::bit_cast<std::uint64_t>(value);
  out[0] = static_cast<std::uint32_t>(bits);
  out[1] = static_cast<std::uint32_t>(bits >> 32);
}

inline double DecodeDouble(const std::uint32_t* in) {
  return std::bit_cast<double>((std::uint64_t{in[1]} << 32) | in[0]);
}

}  // namespace flatnet::campaign

#endif  // FLATNET_CAMPAIGN_RUNNER_H_
