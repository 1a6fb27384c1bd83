// Campaign telemetry: heartbeat, throughput, ETA, and straggler detection
// for chunked batch engines (sweep, leaksim, failsim).
//
// campaign::RunChunks creates one CampaignMonitor per run and shares it
// with every worker; each worker calls ChunkDone() after finishing a
// chunk. The monitor feeds:
//   - a `<component>.chunk_ms` histogram (per-chunk latency distribution),
//   - a `<component>.eta_s` gauge (remaining wall-clock estimate),
//   - a `<component>.stragglers` counter plus a warn log line whenever a
//     chunk runs far slower than the campaign's running mean,
//   - periodic info-level heartbeat lines (progress %, units/sec, mean
//     chunk latency, ETA) so a million-AS run is observable from its log
//     stream alone.
//
// All state is atomic; ChunkDone is safe from any worker thread and is
// logs-and-metrics only — it never touches campaign results, so resumed
// and fresh runs stay byte-identical.
#ifndef FLATNET_OBS_CAMPAIGN_H_
#define FLATNET_OBS_CAMPAIGN_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace flatnet::obs {

class CampaignMonitor {
 public:
  struct Options {
    std::string component;       // metric/log prefix: "sweep", "leaksim", "failsim"
    std::string unit = "units";  // what a chunk produces: "origins", "trials"
    std::size_t total_chunks = 0;
    std::size_t resumed_chunks = 0;  // already done before this run
    std::size_t workers = 1;         // divides the serial ETA estimate
    // Minimum spacing of heartbeat log lines; 0 disables them (metrics and
    // straggler detection stay on).
    std::uint32_t heartbeat_ms = 2000;
    // A chunk is a straggler when it exceeds straggler_factor * the running
    // mean chunk latency and straggler_min_ms; needs >= 8 finished chunks.
    double straggler_factor = 4.0;
    double straggler_min_ms = 50.0;
  };

  explicit CampaignMonitor(const Options& options);

  // Reports one finished chunk of `units` work items taking `chunk_ms`.
  void ChunkDone(std::size_t chunk_index, double chunk_ms, std::size_t units);

  std::size_t chunks_done() const {
    return chunks_done_.load(std::memory_order_relaxed);
  }
  std::uint64_t stragglers() const {
    return stragglers_seen_.load(std::memory_order_relaxed);
  }
  double MeanChunkMs() const;
  // Remaining serial work divided across workers; 0 when done or unknown.
  double EtaSeconds() const;

 private:
  void MaybeHeartbeat(double elapsed_s);

  Options options_;
  Histogram& chunk_ms_hist_;
  Counter& straggler_counter_;
  Gauge& eta_gauge_;
  Stopwatch started_;
  std::atomic<std::size_t> chunks_done_{0};
  std::atomic<std::uint64_t> units_done_{0};
  std::atomic<std::uint64_t> chunk_us_total_{0};
  std::atomic<std::uint64_t> stragglers_seen_{0};
  std::atomic<std::uint64_t> last_heartbeat_us_{0};
};

}  // namespace flatnet::obs

#endif  // FLATNET_OBS_CAMPAIGN_H_
