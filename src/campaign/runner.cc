#include "campaign/runner.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/journal.h"
#include "obs/campaign.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace flatnet::campaign {

RunStats RunChunks(const ChunkPlan& plan, const RunOptions& options,
                   const MakeWorker& make_worker, const ApplyChunk& apply) {
  if (plan.chunk_size == 0) throw InvalidArgument(plan.op + ": chunk size must be > 0");
  Stopwatch stopwatch;
  const std::string& component = plan.component;
  obs::Counter& chunks_completed = obs::GetCounter(component + ".chunks_completed");
  obs::Counter& chunks_resumed = obs::GetCounter(component + ".chunks_resumed");
  obs::Counter& checkpoint_writes = obs::GetCounter(component + ".checkpoint_writes");
  obs::Counter& units_counter = obs::GetCounter(component + "." + plan.units_counter);
  obs::Gauge& units_per_sec = obs::GetGauge(component + "." + plan.unit + "_per_sec");

  RunStats stats;
  stats.chunks_total = (plan.num_units + plan.chunk_size - 1) / plan.chunk_size;
  auto chunk_at = [&](std::size_t index) {
    std::size_t begin = index * plan.chunk_size;
    return Chunk{index, begin, std::min<std::size_t>(plan.chunk_size, plan.num_units - begin)};
  };
  std::vector<char> done(stats.chunks_total, 0);

  JournalMeta meta{plan.fingerprint, plan.num_units, plan.columns, plan.chunk_size};
  const std::string& path = options.journal_path;
  Journal journal;
  if (!path.empty()) {
    if (options.resume && std::filesystem::exists(path)) {
      std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> recovered;
      journal = Journal::Recover(path, meta, &recovered);
      for (const auto& [index, values] : recovered) {
        if (index >= stats.chunks_total) {
          throw Error(StrFormat("%s: journal record for chunk %u is out of range (%zu chunks)",
                                path.c_str(), index, stats.chunks_total));
        }
        Chunk chunk = chunk_at(index);
        if (values.size() != chunk.count * plan.words_per_unit) {
          throw Error(StrFormat("%s: journal record for chunk %u holds %zu values, "
                                "expected %zu",
                                path.c_str(), index, values.size(),
                                chunk.count * plan.words_per_unit));
        }
        apply(chunk, values);
        if (!done[index]) {
          done[index] = 1;
          ++stats.chunks_resumed;
        }
      }
      chunks_resumed.Increment(stats.chunks_resumed);
      obs::Log(obs::LogLevel::kInfo, component, "resume")
          .Kv("journal", path)
          .Kv("chunks_resumed", static_cast<std::uint64_t>(stats.chunks_resumed))
          .Kv("chunks_total", static_cast<std::uint64_t>(stats.chunks_total));
    } else {
      journal = Journal::Create(path, meta);
    }
  }

  obs::CampaignMonitor::Options monitor_options;
  monitor_options.component = component;
  monitor_options.unit = plan.unit;
  monitor_options.total_chunks = stats.chunks_total;
  monitor_options.resumed_chunks = stats.chunks_resumed;
  monitor_options.workers = options.threads > 0
                                ? options.threads
                                : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  obs::CampaignMonitor monitor(monitor_options);

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> tickets{0};
  std::atomic<std::size_t> chunks_computed{0};
  std::atomic<std::size_t> units_computed{0};
  std::atomic<bool> failed{false};
  std::mutex mu;         // guards journal appends and `failure`
  std::string failure;  // first worker error
  std::string span_name = component + ".chunk";

  // Pool tasks must not throw: a worker error aborts the run cooperatively
  // and is rethrown after the pool drains.
  auto worker_loop = [&] {
    try {
      std::unique_ptr<ChunkWorker> worker = make_worker();
      std::vector<std::uint32_t> payload;
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) break;
        std::size_t index = next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (index >= stats.chunks_total) break;
        if (done[index]) continue;
        // Every chunk evaluated takes a ticket first, so at most max_chunks
        // are computed however many workers are mid-chunk.
        if (options.max_chunks != 0 &&
            tickets.fetch_add(1, std::memory_order_relaxed) >= options.max_chunks) {
          break;
        }

        obs::TraceSpan chunk_span(span_name);
        Stopwatch chunk_watch;
        Chunk chunk = chunk_at(index);
        payload.assign(chunk.count * plan.words_per_unit, 0);
        worker->Evaluate(chunk, payload);
        apply(chunk, payload);
        if (journal.is_open()) {
          std::lock_guard<std::mutex> lock(mu);
          journal.AppendChunk(static_cast<std::uint32_t>(index), payload.data(),
                              payload.size());
          checkpoint_writes.Increment();
        }

        chunks_computed.fetch_add(1, std::memory_order_relaxed);
        units_computed.fetch_add(chunk.count, std::memory_order_relaxed);
        chunks_completed.Increment();
        units_counter.Increment(chunk.count);
        monitor.ChunkDone(index, chunk_watch.ElapsedSeconds() * 1000.0, chunk.count);
        if (options.throttle_chunk_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(options.throttle_chunk_ms));
        }
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      if (failure.empty()) failure = e.what();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  {
    ThreadPool pool(options.threads);
    std::size_t workers = pool.thread_count() > 0 ? pool.thread_count() : 1;
    for (std::size_t w = 0; w < workers; ++w) pool.Submit(worker_loop);
    pool.Wait();
  }
  journal.Close();
  if (failed.load()) throw Error(plan.op + ": " + failure);

  double seconds = stopwatch.ElapsedSeconds();
  stats.chunks_computed = chunks_computed.load();
  stats.units_computed = units_computed.load();
  stats.complete = stats.chunks_resumed + stats.chunks_computed >= stats.chunks_total;
  if (seconds > 0.0) {
    units_per_sec.Set(
        static_cast<std::int64_t>(static_cast<double>(stats.units_computed) / seconds));
  }
  return stats;
}

}  // namespace flatnet::campaign
