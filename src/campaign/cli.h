// Command-line pieces the campaign CLIs share (flatnet_sweep,
// flatnet_leaksim --campaign, flatnet_failsim).
#ifndef FLATNET_CAMPAIGN_CLI_H_
#define FLATNET_CAMPAIGN_CLI_H_

#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "util/strings.h"

namespace flatnet::campaign {

// Reads the decimal value after argv[*i] into *value and advances *i.
// False when the value is missing, malformed, or does not fit T: a
// flag value is never truncated.
template <typename T>
bool NextUnsigned(int argc, char** argv, int* i, T* value) {
  if (*i + 1 >= argc) return false;
  std::optional<std::uint64_t> parsed = ParseU64(argv[++*i]);
  if (!parsed || *parsed > std::numeric_limits<T>::max()) return false;
  *value = static_cast<T>(*parsed);
  return true;
}

enum class FlagStatus { kNotRunFlag, kParsed, kBad };

// Parses the runner flag at argv[*i], if it is one — --threads N,
// --chunk N (into *chunk_size, N > 0), --resume, --throttle-chunk-ms MS,
// --max-chunks N — and advances *i past its value.
FlagStatus ParseRunFlag(int argc, char** argv, int* i, RunOptions* options,
                        std::uint32_t* chunk_size);

// Prints a run's summary line to stderr and returns whether the run
// completed. A run that max_chunks stopped early keeps its journal for the
// next --resume and publishes no store. `stats` is an engine's run stats
// and `units` its origin or trial count.
template <typename Stats>
bool ReportRun(const char* label, const char* unit, const Stats& stats, std::size_t units,
               const std::string& journal_path) {
  std::fprintf(stderr,
               "%s: %zu/%zu chunks computed (%zu resumed), %zu %s in %.2fs (%.0f %s/s)\n",
               label, stats.chunks_computed, stats.chunks_total, stats.chunks_resumed, units,
               unit, stats.seconds,
               stats.seconds > 0 ? static_cast<double>(units) / stats.seconds : 0.0, unit);
  if (!stats.complete) {
    std::fprintf(stderr, "partial run (--max-chunks): journal kept at %s, no store written\n",
                 journal_path.c_str());
  }
  return stats.complete;
}

// Prints "<label> mean …  median …  p90 …  p99 …  max …" for a series
// `f` of fractions, as percentages.
void PrintSeries(const char* label, std::vector<double> f);

}  // namespace flatnet::campaign

#endif  // FLATNET_CAMPAIGN_CLI_H_
