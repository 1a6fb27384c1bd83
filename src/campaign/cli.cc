#include "campaign/cli.h"

#include <cstdio>
#include <numeric>
#include <string_view>

#include "util/stats.h"

namespace flatnet::campaign {

FlagStatus ParseRunFlag(int argc, char** argv, int* i, RunOptions* options,
                        std::uint32_t* chunk_size) {
  std::string_view arg = argv[*i];
  bool ok = true;
  if (arg == "--resume") {
    options->resume = true;
  } else if (arg == "--threads") {
    ok = NextUnsigned(argc, argv, i, &options->threads);
  } else if (arg == "--chunk") {
    ok = NextUnsigned(argc, argv, i, chunk_size) && *chunk_size > 0;
  } else if (arg == "--throttle-chunk-ms") {
    ok = NextUnsigned(argc, argv, i, &options->throttle_chunk_ms);
  } else if (arg == "--max-chunks") {
    ok = NextUnsigned(argc, argv, i, &options->max_chunks);
  } else {
    return FlagStatus::kNotRunFlag;
  }
  return ok ? FlagStatus::kParsed : FlagStatus::kBad;
}

void PrintSeries(const char* label, std::vector<double> f) {
  double mean =
      f.empty() ? 0.0
                : std::accumulate(f.begin(), f.end(), 0.0) / static_cast<double>(f.size());
  std::printf("%s mean %.2f%%  median %.2f%%  p90 %.2f%%  p99 %.2f%%  max %.2f%%\n", label,
              100 * mean, 100 * Quantile(f, 0.5), 100 * Quantile(f, 0.9),
              100 * Quantile(f, 0.99), 100 * Quantile(f, 1.0));
}

}  // namespace flatnet::campaign
