#include "cli/cli.h"

#include <numeric>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/stats.h"

namespace flatnet::cli {
namespace {

// Publishes --metrics-out exactly once when it goes out of scope: the
// flusher's final write when FLATNET_METRICS_INTERVAL started one, a
// plain write otherwise.
class MetricsPublisher {
 public:
  explicit MetricsPublisher(const std::string& path)
      : path_(path), flusher_(path, obs::MetricsFlusher::IntervalFromEnv()) {}
  ~MetricsPublisher() {
    if (flusher_.active()) {
      flusher_.Stop();
    } else if (!path_.empty()) {
      obs::WriteMetricsFile(path_);
    }
  }

  MetricsPublisher(const MetricsPublisher&) = delete;
  MetricsPublisher& operator=(const MetricsPublisher&) = delete;

 private:
  std::string path_;
  obs::MetricsFlusher flusher_;
};

}  // namespace

const std::string& Args::Value() {
  if (at_ + 1 >= tokens_.size()) throw UsageError(tokens_[at_] + ": missing value");
  return tokens_[++at_];
}

double Args::Double(double lo, double hi) {
  std::string flag = tokens_[at_];
  const std::string& text = Value();
  std::optional<double> value = ParseDouble(text);
  // Written so that NaN fails the range test.
  if (!value || !(*value >= lo && *value <= hi)) {
    std::string range = StrFormat("[%g, %g]", lo, hi);
    throw UsageError(flag + ": '" + text + "' is not a number in " + range);
  }
  return *value;
}

std::size_t Args::Choice(std::span<const std::string_view> choices) {
  std::string flag = tokens_[at_];
  const std::string& value = Value();
  std::size_t index = 0;
  for (std::string_view choice : choices) {
    if (value == choice) return index;
    ++index;
  }
  std::vector<std::string> names(choices.begin(), choices.end());
  throw UsageError(flag + ": '" + value + "' is not one of " + Join(names, "|"));
}

const std::string& Args::Positional() const {
  const std::string& token = tokens_[at_];
  if (!token.empty() && token[0] == '-') Unknown();
  return token;
}

void Args::Unknown() const { throw UsageError("unknown argument '" + tokens_[at_] + "'"); }

bool Args::RunFlag(campaign::RunOptions* options, std::uint32_t* chunk_size) {
  if (Is("--resume")) {
    options->resume = true;
  } else if (Is("--threads")) {
    options->threads = Unsigned<std::size_t>();
  } else if (Is("--chunk")) {
    *chunk_size = Unsigned<std::uint32_t>(1);
  } else if (Is("--throttle-chunk-ms")) {
    options->throttle_chunk_ms = Unsigned<std::uint32_t>();
  } else if (Is("--max-chunks")) {
    options->max_chunks = Unsigned<std::uint32_t>();
  } else {
    return false;
  }
  return true;
}

CommandLine SplitSharedFlags(int argc, const char* const* argv) {
  CommandLine line;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg != "--log-level" && arg != "--metrics-out") {
      line.tokens.emplace_back(arg);
      continue;
    }
    if (i + 1 >= argc) throw UsageError(std::string(arg) + ": missing value");
    const char* value = argv[++i];
    if (arg == "--metrics-out") {
      line.metrics_out = value;
      continue;
    }
    line.log_level = obs::ParseLogLevel(value);
    if (!line.log_level) throw UsageError(StrFormat("--log-level: '%s' is not a level", value));
  }
  return line;
}

int Main(int argc, char** argv, const char* tool, const char* usage,
         const std::function<int(Args&)>& body) {
  try {
    CommandLine line = SplitSharedFlags(argc, argv);
    if (line.log_level) obs::SetLogLevel(*line.log_level);
    obs::RegisterCoreMetrics();
    obs::InstallCrashHandlerFromEnv();
    MetricsPublisher publisher(line.metrics_out);
    Args args(std::move(line.tokens));
    return body(args);
  } catch (const UsageError& e) {
    if (*e.what() != '\0') std::fprintf(stderr, "%s: %s\n", tool, e.what());
    std::fputs(usage, stderr);
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 1;
  }
}

AsId ResolveAsn(const Internet& internet, Asn asn) {
  std::optional<AsId> id = internet.graph().IdOf(asn);
  if (!id) throw Error(StrFormat("AS%u not present in the topology", asn));
  return *id;
}

void PrintSeries(const char* label, std::vector<double> f) {
  double mean =
      f.empty() ? 0.0
                : std::accumulate(f.begin(), f.end(), 0.0) / static_cast<double>(f.size());
  std::printf("%s mean %.2f%%  median %.2f%%  p90 %.2f%%  p99 %.2f%%  max %.2f%%\n", label,
              100 * mean, 100 * Quantile(f, 0.5), 100 * Quantile(f, 0.9),
              100 * Quantile(f, 0.99), 100 * Quantile(f, 1.0));
}

}  // namespace flatnet::cli
