// One entry point for the flatnet_* tools (DESIGN.md §18).
//
// Every tool's main is a single call; the body parses its own flags with
// an Args cursor and runs:
//
//   int main(int argc, char** argv) {
//     return cli::Main(argc, argv, "flatnet_x", kUsage, [&](cli::Args& args) {
//       while (args.Next()) {
//         if (args.Is("--out")) {
//           out = args.Value();
//         } else if (args.Is("--threads")) {
//           threads = args.Unsigned<std::size_t>();
//         } else {
//           stem = args.Positional();
//         }
//       }
//       ...
//       return 0;
//     });
//   }
//
// Main owns what the tools share: the --log-level and --metrics-out flags,
// core-metric registration, the env-driven crash handler and metrics
// flusher, and the exit codes. A tool exits with its body's code, 1 for a
// flatnet::Error (bad input, I/O, bind), or 2 for a usage error; bad input
// never ends a process by a signal.
#ifndef FLATNET_CLI_CLI_H_
#define FLATNET_CLI_CLI_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "asgraph/as_graph.h"
#include "campaign/runner.h"
#include "core/internet.h"
#include "obs/log.h"
#include "util/error.h"
#include "util/names.h"
#include "util/strings.h"

namespace flatnet::cli {

// A command line the tool cannot run. Main prints "<tool>: <message>"
// (when there is one) and the usage text to stderr, and exits 2. Not a
// flatnet::Error, so a tool's own Error handlers never swallow it.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what = "") : std::runtime_error(what) {}
};

// `text` as a decimal T in [lo, hi]. A missing, malformed or out-of-range
// value is a usage error naming `what`: a value is never truncated and
// never wraps. T may be signed, but the range must not go below 0.
template <typename T>
T ParseUnsigned(std::string_view text, std::string_view what, T lo = 0,
                T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T>, "ParseUnsigned reads integers");
  std::optional<std::uint64_t> value = ParseU64(text);
  if (!value || *value < static_cast<std::uint64_t>(lo) ||
      *value > static_cast<std::uint64_t>(hi)) {
    throw UsageError(StrFormat("%.*s: '%.*s' is not an integer in [%llu, %llu]",
                               static_cast<int>(what.size()), what.data(),
                               static_cast<int>(text.size()), text.data(),
                               static_cast<unsigned long long>(lo),
                               static_cast<unsigned long long>(hi)));
  }
  return static_cast<T>(*value);
}

// A cursor over a tool's own arguments (the shared flags already taken
// out). Every typed read throws UsageError on a bad or missing value.
class Args {
 public:
  explicit Args(std::vector<std::string> tokens) : tokens_(std::move(tokens)) {}

  // Advances to the next token; false past the last one.
  bool Next() { return ++at_ < tokens_.size(); }

  // Whether the current token is `flag`.
  bool Is(std::string_view flag) const { return tokens_[at_] == flag; }

  // The value after the current flag; the cursor moves onto it.
  const std::string& Value();

  // The current flag's value passed through `parse`; an Error that `parse`
  // throws is a usage error naming the flag.
  template <typename Parse>
  auto Value(Parse&& parse) {
    std::string flag = tokens_[at_];
    const std::string& value = Value();
    try {
      return parse(value);
    } catch (const Error& e) {
      throw UsageError(flag + ": " + e.what());
    }
  }

  // The current flag's value as an integer T in [lo, hi] (ParseUnsigned).
  template <typename T>
  T Unsigned(T lo = 0, T hi = std::numeric_limits<T>::max()) {
    std::string flag = tokens_[at_];
    return ParseUnsigned<T>(Value(), flag, lo, hi);
  }

  // The current flag's value as a real number in [lo, hi]; NaN never is.
  double Double(double lo, double hi);

  // The index of the current flag's value in `choices`.
  std::size_t Choice(std::span<const std::string_view> choices);
  std::size_t Choice(std::initializer_list<std::string_view> choices) {
    return Choice(std::span(choices.begin(), choices.size()));
  }

  // The current flag's value as the enumerator `names` spells it.
  template <typename Enum, std::size_t N>
  Enum Choice(const NameTable<Enum, N>& names) {
    std::array<std::string_view, N> choices;
    std::copy(names.names.begin(), names.names.end(), choices.begin());
    return static_cast<Enum>(Choice(choices));
  }

  // The current token as a positional argument; a token that starts with
  // '-' is an unknown flag.
  const std::string& Positional() const;

  // Rejects the current token: for tools that take no positional argument.
  [[noreturn]] void Unknown() const;

  // Parses the campaign runner flag at the cursor, if it is one —
  // --threads N, --chunk N (into *chunk_size, N > 0), --resume,
  // --throttle-chunk-ms MS, --max-chunks N — and returns whether it was.
  bool RunFlag(campaign::RunOptions* options, std::uint32_t* chunk_size);

 private:
  std::vector<std::string> tokens_;
  std::size_t at_ = static_cast<std::size_t>(-1);
};

// argv split into the flags every tool shares and the tool's own tokens.
struct CommandLine {
  std::vector<std::string> tokens;
  std::optional<obs::LogLevel> log_level;  // --log-level
  std::string metrics_out;                 // --metrics-out
};

// Takes --log-level and --metrics-out out of argv[1..]; a shared flag
// with a missing or unknown value is a usage error.
CommandLine SplitSharedFlags(int argc, const char* const* argv);

// Runs a tool: applies the shared flags, registers the core metrics,
// installs the crash handler when FLATNET_RECORDER_DUMP is set, runs a
// metrics flusher for --metrics-out when FLATNET_METRICS_INTERVAL is set,
// and writes --metrics-out once when the body returns or throws. Returns
// the body's exit code; 2 with the usage text for a UsageError; 1 with
// "<tool>: <message>" for a flatnet::Error. Writes nothing to stdout.
int Main(int argc, char** argv, const char* tool, const char* usage,
         const std::function<int(Args&)>& body);

// The id of `asn`; an Error when the topology does not hold it.
AsId ResolveAsn(const Internet& internet, Asn asn);

// Prints a campaign run's summary line to stderr and returns whether the
// run completed. A run that max_chunks stopped early keeps its journal for
// the next --resume and publishes no store. `stats` is an engine's run
// stats and `units` its origin or trial count.
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

}  // namespace flatnet::cli

#endif  // FLATNET_CLI_CLI_H_
