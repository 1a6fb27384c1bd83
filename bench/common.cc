#include "common.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "core/graph_store.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/env.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace flatnet::bench {
namespace {

int g_failures = 0;
int g_checks = 0;

bool EnvFlag(const char* name) {
  auto value = GetEnv(name);
  if (!value) return false;
  std::string v = AsciiLower(*value);
  return v == "1" || v == "true" || v == "on" || v == "yes";
}

// Size and age of the cache file, for provenance logs.
void DescribeCacheFile(const std::string& path, std::uintmax_t* size, double* age_seconds) {
  std::error_code ec;
  *size = std::filesystem::file_size(path, ec);
  if (ec) *size = 0;
  auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) {
    *age_seconds = 0.0;
    return;
  }
  *age_seconds =
      std::chrono::duration<double>(std::filesystem::file_time_type::clock::now() - mtime)
          .count();
  if (*age_seconds < 0.0) *age_seconds = 0.0;
}

std::unique_ptr<Study> BuildStudy(bool era2020) {
  obs::TraceSpan span("bench.build_study");
  Stopwatch sw;
  auto study = std::make_unique<Study>(EraStudyOptions(era2020));
  obs::GetHistogram("bench.build_seconds", {1.0, 5.0, 15.0, 60.0, 300.0})
      .Observe(sw.ElapsedSeconds());
  std::fprintf(stderr, "[bench] built %s study: %zu ASes, %zu traces, %.1fs\n",
               era2020 ? "2020" : "2015", study->world().num_ases(),
               study->campaign().traces().size(), sw.ElapsedSeconds());
  return study;
}

// The analysis topology of the era's study, cached as a `.graph` store:
// it round-trips bit for bit, so a warm run computes on exactly the
// topology a cold run built, and the file equals `flatnet_gen --era <era>
// --ases <N> --graph-out` for the same size.
const Internet& CachedInternet(bool era2020) {
  static std::unique_ptr<Internet> cached2020;
  static std::unique_ptr<Internet> cached2015;
  auto& slot = era2020 ? cached2020 : cached2015;
  if (slot) return *slot;

  std::uint32_t total_ases = EraStudyOptions(era2020).generator.total_ases;
  std::string key = StrFormat("%s-n%u", era2020 ? "era2020" : "era2015", total_ases);
  std::filesystem::create_directories("flatnet_cache");
  std::string path = "flatnet_cache/" + key + ".graph";
  if (std::filesystem::exists(path)) {
    Stopwatch sw;
    std::uintmax_t size = 0;
    double age_seconds = 0.0;
    DescribeCacheFile(path, &size, &age_seconds);
    try {
      auto loaded = std::make_unique<Internet>(LoadInternetBinary(path));
      // The file name encodes the expected AS count; a store published
      // under the wrong name must not pass for this era's topology.
      if (loaded->num_ases() != total_ases) {
        throw Error(StrFormat("cache %s: expected %u ASes, loaded %zu", path.c_str(),
                              total_ases, loaded->num_ases()));
      }
      slot = std::move(loaded);
      obs::GetCounter("cache.hit").Increment();
      obs::Log(obs::LogLevel::kInfo, "bench", "cache.load")
          .Kv("key", key)
          .Kv("file", path)
          .Kv("bytes", static_cast<std::uint64_t>(size))
          .Kv("age_s", age_seconds)
          .Kv("result", "hit")
          .Kv("load_s", sw.ElapsedSeconds());
      return *slot;
    } catch (const Error& e) {
      // A corrupt or truncated cache entry is not fatal: drop it and
      // rebuild from the generator.
      obs::GetCounter("cache.corrupt").Increment();
      obs::Log(obs::LogLevel::kWarn, "bench", "cache.corrupt")
          .Kv("key", key)
          .Kv("file", path)
          .Kv("bytes", static_cast<std::uint64_t>(size))
          .Kv("error", e.what());
    }
  } else {
    obs::Log(obs::LogLevel::kInfo, "bench", "cache.load")
        .Kv("key", key)
        .Kv("file", path)
        .Kv("result", "miss");
  }
  obs::GetCounter("cache.miss").Increment();
  auto study = BuildStudy(era2020);
  slot = std::make_unique<Internet>(study->internet());
  // SaveInternetBinary publishes atomically (tmp + rename); a store failure
  // is non-fatal here — the cache is an optimization.
  try {
    SaveInternetBinary(*slot, path);
    std::uintmax_t size = 0;
    double age_seconds = 0.0;
    DescribeCacheFile(path, &size, &age_seconds);
    obs::Log(obs::LogLevel::kInfo, "bench", "cache.store")
        .Kv("key", key)
        .Kv("file", path)
        .Kv("bytes", static_cast<std::uint64_t>(size));
  } catch (const Error& e) {
    obs::Log(obs::LogLevel::kWarn, "bench", "cache.store_failed")
        .Kv("key", key)
        .Kv("error", e.what());
  }
  return *slot;
}

const Study& CachedStudy(bool era2020) {
  static std::unique_ptr<Study> s2020;
  static std::unique_ptr<Study> s2015;
  auto& slot = era2020 ? s2020 : s2015;
  if (!slot) slot = BuildStudy(era2020);
  return *slot;
}

}  // namespace

const World& World2020() {
  static std::unique_ptr<World> world;
  if (!world) {
    Stopwatch sw;
    world = std::make_unique<World>(GenerateWorld(GeneratorParams::Era2020()));
    std::fprintf(stderr, "[bench] generated 2020 world (%zu ASes) in %.1fs\n",
                 world->num_ases(), sw.ElapsedSeconds());
  }
  return *world;
}

const Internet& Internet2020() { return CachedInternet(true); }
const Internet& Internet2015() { return CachedInternet(false); }
const Study& Study2020() { return CachedStudy(true); }
const Study& Study2015() { return CachedStudy(false); }

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  const ScaleConfig& scale = GetScaleConfig();
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("scale: %.3g x paper topology, %.3g x paper trials (%s)\n",
              scale.topology_fraction, scale.trial_fraction, scale.source.c_str());
  std::printf("================================================================\n");
}

bool Expect(bool ok, const std::string& claim) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    obs::Log(obs::LogLevel::kWarn, "bench", "expect.fail").Kv("claim", claim);
  }
  std::printf("EXPECT [%s] %s\n", ok ? "PASS" : "FAIL", claim.c_str());
  return ok;
}

int ExpectFailures() { return g_failures; }

void PrintSummary() {
  std::printf("----------------------------------------------------------------\n");
  std::printf("expectations: %d checked, %d failed\n", g_checks, g_failures);

  if (auto path = GetEnv("FLATNET_METRICS_OUT")) {
    obs::WriteMetricsFile(*path);
    std::fprintf(stderr, "[bench] wrote metrics to %s\n", path->c_str());
  }
  if (obs::LogEnabled(obs::LogLevel::kDebug)) {
    std::fprintf(stderr, "[bench] trace span summary:\n");
    obs::SpanSummaryTable().Print(stderr);
  }
  if (g_failures > 0 && EnvFlag("FLATNET_EXPECT_STRICT")) {
    std::fprintf(stderr, "[bench] FLATNET_EXPECT_STRICT: %d EXPECT failure(s), exiting 1\n",
                 g_failures);
    std::fflush(stdout);
    std::exit(1);
  }
}

std::string NameOf(const Internet& internet, AsId id) {
  const std::string& name = internet.NameOf(id);
  if (!name.empty()) return name;
  return StrFormat("AS%u", internet.graph().AsnOf(id));
}

AsId IdByName(const Internet& internet, const std::string& name) {
  for (AsId id = 0; id < internet.num_ases(); ++id) {
    if (internet.NameOf(id) == name) return id;
  }
  throw InvalidArgument("IdByName: no AS named '" + name + "'");
}

}  // namespace flatnet::bench
