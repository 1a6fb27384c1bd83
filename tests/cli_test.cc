// Tests for the tools' shared entry point (src/cli/): the Args cursor and
// its typed reads, the shared-flag split, Main's exit-code mapping, and —
// by running the built binaries — the exit-code contract every flatnet_*
// tool keeps: 0 on success, 1 for bad input, I/O or bind failures, 2 for
// a usage error, never death by a signal.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "core/graph_store.h"
#include "util/error.h"
#include "util/strings.h"

extern char** environ;

namespace flatnet {
namespace {

using campaign::RunOptions;

enum class FlagStatus { kNotRunFlag, kParsed, kBad };

// Runs Args::RunFlag at the first of `tokens`; a usage error reads as
// kBad. `*consumed` is how many tokens the flag took (1 when it is not a
// runner flag).
FlagStatus Parse(std::vector<std::string> tokens, RunOptions* options,
                 std::uint32_t* chunk_size, int* consumed = nullptr) {
  int total = static_cast<int>(tokens.size());
  cli::Args args(std::move(tokens));
  args.Next();
  FlagStatus status = FlagStatus::kNotRunFlag;
  try {
    if (args.RunFlag(options, chunk_size)) status = FlagStatus::kParsed;
  } catch (const cli::UsageError&) {
    status = FlagStatus::kBad;
  }
  int remaining = 0;
  while (args.Next()) ++remaining;
  if (consumed != nullptr) *consumed = total - remaining;
  return status;
}

TEST(CampaignFlags, ParsesTheSharedRunFlags) {
  RunOptions options;
  std::uint32_t chunk = 7;
  int consumed = 0;
  EXPECT_EQ(Parse({"--threads", "3"}, &options, &chunk, &consumed), FlagStatus::kParsed);
  EXPECT_EQ(options.threads, 3u);
  EXPECT_EQ(consumed, 2);
  EXPECT_EQ(Parse({"--chunk", "9"}, &options, &chunk), FlagStatus::kParsed);
  EXPECT_EQ(chunk, 9u);
  EXPECT_EQ(Parse({"--resume"}, &options, &chunk, &consumed), FlagStatus::kParsed);
  EXPECT_TRUE(options.resume);
  EXPECT_EQ(consumed, 1);
  EXPECT_EQ(Parse({"--throttle-chunk-ms", "50"}, &options, &chunk), FlagStatus::kParsed);
  EXPECT_EQ(options.throttle_chunk_ms, 50u);
  EXPECT_EQ(Parse({"--max-chunks", "4294967295"}, &options, &chunk), FlagStatus::kParsed);
  EXPECT_EQ(options.max_chunks, 4294967295u);

  EXPECT_EQ(Parse({"--out", "x"}, &options, &chunk, &consumed), FlagStatus::kNotRunFlag);
  EXPECT_EQ(consumed, 1);
}

TEST(CampaignFlags, RejectsValuesThatDoNotFit) {
  RunOptions options;
  std::uint32_t chunk = 7;
  // 2^32 + 1 used to narrow silently to a 1-origin chunk.
  EXPECT_EQ(Parse({"--chunk", "4294967297"}, &options, &chunk), FlagStatus::kBad);
  EXPECT_EQ(chunk, 7u);
  EXPECT_EQ(Parse({"--chunk", "0"}, &options, &chunk), FlagStatus::kBad);
  EXPECT_EQ(Parse({"--max-chunks", "4294967296"}, &options, &chunk), FlagStatus::kBad);
  EXPECT_EQ(Parse({"--throttle-chunk-ms", "-1"}, &options, &chunk), FlagStatus::kBad);
  EXPECT_EQ(Parse({"--threads", "18446744073709551616"}, &options, &chunk), FlagStatus::kBad);
  EXPECT_EQ(Parse({"--threads"}, &options, &chunk), FlagStatus::kBad);
  EXPECT_EQ(Parse({"--threads", "2x"}, &options, &chunk), FlagStatus::kBad);
  EXPECT_EQ(options.max_chunks, 0u);
  EXPECT_EQ(options.threads, 0u);
}

// Large thread counts are checked only here, in process: passed to a
// binary they would start that many threads.
TEST(CliArgs, ThreadCountsTakeTheFieldsFullRange) {
  RunOptions options;
  std::uint32_t chunk = 7;
  std::string max = std::to_string(std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(Parse({"--threads", max}, &options, &chunk), FlagStatus::kParsed);
  EXPECT_EQ(options.threads, std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(Parse({"--threads", "4294967297"}, &options, &chunk), FlagStatus::kParsed);
  EXPECT_EQ(options.threads, 4294967297u);
}

// Whether ParseUnsigned<T> rejects `text` within [lo, hi].
template <typename T>
bool Rejects(const char* text, T lo = 0, T hi = std::numeric_limits<T>::max()) {
  try {
    cli::ParseUnsigned<T>(text, "--flag", lo, hi);
    return false;
  } catch (const cli::UsageError&) {
    return true;
  }
}

TEST(CliArgs, UnsignedRejectsWhatDoesNotFitItsField) {
  // 2^32 + 8075 used to answer for AS8075.
  EXPECT_TRUE(Rejects<Asn>("4294975371"));
  EXPECT_FALSE(Rejects<Asn>("4294967295"));
  // An int64 field takes at most 2^63 - 1; the old cast wrapped 2^63.
  EXPECT_TRUE(Rejects<std::int64_t>("9223372036854775808"));
  EXPECT_FALSE(Rejects<std::int64_t>("9223372036854775807"));
  // A count scaled by 2^20 after parsing must not overflow the product.
  std::uint64_t mb_max = std::numeric_limits<std::uint64_t>::max() >> 20;
  EXPECT_FALSE(Rejects<std::uint64_t>("17592186044415", 0, mb_max));
  EXPECT_TRUE(Rejects<std::uint64_t>("17592186044416", 0, mb_max));
  // Bounds, and malformed text.
  EXPECT_TRUE(Rejects<std::uint16_t>("65536"));
  EXPECT_TRUE(Rejects<Asn>("0", 1));
  for (const char* bad : {"", "-1", "+1", "1x", " 1", "0x10"}) {
    EXPECT_TRUE(Rejects<std::uint64_t>(bad)) << bad;
  }
  EXPECT_EQ(cli::ParseUnsigned<std::uint32_t>("4294967295", "--ases"), 4294967295u);
  try {
    cli::ParseUnsigned<std::uint32_t>("4294967296", "--ases");
    ADD_FAILURE() << "no usage error";
  } catch (const cli::UsageError& e) {
    EXPECT_STREQ(e.what(), "--ases: '4294967296' is not an integer in [0, 4294967295]");
  }
}

TEST(CliArgs, DoubleChoiceValueAndPositional) {
  std::vector<std::string> tokens = {"--x", "nan", "--x", "0.25", "--x", "inf"};
  for (const char* token : {"--era", "2015", "--era", "1999", "stem", "-q", "--last"}) {
    tokens.push_back(token);
  }
  cli::Args args(tokens);
  ASSERT_TRUE(args.Next());
  EXPECT_THROW(args.Double(0.0, 1.0), cli::UsageError);
  ASSERT_TRUE(args.Next());
  EXPECT_EQ(args.Double(0.0, 1.0), 0.25);
  ASSERT_TRUE(args.Next());
  EXPECT_TRUE(std::isinf(args.Double(0.0, std::numeric_limits<double>::infinity())));
  ASSERT_TRUE(args.Next());
  EXPECT_EQ(args.Choice({"2020", "2015"}), 1u);
  ASSERT_TRUE(args.Next());
  EXPECT_THROW(args.Choice({"2020", "2015"}), cli::UsageError);
  ASSERT_TRUE(args.Next());
  EXPECT_EQ(args.Positional(), "stem");
  EXPECT_THROW(args.Unknown(), cli::UsageError);
  ASSERT_TRUE(args.Next());
  EXPECT_THROW(args.Positional(), cli::UsageError);
  ASSERT_TRUE(args.Next());
  EXPECT_TRUE(args.Is("--last"));
  EXPECT_THROW(args.Value(), cli::UsageError);
  EXPECT_FALSE(args.Next());

  // An Error from a value parser is a usage error naming the flag.
  cli::Args parsed({"--port", "x"});
  ASSERT_TRUE(parsed.Next());
  auto parse = [](const std::string& v) -> int { throw ParseError("bad port " + v); };
  try {
    parsed.Value(parse);
    ADD_FAILURE() << "no usage error";
  } catch (const cli::UsageError& e) {
    EXPECT_STREQ(e.what(), "--port: bad port x");
  }
}

TEST(CliArgs, SplitsTheSharedFlagsOut) {
  const char* argv[] = {"t", "--metrics-out", "m.json", "stem", "--log-level", "warn", "-x"};
  cli::CommandLine line = cli::SplitSharedFlags(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(line.metrics_out, "m.json");
  ASSERT_TRUE(line.log_level.has_value());
  EXPECT_EQ(*line.log_level, obs::LogLevel::kWarn);
  EXPECT_EQ(line.tokens, (std::vector<std::string>{"stem", "-x"}));

  const char* loud[] = {"t", "--log-level", "loud"};
  EXPECT_THROW(cli::SplitSharedFlags(3, loud), cli::UsageError);
  const char* missing[] = {"t", "--metrics-out"};
  EXPECT_THROW(cli::SplitSharedFlags(2, missing), cli::UsageError);
}

int RunMain(std::vector<std::string> tokens, const std::function<int(cli::Args&)>& body) {
  std::vector<char*> argv;
  for (std::string& token : tokens) argv.push_back(token.data());
  int argc = static_cast<int>(argv.size());
  return cli::Main(argc, argv.data(), "cli_test", "usage: cli_test\n", body);
}

TEST(CliMain, MapsOutcomesToExitCodes) {
  auto error = [](cli::Args&) -> int { throw Error("bad input"); };
  auto usage = [](cli::Args&) -> int { throw cli::UsageError("bad flag"); };
  auto ok = [](cli::Args&) { return 0; };
  auto unknown = [](cli::Args& args) {
    EXPECT_TRUE(args.Next());
    args.Unknown();
    return 0;
  };
  EXPECT_EQ(RunMain({"t"}, [](cli::Args&) { return 3; }), 3);
  EXPECT_EQ(RunMain({"t"}, error), 1);
  EXPECT_EQ(RunMain({"t"}, usage), 2);
  EXPECT_EQ(RunMain({"t", "--log-level"}, ok), 2);
  // The body sees only its own tokens.
  EXPECT_EQ(RunMain({"t", "--log-level", "warn", "--x"}, unknown), 2);

  // --metrics-out is written when the body returns and when it throws.
  std::string name = StrFormat("flatnet_cli_metrics_%d.json", static_cast<int>(::getpid()));
  std::string path = (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove(path);
  EXPECT_EQ(RunMain({"t", "--metrics-out", path}, error), 1);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
  EXPECT_EQ(RunMain({"t", "--metrics-out", path}, ok), 0);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

// Runs the built tools on bad input. A case is one command line, split on
// spaces, where {g} is a generated 200-AS `.graph`, {t} that file cut in
// half and {d} a scratch directory. Every case exits by itself; a run
// still alive after kTimeout is killed and fails its test.
class ToolExitCodes : public ::testing::Test {
 protected:
  static constexpr std::chrono::seconds kTimeout{120};

  static void SetUpTestSuite() {
    std::string name = StrFormat("flatnet_cli_test_%d", static_cast<int>(::getpid()));
    dir_ = new std::string((std::filesystem::temp_directory_path() / name).string());
    std::filesystem::create_directories(*dir_);
    ASSERT_EQ(Run("flatnet_gen --era 2015 --ases 200 --world-only --graph-out {g}"), 0);
    std::string bytes = Slurp("{g}");
    ASSERT_GT(bytes.size(), 64u);
    std::ofstream(Expand("{t}"), std::ios::binary).write(bytes.data(), bytes.size() / 2);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
  }

  // `text` with {g}, {t} and {d} replaced.
  static std::string Expand(std::string text) {
    auto replace = [&text](const std::string& key, const std::string& value) {
      std::size_t at = 0;
      while ((at = text.find(key)) != std::string::npos) text.replace(at, key.size(), value);
    };
    replace("{g}", *dir_ + "/w.graph");
    replace("{t}", *dir_ + "/truncated.graph");
    replace("{d}", *dir_);
    return text;
  }

  // The bytes of the file `path` names ({g}, {t} and {d} expanded).
  static std::string Slurp(const std::string& path) {
    std::ifstream in(Expand(path), std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }

  // The exit code of `command`, its tool taken from the build's tools
  // directory, with stdout and stderr sent to {d}/last.log and
  // FLATNET_RECORDER_DUMP set to `dump` when given; -1 - signal for a death
  // by signal, -1000 for a timeout.
  static int Run(const std::string& command, const std::string& dump = "") {
    std::vector<std::string> tokens;
    for (std::string_view token : SplitWhitespace(command)) {
      tokens.push_back(Expand(std::string(token)));
    }
    tokens[0] = std::string(FLATNET_TOOLS_DIR) + "/" + tokens[0];
    std::vector<char*> argv;
    for (std::string& token : tokens) argv.push_back(token.data());
    argv.push_back(nullptr);

    std::vector<std::string> env;
    for (char** entry = environ; *entry != nullptr; ++entry) {
      if (std::string_view(*entry).substr(0, 8) != "FLATNET_") env.emplace_back(*entry);
    }
    if (!dump.empty()) env.push_back("FLATNET_RECORDER_DUMP=" + dump);
    std::vector<char*> envp;
    for (std::string& entry : env) envp.push_back(entry.data());
    envp.push_back(nullptr);

    std::string log = *dir_ + "/last.log";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    int flags = O_WRONLY | O_CREAT | O_TRUNC;
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), flags, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    pid_t pid = 0;
    int spawned = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0) {
      ADD_FAILURE() << "cannot start " << argv[0];
      return -2000;
    }
    int status = 0;
    auto deadline = std::chrono::steady_clock::now() + kTimeout;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        return -1000;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (WIFSIGNALED(status)) return -1 - WTERMSIG(status);
    return WEXITSTATUS(status);
  }

  // Runs `command` with FLATNET_RECORDER_DUMP set and expects exit code
  // `expected` and no flight-recorder dump: nothing crashed.
  static void Expect(int expected, const std::string& command) {
    std::string dump = *dir_ + "/recorder.dump";
    std::filesystem::remove(dump);
    int code = Run(command, dump);
    EXPECT_EQ(code, expected) << command << "\n" << Slurp("{d}/last.log");
    EXPECT_FALSE(std::filesystem::exists(dump)) << command << " wrote a crash dump";
  }

  static std::string* dir_;
};

std::string* ToolExitCodes::dir_ = nullptr;

// A listening socket on an ephemeral loopback port, held open so a tool
// that binds the same port fails with "Address already in use".
class BoundPort {
 public:
  BoundPort() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    auto* raw = reinterpret_cast<sockaddr*>(&addr);
    bool ok = fd_ >= 0 && ::bind(fd_, raw, sizeof(addr)) == 0 && ::listen(fd_, 1) == 0;
    EXPECT_TRUE(ok && ::getsockname(fd_, raw, &len) == 0) << "cannot bind a loopback port";
    port_ = ntohs(addr.sin_port);
  }
  ~BoundPort() {
    if (fd_ >= 0) ::close(fd_);
  }
  BoundPort(const BoundPort&) = delete;
  BoundPort& operator=(const BoundPort&) = delete;

  std::string port() const { return std::to_string(port_); }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

TEST_F(ToolExitCodes, UnwritableGeneratorOutputIsAnError) {
  std::string gen = "flatnet_gen --era 2015 --ases 200 --seed 1 --world-only ";
  Expect(1, gen + "--graph-out /nonexistent/x.graph");
  Expect(1, gen + "/nonexistent/stem");
}

TEST_F(ToolExitCodes, LoadgenWithABadTopologyIsAnError) {
  Expect(1, "flatnet_loadgen --topology {t} --port 1");
  Expect(1, "flatnet_loadgen --topology /nonexistent --port 1");
  // loadgen takes --metrics-out like every other tool, and writes it on
  // the error path too.
  Expect(1, "flatnet_loadgen --topology {t} --port 1 --metrics-out {d}/loadgen.json");
  EXPECT_TRUE(std::filesystem::exists(Expand("{d}/loadgen.json")));
}

TEST_F(ToolExitCodes, ServeBindFailuresAreErrors) {
  Expect(1, "flatnet_serve --topology {g} --threads 1 --bind 256.0.0.1");
  BoundPort taken;
  Expect(1, "flatnet_serve --topology {g} --threads 1 --port " + taken.port());
  Expect(1, "flatnet_router --backends 127.0.0.1:1 --port " + taken.port());
}

TEST_F(ToolExitCodes, ServeExplicitStoreMustAttach) {
  Expect(1, "flatnet_serve --topology {g} --threads 1 --sweep {d}/missing.sweep");
  Expect(1, "flatnet_serve --topology {g} --threads 1 --fail {g}");
}

// serve caches an absent `.graph` path from the era recipe flatnet_gen
// uses, published before the server binds, so the two files are equal.
TEST_F(ToolExitCodes, ServePublishesTheGraphFlatnetGenWrites) {
  std::string recipe = " --era 2015 --ases 300 --seed 7";
  Expect(1, "flatnet_serve --topology {d}/gen.graph --threads 1 --bind 256.0.0.1" + recipe);
  Expect(0, "flatnet_gen --graph-out {d}/ref.graph" + recipe);
  std::string published = Slurp("{d}/gen.graph");
  EXPECT_FALSE(published.empty());
  EXPECT_TRUE(published == Slurp("{d}/ref.graph"));
}

// Text is interchange, never a cache: an absent text stem is an error
// naming the missing file, and nothing is written there.
TEST_F(ToolExitCodes, ServeNeverWritesATextCache) {
  std::string recipe = " --era 2015 --ases 300 --seed 7";
  Expect(1, "flatnet_serve --topology {d}/stem --threads 1 --bind 256.0.0.1" + recipe);
  EXPECT_NE(Slurp("{d}/last.log").find("stem.as-rel.txt"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(Expand("{d}/stem.as-rel.txt")));
  EXPECT_FALSE(std::filesystem::exists(Expand("{d}/stem.meta.tsv")));
}

TEST_F(ToolExitCodes, TruncatedGraphIsAnErrorForEveryLoader) {
  Expect(1, "flatnet_reach {t} --top 3");
  Expect(1, "flatnet_sweep {t} --out {d}/t.sweep");
  Expect(1, "flatnet_leaksim {t} --campaign --out {d}/t.leak");
  Expect(1, "flatnet_leaksim {t} --victim 1");
  Expect(1, "flatnet_failsim {t} --out {d}/t.fail");
  Expect(1, "flatnet_diffcheck --graph-identity {t}");
  Expect(1, "flatnet_serve --topology {t} --threads 1");
}

TEST_F(ToolExitCodes, AbsentAsnIsAnError) {
  Internet internet = LoadInternetBinary(Expand("{g}"));
  ASSERT_FALSE(internet.graph().IdOf(4294967295u).has_value());
  Expect(1, "flatnet_reach {g} --asn 4294967295");
  Expect(1, "flatnet_leaksim {g} --victim 4294967295 --trials 1");
  Expect(1, "flatnet_failsim {g} --hegemony --origin 4294967295");
}

TEST_F(ToolExitCodes, NumericFlagsThatDoNotFitAreUsageErrors) {
  // 2^32 + 8075: used to print AS8075's counts under the wrong number.
  Expect(2, "flatnet_reach {g} --asn 4294975371");
  // 2^32 + 200: used to generate a 200-AS Internet.
  Expect(2, "flatnet_gen --ases 4294967496 --world-only --graph-out {d}/x.graph");
  Expect(2, "flatnet_serve --ases 4294967496 --threads 1");
  // Megabyte counts whose byte count overflows 64 bits.
  Expect(2, "flatnet_serve --topology {g} --cache-mb 17592186044416");
  Expect(2, "flatnet_gen --stream-budget-mb 17592186044416 --graph-out {d}/x.graph");
  // 2^63 used to wrap to a negative int64.
  Expect(2, "flatnet_serve --topology {g} --default-deadline-ms 9223372036854775808");
  Expect(2, "flatnet_serve --topology {g} --slow-query-ms 9223372036854775808");
  Expect(2, "flatnet_router --backends 127.0.0.1:1 --request-timeout-ms 9223372036854775808");
  // The ring holds shard ids in 32 bits; diffcheck's AS counts are 32-bit.
  Expect(2, "flatnet_serve --topology {g} --shard 0/4294967296");
  Expect(2, "flatnet_diffcheck --repro 2020:1:4294967496:1:batch");
  Expect(2, "flatnet_diffcheck --max-ases 4294967296");
  Expect(2, "flatnet_leaksim {g} --victim 0");
  Expect(2, "flatnet_failsim {g} --trim 0.5");
}

// Past serve::kMaxDeadlineMs (1 h) a deadline or timeout added to
// steady_clock::now() can overflow the clock. Each line names an
// unbindable address, so a tool that accepts its flags exits 1 at bind.
TEST_F(ToolExitCodes, TimeFlagsPastTheDeadlineCapAreUsageErrors) {
  std::string serve = "flatnet_serve --topology {g} --threads 1 --bind 256.0.0.1 ";
  std::string router = "flatnet_router --backends 127.0.0.1:1 --bind 256.0.0.1 ";
  Expect(1, serve + "--default-deadline-ms 3600000");
  Expect(2, serve + "--default-deadline-ms 3600001");
  Expect(2, serve + "--default-deadline-ms 9223372036854775807");
  Expect(1, router + "--request-timeout-ms 3600000 --probe-interval-ms 3600000");
  Expect(2, router + "--request-timeout-ms 3600001");
  Expect(2, router + "--request-timeout-ms 9223372036854775807");
  Expect(2, router + "--probe-interval-ms 9223372036854775807");
}

// The ring's vnode count and the hedge and pool tuning are constants, so
// the router's old tuning flags are unknown flags. Each line names an
// unbindable address: a router that still took the flag would exit 1.
TEST_F(ToolExitCodes, RemovedRouterFlagsAreUsageErrors) {
  std::string router = "flatnet_router --backends 127.0.0.1:1 --bind 256.0.0.1 ";
  Expect(2, router + "--vnodes 8");
  Expect(2, router + "--no-hedging");
  Expect(2, router + "--hedge-multiplier 2");
  Expect(2, router + "--hedge-min-ms 1");
  Expect(2, router + "--hedge-max-ms 9");
}

TEST_F(ToolExitCodes, BadCommandLinesAreUsageErrors) {
  std::string tools = "flatnet_gen flatnet_reach flatnet_sweep flatnet_leaksim flatnet_failsim";
  tools += " flatnet_diffcheck flatnet_serve flatnet_loadgen flatnet_router";
  for (std::string_view name : SplitWhitespace(tools)) {
    std::string tool(name);
    Expect(2, tool + " --no-such-flag");
    Expect(2, tool + " --log-level loud");
    Expect(2, tool + " --metrics-out");
  }
  Expect(2, "flatnet_router --backends 127.0.0.1:notaport");
  Expect(2, "flatnet_serve stray-positional");
}

}  // namespace
}  // namespace flatnet
