#include "common.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "util/error.h"
#include "util/stats.h"
#include "util/strings.h"

namespace flatbench {

using flatnet::Error;
using flatnet::Json;
using flatnet::StrFormat;

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void RunResult::Mismatch(std::string what) {
  correct = false;
  std::fprintf(stderr, "flatbench: verification mismatch: %s\n", what.c_str());
  if (mismatches.size() < 20) mismatches.push_back(std::move(what));
}

const Json& Find(const Json& doc, std::initializer_list<std::string> path) {
  static const Json kNull;
  const Json* at = &doc;
  for (const std::string& key : path) {
    if (at->type() != Json::Type::kObject) return kNull;
    at = &at->Get(key);
  }
  return *at;
}

double NumberAt(const Json& doc, std::initializer_list<std::string> path) {
  const Json& value = Find(doc, path);
  return value.type() == Json::Type::kNumber ? value.AsNumber() : 0.0;
}

double Q(std::vector<double> samples, double q) {
  return flatnet::Quantile(std::move(samples), q);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  return (*std::max_element(samples.begin(), samples.begin() + mid) + upper) / 2.0;
}

std::vector<double> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  long n = static_cast<long>(values.size());
  if (n == 0) return {0.0, 0.0, 0.0};
  if (n == 1) return {values[0], values[0], values[0]};
  std::vector<double> out;
  long m = n + 1;
  for (long i = 1; i < 4; ++i) {
    long j = std::clamp(i * m / 4, 1L, n - 1);
    long delta = i * m - j * 4;
    out.push_back((values[j - 1] * static_cast<double>(4 - delta) +
                   values[j] * static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

// ---- processes ------------------------------------------------------------

namespace {

std::mutex g_children_mu;
std::set<pid_t> g_children;

}  // namespace

Watchdog::Watchdog(double seconds)
    : thread_([this, seconds] {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                         [this] { return disarmed_; })) {
          return;
        }
        std::lock_guard<std::mutex> children_lock(g_children_mu);
        for (pid_t pid : g_children) ::kill(pid, SIGKILL);
        for (pid_t pid : g_children) ::waitpid(pid, nullptr, 0);
        std::fprintf(stderr, "flatbench: watchdog: run exceeded %.0f s, children killed\n",
                     seconds);
        std::fflush(stderr);
        ::_exit(3);
      }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    disarmed_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

CpuSplit::CpuSplit() {
  long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus < 4 || ::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t client;
  CPU_ZERO(&client);
  CPU_ZERO(&daemons_);
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) last = cpu;
  }
  for (int cpu = 0; cpu < last; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) CPU_SET(cpu, &daemons_);
  }
  if (last < 0 || CPU_COUNT(&daemons_) < 3) return;
  CPU_SET(last, &client);
  active_ = ::sched_setaffinity(0, sizeof(client), &client) == 0;
}

CpuSplit::~CpuSplit() {
  if (active_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
}

Child::Child(const std::vector<std::string>& argv, const std::string& log_path,
             const cpu_set_t* cpus) {
  // Everything the child touches between fork and exec is prepared here:
  // after fork only async-signal-safe calls are allowed.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t parent = ::getpid();
  int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) throw Error(StrFormat("open %s: %s", log_path.c_str(), std::strerror(errno)));

  std::lock_guard<std::mutex> lock(g_children_mu);
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw Error(StrFormat("fork: %s", std::strerror(errno)));
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (cpus != nullptr) ::sched_setaffinity(0, sizeof(*cpus), cpus);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  g_children.insert(pid_);
}

Child::~Child() { Stop(); }

bool Child::Running() {
  if (pid_ < 0) return false;
  if (::waitpid(pid_, nullptr, WNOHANG) == 0) return true;
  Reaped();
  return false;
}

void Child::Reaped() {
  std::lock_guard<std::mutex> lock(g_children_mu);
  g_children.erase(pid_);
  pid_ = -1;
}

double Child::PeakRssMb() const {
  if (pid_ < 0) return 0.0;
  std::ifstream in(StrFormat("/proc/%d/status", static_cast<int>(pid_)));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Child::Stop(double grace_s) {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  auto deadline = Clock::now() + Seconds(grace_s);
  bool reaped = false;
  while (Clock::now() < deadline) {
    pid_t r = ::waitpid(pid_, nullptr, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  Reaped();
}

std::optional<std::uint16_t> ReadPortFile(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (text.empty() || text.back() != '\n') return std::nullopt;
  auto port = flatnet::ParseU64(flatnet::Trim(text));
  if (!port || *port == 0 || *port > 65535) return std::nullopt;
  return static_cast<std::uint16_t>(*port);
}

// ---- sockets --------------------------------------------------------------

int ConnectLoopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw Error(StrFormat("socket: %s", std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    throw Error(StrFormat("connect 127.0.0.1:%u: %s", static_cast<unsigned>(port),
                          std::strerror(err)));
  }
  // Requests are small and latency-bound: never hold one back for Nagle.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SetNonBlocking(int fd) { ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK); }

std::string RoundTrip(std::uint16_t port, const std::string& line, double timeout_s) {
  int fd = ConnectLoopback(port);
  std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      throw Error(StrFormat("send: %s", std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string buffer;
  auto deadline = Clock::now() + Seconds(timeout_s);
  for (;;) {
    std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      ::close(fd);
      return buffer.substr(0, newline);
    }
    int wait_ms = static_cast<int>(MsBetween(Clock::now(), deadline));
    pollfd pfd{fd, POLLIN, 0};
    if (wait_ms <= 0 || ::poll(&pfd, 1, wait_ms) == 0) {
      ::close(fd);
      throw Error(StrFormat("no answer from port %u within %.0f s", static_cast<unsigned>(port),
                            timeout_s));
    }
    char chunk[65536];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      throw Error("connection closed mid-response");
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string_view RawResultBytes(std::string_view response) {
  std::size_t at = response.find("\"result\":");
  if (at == std::string_view::npos) return {};
  std::string_view bytes = response.substr(at);
  std::size_t timing = bytes.rfind(",\"timing\":");
  if (timing != std::string_view::npos) return bytes.substr(0, timing);
  if (!bytes.empty() && bytes.back() == '}') bytes.remove_suffix(1);
  return bytes;
}

// ---- files ----------------------------------------------------------------

void MakeDirs(const std::string& path) { std::filesystem::create_directories(path); }

bool FileExists(const std::string& path) { return std::filesystem::exists(path); }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error(StrFormat("cannot read %s", path.c_str()));
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) throw Error(StrFormat("cannot write %s", tmp.c_str()));
  }
  std::filesystem::rename(tmp, path);
}

std::string FileDigest(const std::string& path) {
  std::string bytes = ReadFile(path);
  std::uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(hash));
}

double PeakRssSelfMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

Json MachineInfo() {
  Json info = Json::MakeObject();
  info["nproc"] = static_cast<std::uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        info["cpu"] = std::string(flatnet::Trim(line.substr(colon + 1)));
      }
      break;
    }
  }
  std::ifstream loadavg("/proc/loadavg");
  double load1 = 0.0;
  if (loadavg >> load1) info["loadavg_1m"] = load1;
  return info;
}

// ---- spans ----------------------------------------------------------------

double SpanRecorder::Us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

void SpanRecorder::Add(const std::string& name, const std::string& cat, Clock::time_point start,
                       double dur_us, std::uint64_t tid, Json args) {
  AddAt(name, cat, Us(start), dur_us, tid, std::move(args));
}

void SpanRecorder::AddAt(const std::string& name, const std::string& cat, double ts_us,
                         double dur_us, std::uint64_t tid, Json args) {
  Json event = Json::MakeObject();
  event["name"] = name;
  event["cat"] = cat;
  event["ph"] = "X";
  event["ts"] = ts_us;
  event["dur"] = std::max(dur_us, 0.0);
  event["pid"] = 1;
  event["tid"] = tid;
  if (!args.is_null()) event["args"] = std::move(args);
  events_.push_back(std::move(event));
}

void SpanRecorder::Write(const std::string& path) const {
  Json doc = Json::MakeObject();
  doc["displayTimeUnit"] = "ms";
  doc["traceEvents"] = Json(Json::Array(events_));
  WriteFile(path, doc.Dump());
}

}  // namespace flatbench
