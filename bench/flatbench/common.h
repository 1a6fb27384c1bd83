// Shared plumbing for flatbench: settings, results, child processes, the
// watchdog, sockets, statistics and the span recorder behind trace.json.
#ifndef FLATBENCH_COMMON_H_
#define FLATBENCH_COMMON_H_

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/json.h"

namespace flatbench {

using Clock = std::chrono::steady_clock;

Clock::duration Seconds(double s);
double SecondsSince(Clock::time_point t0);
double MsBetween(Clock::time_point from, Clock::time_point to);

// Everything one invocation needs to know. The scale knobs default to the
// benchmark's pinned sizes; --selftest shrinks them.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8.0;  // measured window per run
  bool trace = false;
  std::string out_dir;  // result.json (+ trace.json) land here

  std::uint32_t service_ases = 20000;
  std::uint32_t batch_ases = 100000;
  double warmup_s = 2.0;
  double capacity_s = 4.0;  // closed-loop capacity probes, in total
  // Selftest hook: corrupt one reference byte so verification must fail.
  bool flip_reference_byte = false;

  std::string exe_dir;  // directory holding the flatbench binary
  std::string work_dir;  // cached inputs and scratch files

  std::string ServeBinary() const { return exe_dir + "/flatnet/tools/flatnet_serve"; }
  std::string RouterBinary() const { return exe_dir + "/flatnet/tools/flatnet_router"; }
};

// One printed metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// The outcome of one run: what stdout's last line and result.json carry.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  flatnet::Json detail = flatnet::Json::MakeObject();
  flatnet::Json digests = flatnet::Json::MakeObject();
  std::vector<std::string> mismatches;

  void Mismatch(std::string what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

// `doc` at `path`: null when a step is missing or not an object, so
// optional fields of a daemon's status can be read without throwing.
const flatnet::Json& Find(const flatnet::Json& doc, std::initializer_list<std::string> path);
// The number at `path`, or 0 when it is absent.
double NumberAt(const flatnet::Json& doc, std::initializer_list<std::string> path);

// ---- statistics -----------------------------------------------------------

// Nearest-rank quantile (util/stats.h convention); 0 for an empty sample.
double Q(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);
// The middle value, or the mean of the two middle values; 0 when empty.
double Median(std::vector<double> samples);
// Python statistics.quantiles(values, n=4) (exclusive method): {q1, q2, q3}.
std::vector<double> Quartiles(std::vector<double> values);

// ---- processes ------------------------------------------------------------

// Kills every live Child and exits the process (code 3) once `seconds`
// have passed, so no run outlives its budget or leaves daemons behind.
// Destroying the watchdog disarms it.
class Watchdog {
 public:
  explicit Watchdog(double seconds);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;  // guarded by mu_
  std::thread thread_;
};

// CPU placement for the service workloads: the load generator (the
// calling thread, while this object lives) runs alone on the last CPU and
// the daemons share the others, so no daemon thread can delay the
// generator's wake-ups. Does nothing on hosts with fewer than 4 CPUs.
class CpuSplit {
 public:
  CpuSplit();
  ~CpuSplit();
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  // The daemons' CPUs, or null when not splitting.
  const cpu_set_t* daemon_cpus() const { return active_ ? &daemons_ : nullptr; }

 private:
  bool active_ = false;
  cpu_set_t saved_{};
  cpu_set_t daemons_{};
};

// A spawned daemon. The child dies with flatbench (PR_SET_PDEATHSIG), its
// stdout/stderr go to `log_path`, it runs on `cpus` when given, and the
// destructor stops and reaps it.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path,
        const cpu_set_t* cpus = nullptr);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // False once the process has exited (it is then reaped).
  bool Running();
  // Peak resident set (VmHWM) in MB; 0 once the process is gone.
  double PeakRssMb() const;
  // SIGTERM, then SIGKILL after `grace_s`; always reaps.
  void Stop(double grace_s = 5.0);

 private:
  void Reaped();

  pid_t pid_ = -1;  // -1 once reaped
};

// Reads a port number a daemon published with --port-file; nullopt until
// the file holds one complete line.
std::optional<std::uint16_t> ReadPortFile(const std::string& path);

// ---- sockets --------------------------------------------------------------

int ConnectLoopback(std::uint16_t port);  // blocking connect; throws on failure
void SetNonBlocking(int fd);
// Blocking request/response on a fresh connection, for control probes.
std::string RoundTrip(std::uint16_t port, const std::string& line, double timeout_s = 10.0);

// The raw bytes of a response's `result` value (up to any `timing`
// field), so cached, timed and reference answers compare byte for byte.
std::string_view RawResultBytes(std::string_view response);

// ---- files ----------------------------------------------------------------

void MakeDirs(const std::string& path);
bool FileExists(const std::string& path);
std::string ReadFile(const std::string& path);
void WriteFile(const std::string& path, const std::string& text);
// FNV-1a 64 over the file's bytes, as 16 hex digits.
std::string FileDigest(const std::string& path);
double PeakRssSelfMb();

flatnet::Json MachineInfo();

// ---- spans ----------------------------------------------------------------

// In-memory Chrome trace-event spans, written once at the end of a traced
// run. Times are microseconds since the recorder's epoch.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}
  void Add(const std::string& name, const std::string& cat, Clock::time_point start,
           double dur_us, std::uint64_t tid, flatnet::Json args = flatnet::Json());
  void AddAt(const std::string& name, const std::string& cat, double ts_us, double dur_us,
             std::uint64_t tid, flatnet::Json args = flatnet::Json());
  double Us(Clock::time_point t) const;
  std::size_t size() const { return events_.size(); }
  void Write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<flatnet::Json> events_;
};

}  // namespace flatbench

#endif  // FLATBENCH_COMMON_H_
