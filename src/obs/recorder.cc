#include "obs/recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <vector>

#include "obs/log.h"
#include "util/env.h"

namespace flatnet::obs {
namespace {

constexpr std::size_t kNameWords = kRecorderNameCapacity / 8;
constexpr std::uint64_t kSlotBusy = ~0ull;

// All slot fields are relaxed atomics so a reader racing the (single)
// writer observes torn *events*, never torn *words*. The seq field doubles
// as a per-slot seqlock: kSlotBusy while a write is in flight, the event's
// ring index once complete. Readers reject any slot whose seq does not
// match the index they asked for, before and after copying the payload.
struct Slot {
  std::atomic<std::uint64_t> seq{kSlotBusy};
  std::atomic<std::uint64_t> t_us{0};
  std::atomic<std::uint64_t> arg{0};
  std::atomic<std::uint64_t> name[kNameWords] = {};
};

struct Ring {
  std::atomic<std::uint64_t> head{0};  // events ever written; next index
  std::uint32_t thread_index = 0;
  Slot slots[kRecorderRingCapacity];
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_ring_claims{0};
std::atomic<Ring*> g_rings[kRecorderMaxThreads] = {};
std::atomic<std::uint64_t> g_threads_dropped{0};
// Bumped by ResetRecorderForTest so threads holding a forgotten ring
// re-register instead of writing into one no reader can see.
std::atomic<std::uint64_t> g_generation{1};

thread_local Ring* t_ring = nullptr;
thread_local std::uint64_t t_ring_generation = 0;
thread_local std::uint64_t t_dropped_generation = 0;

std::uint64_t NowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count());
}

Ring* CurrentRing() {
  std::uint64_t generation = g_generation.load(std::memory_order_acquire);
  if (t_ring != nullptr && t_ring_generation == generation) return t_ring;
  if (t_dropped_generation == generation) return nullptr;
  std::uint32_t index = g_ring_claims.fetch_add(1, std::memory_order_relaxed);
  if (index >= kRecorderMaxThreads) {
    g_threads_dropped.fetch_add(1, std::memory_order_relaxed);
    t_dropped_generation = generation;
    return nullptr;
  }
  Ring* ring = new Ring;  // leaked: history must survive thread exit
  ring->thread_index = index;
  g_rings[index].store(ring, std::memory_order_release);
  t_ring = ring;
  t_ring_generation = generation;
  return ring;
}

std::size_t RegisteredRings() {
  return std::min<std::size_t>(g_ring_claims.load(std::memory_order_acquire),
                               kRecorderMaxThreads);
}

// Validated racy read of one slot; false when the slot was overwritten or
// is mid-write. The acquire fence pairs with the writer's release fence
// (see RecordEvent) so a payload read that observes new data forces the
// trailing seq check to observe kSlotBusy.
bool ReadSlot(const Ring& ring, std::uint64_t index, RecorderEvent* out) {
  const Slot& slot = ring.slots[index % kRecorderRingCapacity];
  if (slot.seq.load(std::memory_order_acquire) != index) return false;
  RecorderEvent event;
  event.t_us = slot.t_us.load(std::memory_order_relaxed);
  event.arg = slot.arg.load(std::memory_order_relaxed);
  std::uint64_t words[kNameWords];
  for (std::size_t w = 0; w < kNameWords; ++w) {
    words[w] = slot.name[w].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != index) return false;
  event.seq = index;
  event.thread = ring.thread_index;
  std::memcpy(event.name, words, kRecorderNameCapacity);
  event.name[kRecorderNameCapacity - 1] = '\0';
  *out = event;
  return true;
}

// --- Async-signal-safe dump rendering ------------------------------------
//
// The crash handler may run on a corrupted heap, so everything below uses
// only a stack buffer, manual integer formatting, and write(2).

struct FdWriter {
  int fd = -1;
  char buf[4096];
  std::size_t used = 0;
  bool ok = true;

  void Flush() {
    std::size_t done = 0;
    while (ok && done < used) {
      ssize_t n = ::write(fd, buf + done, used - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        ok = false;
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    used = 0;
  }
  void Append(const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (used == sizeof(buf)) Flush();
      buf[used++] = data[i];
    }
  }
  void AppendStr(const char* s) { Append(s, std::strlen(s)); }
  void AppendU64(std::uint64_t v) {
    char digits[20];
    std::size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) Append(&digits[--n], 1);
  }
};

// Writes the full dump (header, per-ring events oldest-first, trailer).
bool DumpToFd(int fd) {
  FdWriter w;
  w.fd = fd;
  w.AppendStr("flatnet-flight-recorder v1\n");
  std::uint64_t events = 0;
  std::size_t rings = RegisteredRings();
  for (std::size_t i = 0; i < rings; ++i) {
    const Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;  // registration in flight
    std::uint64_t head = ring->head.load(std::memory_order_acquire);
    std::uint64_t lo = head > kRecorderRingCapacity ? head - kRecorderRingCapacity : 0;
    for (std::uint64_t index = lo; index < head; ++index) {
      RecorderEvent event;
      if (!ReadSlot(*ring, index, &event)) continue;
      w.AppendStr("event t_us=");
      w.AppendU64(event.t_us);
      w.AppendStr(" thread=");
      w.AppendU64(event.thread);
      w.AppendStr(" seq=");
      w.AppendU64(event.seq);
      w.AppendStr(" arg=");
      w.AppendU64(event.arg);
      w.AppendStr(" name=");
      w.AppendStr(event.name);
      w.AppendStr("\n");
      ++events;
    }
  }
  w.AppendStr("end events=");
  w.AppendU64(events);
  w.AppendStr("\n");
  w.Flush();
  return w.ok;
}

char g_dump_path[1024] = {0};

void CrashHandler(int sig) {
  // SA_RESETHAND already restored the default disposition; dump, then
  // re-raise so the default action (core / abort) still happens.
  int fd = ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    DumpToFd(fd);
    ::close(fd);
  }
  ::raise(sig);
}

}  // namespace

void EnableRecorder(bool enabled) {
  NowMicros();  // pin the process time base before any recording thread
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool RecorderEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void RecordEvent(std::string_view name, std::uint64_t arg) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  Ring* ring = CurrentRing();
  if (ring == nullptr) return;
  std::uint64_t index = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[index % kRecorderRingCapacity];
  slot.seq.store(kSlotBusy, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);  // busy visible before payload
  slot.t_us.store(NowMicros(), std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  std::uint64_t words[kNameWords] = {};
  std::memcpy(words, name.data(), std::min(name.size(), kRecorderNameCapacity - 1));
  for (std::size_t w = 0; w < kNameWords; ++w) {
    slot.name[w].store(words[w], std::memory_order_relaxed);
  }
  slot.seq.store(index, std::memory_order_release);
  ring->head.store(index + 1, std::memory_order_release);
}

RecorderStats GetRecorderStats() {
  RecorderStats stats;
  stats.enabled = RecorderEnabled();
  stats.threads_dropped = g_threads_dropped.load(std::memory_order_relaxed);
  std::size_t rings = RegisteredRings();
  for (std::size_t i = 0; i < rings; ++i) {
    const Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    ++stats.threads;
    std::uint64_t head = ring->head.load(std::memory_order_acquire);
    stats.recorded += head;
    if (head > kRecorderRingCapacity) stats.overwritten += head - kRecorderRingCapacity;
  }
  return stats;
}

std::vector<RecorderEvent> CollectRecorderEvents(std::size_t max_events) {
  std::vector<RecorderEvent> events;
  std::size_t rings = RegisteredRings();
  for (std::size_t i = 0; i < rings; ++i) {
    const Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    std::uint64_t head = ring->head.load(std::memory_order_acquire);
    std::uint64_t lo = head > kRecorderRingCapacity ? head - kRecorderRingCapacity : 0;
    for (std::uint64_t index = lo; index < head; ++index) {
      RecorderEvent event;
      if (ReadSlot(*ring, index, &event)) events.push_back(event);
    }
  }
  std::sort(events.begin(), events.end(), [](const RecorderEvent& a, const RecorderEvent& b) {
    if (a.t_us != b.t_us) return a.t_us < b.t_us;
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.seq < b.seq;
  });
  if (events.size() > max_events) {
    events.erase(events.begin(), events.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  return events;
}

Json RecorderJson(std::size_t max_events) {
  RecorderStats stats = GetRecorderStats();
  std::vector<RecorderEvent> events = CollectRecorderEvents(max_events);
  Json array = Json::MakeArray();
  for (const RecorderEvent& event : events) {
    Json entry = Json::MakeObject();
    entry["arg"] = Json(event.arg);
    entry["name"] = Json(std::string(event.name));
    entry["seq"] = Json(event.seq);
    entry["t_us"] = Json(event.t_us);
    entry["thread"] = Json(static_cast<std::uint64_t>(event.thread));
    array.Append(std::move(entry));
  }
  Json out = Json::MakeObject();
  std::uint64_t returned = events.size();
  out["dropped"] = Json(stats.recorded > returned ? stats.recorded - returned : 0);
  out["enabled"] = Json(stats.enabled);
  out["events"] = std::move(array);
  out["threads"] = Json(stats.threads);
  return out;
}

bool WriteRecorderDump(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  bool ok = fd >= 0;
  if (ok) {
    ok = DumpToFd(fd);
    ::close(fd);
  }
  if (!ok) {
    Log(LogLevel::kWarn, "obs", "recorder.dump_failed").Kv("path", path);
    return false;
  }
  Log(LogLevel::kDebug, "obs", "recorder.dumped").Kv("path", path);
  return true;
}

void InstallCrashHandler(const std::string& path) {
  std::size_t n = std::min(path.size(), sizeof(g_dump_path) - 1);
  std::memcpy(g_dump_path, path.data(), n);
  g_dump_path[n] = '\0';
  EnableRecorder(true);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = CrashHandler;
  action.sa_flags = SA_RESETHAND;
  sigemptyset(&action.sa_mask);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    sigaction(sig, &action, nullptr);
  }
  Log(LogLevel::kInfo, "obs", "recorder.crash_handler_installed").Kv("path", path);
}

bool InstallCrashHandlerFromEnv() {
  auto path = GetEnv("FLATNET_RECORDER_DUMP");
  if (!path || path->empty()) return false;
  InstallCrashHandler(*path);
  return true;
}

void ResetRecorderForTest() {
  // Rings outlive their threads by design, and a thread may still hold one
  // from before the reset. Retired rings stay reachable from here (never
  // destroyed), so a leak checker sees them as live rather than lost.
  static auto* retired = new std::vector<Ring*>;
  g_enabled.store(false, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kRecorderMaxThreads; ++i) {
    Ring* ring = g_rings[i].exchange(nullptr, std::memory_order_relaxed);
    if (ring != nullptr) retired->push_back(ring);
  }
  g_ring_claims.store(0, std::memory_order_relaxed);
  g_threads_dropped.store(0, std::memory_order_relaxed);
  g_generation.fetch_add(1, std::memory_order_release);
}

}  // namespace flatnet::obs
