#include "fleet/backend.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatnet::fleet {
namespace {

struct FleetCounters {
  obs::Counter& died = obs::GetCounter("fleet.shard.died");
  obs::Counter& revived = obs::GetCounter("fleet.shard.revived");
  obs::Counter& dials = obs::GetCounter("fleet.backend.dials");
};

FleetCounters& Counters() {
  static FleetCounters counters;
  return counters;
}

int PollMs(std::chrono::steady_clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  if (left.count() <= 0) return 0;
  // Cap individual polls so a far deadline still re-checks promptly.
  return static_cast<int>(std::min<std::int64_t>(left.count(), 1000));
}

}  // namespace

std::string BackendAddress::ToString() const {
  return StrFormat("%s:%u", host.c_str(), static_cast<unsigned>(port));
}

BackendAddress ParseBackendAddress(const std::string& text) {
  BackendAddress address;
  std::string port_text = text;
  std::size_t colon = text.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) address.host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
  }
  auto port = ParseU64(port_text);
  if (!port || *port == 0 || *port > 65535) {
    throw ParseError(StrFormat("backend address '%s': bad port", text.c_str()));
  }
  address.port = static_cast<std::uint16_t>(*port);
  return address;
}

std::unique_ptr<BackendConn> BackendConn::Dial(const BackendAddress& address,
                                               std::chrono::milliseconds timeout) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) throw Error(StrFormat("socket: %s", std::strerror(errno)));
  Counters().dials.Increment();

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(address.port);
  if (::inet_pton(AF_INET, address.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw Error(StrFormat("backend '%s': bad address", address.host.c_str()));
  }
  // A request leaves when it is written; see serve::Server::AcceptLoop for
  // the stall Nagle would add. A failure costs latency only; keep the dial.
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    int err = errno;
    obs::Log(obs::LogLevel::kWarn, "fleet", "backend.nodelay_failed")
        .Kv("backend", address.ToString())
        .Kv("errno", err)
        .Kv("error", std::strerror(err));
  }

  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      int err = errno;
      ::close(fd);
      throw Error(StrFormat("connect %s: %s", address.ToString().c_str(),
                            std::strerror(err)));
    }
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (ready <= 0) {
      ::close(fd);
      throw Error(StrFormat("connect %s: timed out", address.ToString().c_str()));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      throw Error(StrFormat("connect %s: %s", address.ToString().c_str(),
                            std::strerror(err != 0 ? err : errno)));
    }
  }
  return std::unique_ptr<BackendConn>(new BackendConn(fd));
}

BackendConn::~BackendConn() {
  if (fd_ >= 0) ::close(fd_);
}

void BackendConn::SendLine(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      if (::poll(&pfd, 1, 1000) <= 0) throw Error("backend send: stalled");
      continue;
    }
    throw Error(StrFormat("backend send: %s", std::strerror(errno)));
  }
}

void BackendConn::ReadAvailable() {
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return;
      continue;
    }
    if (n == 0) throw Error("backend closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    throw Error(StrFormat("backend recv: %s", std::strerror(errno)));
  }
}

std::optional<std::string> BackendConn::TakeLine() {
  std::size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) return std::nullopt;
  std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

std::optional<std::string> BackendConn::ReadLine(
    std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    if (auto line = TakeLine()) return line;
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, PollMs(deadline));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw Error(StrFormat("backend poll: %s", std::strerror(errno)));
    }
    if (ready == 0) continue;  // re-check the deadline
    ReadAvailable();
  }
}

BackendPool::BackendPool(std::vector<BackendAddress> backends,
                         const BackendPoolOptions& options)
    : backends_(std::move(backends)), options_(options) {
  if (backends_.empty()) throw InvalidArgument("fleet: need at least one backend");
  shards_.reserve(backends_.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    shards_.push_back(std::make_unique<ShardState>());
  }
}

std::unique_ptr<BackendConn> BackendPool::Checkout(std::size_t shard) {
  {
    ShardState& state = *shards_[shard];
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.idle.empty()) {
      std::unique_ptr<BackendConn> conn = std::move(state.idle.back());
      state.idle.pop_back();
      return conn;
    }
  }
  return BackendConn::Dial(backends_[shard], options_.dial_timeout);
}

void BackendPool::Checkin(std::size_t shard, std::unique_ptr<BackendConn> conn) {
  if (conn == nullptr) return;
  ShardState& state = *shards_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.idle.size() < options_.max_idle) state.idle.push_back(std::move(conn));
}

void BackendPool::DropIdle(std::size_t shard) {
  ShardState& state = *shards_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  state.idle.clear();
}

bool BackendPool::alive(std::size_t shard) const {
  ShardState& state = *shards_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  return state.alive;
}

std::vector<bool> BackendPool::AliveMask() const {
  std::vector<bool> mask(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) mask[i] = alive(i);
  return mask;
}

std::size_t BackendPool::NumAlive() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (alive(i)) ++n;
  }
  return n;
}

void BackendPool::MarkSuccess(std::size_t shard) {
  ShardState& state = *shards_[shard];
  bool revived = false;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.consecutive_failures = 0;
    if (!state.alive) {
      state.alive = true;
      revived = true;
    }
  }
  if (revived) {
    Counters().revived.Increment();
    obs::Log(obs::LogLevel::kInfo, "fleet", "shard.revived")
        .Kv("shard", static_cast<std::uint64_t>(shard))
        .Kv("address", backends_[shard].ToString());
  }
}

void BackendPool::MarkFailure(std::size_t shard) {
  ShardState& state = *shards_[shard];
  bool died = false;
  std::size_t failures = 0;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    failures = ++state.consecutive_failures;
    if (state.alive && failures >= options_.failures_to_dead) {
      state.alive = false;
      died = true;
    }
    // A dead shard's idle fds are certainly stale; drop them here so a
    // revival starts from fresh dials.
    if (died) state.idle.clear();
  }
  if (died) {
    deaths_.fetch_add(1, std::memory_order_relaxed);
    Counters().died.Increment();
    obs::Log(obs::LogLevel::kWarn, "fleet", "shard.died")
        .Kv("shard", static_cast<std::uint64_t>(shard))
        .Kv("address", backends_[shard].ToString())
        .Kv("consecutive_failures", static_cast<std::uint64_t>(failures));
  }
}

std::uint64_t BackendPool::deaths() const {
  return deaths_.load(std::memory_order_relaxed);
}

}  // namespace flatnet::fleet
