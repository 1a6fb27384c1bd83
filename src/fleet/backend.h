// Backend shard connections and health for the fleet router.
//
// BackendConn is one nonblocking TCP connection speaking the serve line
// protocol: SendLine writes a framed request, ReadLine poll-waits for one
// complete response line. The split ReadAvailable/TakeLine surface lets
// the router poll two connections at once for hedged requests — first
// complete line on either fd wins.
//
// BackendPool owns per-shard stacks of idle connections (checkout / checkin,
// dial on demand) plus each shard's health word. Health is driven from two
// sides: request-path failures call MarkFailure — a shard is dead after two
// consecutive ones — and the router's prober calls MarkSuccess /
// MarkFailure on periodic status round-trips, which is also how a
// restarted shard rejoins the ring. Transitions are logged and counted
// (fleet.shard.died / fleet.shard.revived); every dial a checkout makes is
// counted in fleet.backend.dials.
#ifndef FLATNET_FLEET_BACKEND_H_
#define FLATNET_FLEET_BACKEND_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace flatnet::fleet {

struct BackendAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  std::string ToString() const;
};

// Parses "host:port" (host optional: ":7001" and "7001" mean 127.0.0.1).
// Throws ParseError on malformed input.
BackendAddress ParseBackendAddress(const std::string& text);

class BackendConn {
 public:
  // Connects (nonblocking + poll) within `timeout`; throws Error on refusal
  // or timeout.
  static std::unique_ptr<BackendConn> Dial(const BackendAddress& address,
                                           std::chrono::milliseconds timeout);
  ~BackendConn();

  BackendConn(const BackendConn&) = delete;
  BackendConn& operator=(const BackendConn&) = delete;

  int fd() const { return fd_; }

  // Writes `line` plus the trailing newline; poll-waits on a full socket
  // buffer. Throws Error when the peer is gone.
  void SendLine(const std::string& line);

  // Drains whatever the socket has ready into the line buffer without
  // blocking. Throws Error on EOF or transport error.
  void ReadAvailable();

  // Pops one complete line from the buffer, if any.
  std::optional<std::string> TakeLine();

  // Blocks (poll) until one complete line or `deadline`. Returns nullopt on
  // deadline (the connection stays usable); throws Error on transport
  // failure.
  std::optional<std::string> ReadLine(std::chrono::steady_clock::time_point deadline);

 private:
  explicit BackendConn(int fd) : fd_(fd) {}

  int fd_;
  std::string buffer_;
};

class BackendPool {
 public:
  explicit BackendPool(std::vector<BackendAddress> backends);

  std::size_t num_shards() const { return backends_.size(); }
  const BackendAddress& address(std::size_t shard) const { return backends_[shard]; }

  // Pops an idle connection or dials a new one; throws Error when the shard
  // is unreachable (callers pair that with MarkFailure).
  std::unique_ptr<BackendConn> Checkout(std::size_t shard);

  // Returns a connection with no in-flight request to the idle stack. Never
  // check in a connection whose response was abandoned — close it instead,
  // or the next checkout would read the stale response.
  void Checkin(std::size_t shard, std::unique_ptr<BackendConn> conn);

  // Drops every idle connection to `shard` (after a transport failure the
  // pooled fds are likely dead too).
  void DropIdle(std::size_t shard);

  bool alive(std::size_t shard) const;
  std::vector<bool> AliveMask() const;
  std::size_t NumAlive() const;

  void MarkSuccess(std::size_t shard);
  void MarkFailure(std::size_t shard);

  // Lifetime count of alive→dead transitions (ring-heal observability).
  std::uint64_t deaths() const;

 private:
  struct ShardState {
    mutable std::mutex mu;
    std::vector<std::unique_ptr<BackendConn>> idle;
    bool alive = true;
    std::size_t consecutive_failures = 0;
  };

  std::vector<BackendAddress> backends_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::atomic<std::uint64_t> deaths_{0};
};

}  // namespace flatnet::fleet

#endif  // FLATNET_FLEET_BACKEND_H_
