// TCP front end for the resident analysis service.
//
// One acceptor thread polls the listening socket (100 ms tick) so a stop
// request is noticed promptly; each accepted connection gets a reader
// thread that splits the byte stream into lines and hands them to the
// line handler — the query dispatcher in flatnet_serve, the fleet router
// in flatnet_router. Responses are written back under a per-connection
// mutex — computed queries complete on pool threads, so replies to one
// connection may interleave across requests (clients match on `id`).
// Every accepted connection sets TCP_NODELAY, so a reply leaves when it is
// ready instead of waiting for the client's next request to ack the last.
//
// Connections whose reader has finished are reaped on the acceptor's next
// tick, so a churny client population does not grow the connection table
// without bound. `max_connections` (0 = unlimited) caps live connections;
// past the cap an accept is answered with one structured `overloaded`
// error line and closed, which a client (or the fleet router) treats as
// backpressure, not as a crash.
//
// Shutdown (RequestShutdown, typically from a SIGTERM handler — it is a
// single atomic store, safe in signal context) closes the listener, shuts
// down the read side of every connection, joins the readers, drains the
// handler via the `drain` callback so admitted queries still answer, then
// closes the sockets.
#ifndef FLATNET_SERVE_SERVER_H_
#define FLATNET_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/dispatcher.h"

namespace flatnet::serve {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  // 0 = let the kernel pick an ephemeral port (read back via port()).
  std::uint16_t port = 0;
  // Longest request line served, in bytes before its '\n'. A longer line is
  // answered with one `bad_request` (id null) naming the cap; its bytes are
  // discarded up to its newline, never buffered, and the connection stays.
  std::size_t max_line_bytes = 1 << 20;
  // Live-connection cap; 0 = unlimited. Excess accepts receive one
  // `overloaded` error line and are closed immediately.
  std::size_t max_connections = 0;
};

class Server {
 public:
  // One request line in, exactly one response line out via the callback
  // (which must be thread-safe against other responses on the same
  // connection). The time point is when the line was received off the wire.
  using LineHandler = std::function<void(const std::string& line,
                                         std::function<void(std::string)> done,
                                         std::chrono::steady_clock::time_point received_at)>;

  // Binds and listens; throws Error when the socket cannot be set up.
  // `drain` (nullable) runs during graceful shutdown after the readers have
  // stopped, before the sockets close.
  Server(LineHandler handler, std::function<void()> drain, const ServerOptions& options);
  // Convenience: serve a dispatcher (drain = Dispatcher::Drain).
  Server(Dispatcher& dispatcher, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // The bound port (resolves port 0 to the kernel's choice).
  std::uint16_t port() const { return port_; }

  // Serves until RequestShutdown; returns after the graceful drain.
  void Run();

  // Async-signal-safe: one relaxed atomic store.
  void RequestShutdown() { stop_.store(true, std::memory_order_relaxed); }

 private:
  // Reference-counted so an in-flight `done` callback (held by a pool
  // thread) keeps the fd open after the reader exits and the connection is
  // reaped; the fd closes in the destructor, never earlier, so a reused
  // descriptor can never receive a stale response.
  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    std::thread reader;
    std::atomic<bool> done_reading{false};
    ~Connection();
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  void AcceptLoop();
  // Joins and forgets connections whose reader has exited. The fd stays
  // open until the last response in flight releases its reference.
  void ReapFinished();
  void ReadLoop(const ConnectionPtr& connection);
  // Serializes whole-line writes on one connection; drops the line when the
  // peer has gone away (the reader notices the close separately).
  static void WriteLine(const ConnectionPtr& connection, const std::string& line);

  LineHandler handler_;
  std::function<void()> drain_;
  ServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};

  std::mutex connections_mu_;
  std::vector<ConnectionPtr> connections_;
};

}  // namespace flatnet::serve

#endif  // FLATNET_SERVE_SERVER_H_
