#ifndef GAT_NET_SERVER_H_
#define GAT_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gat/engine/executor.h"
#include "gat/net/session.h"
#include "gat/serve/front_door.h"

namespace gat::wire {

/// Server knobs. IPv4 only — the test/bench/ops surface this server
/// exists for is loopback and rack-local addresses.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; `port()` reports the bound one.
  uint16_t port = 0;
  /// Runs admitted requests as tasks on this executor, one task per
  /// request — the transport schedules at request granularity, and the
  /// request's batch runs on that task with only the shard fan-out
  /// below it on the same pool. Non-owning; must outlive the server.
  /// Required: `Start()` refuses a server without one.
  Executor* executor = nullptr;
};

/// Transport-level counters (policy counters live in FrontDoor).
struct ServerCounters {
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t requests_served = 0;
  /// kIngest frames answered (always on the pumping thread — ingestion
  /// is a delta append, never an executor task).
  uint64_t ingests_served = 0;
  /// Sessions that hit malformed input and were closed cleanly.
  uint64_t protocol_errors = 0;
};

/// A poll(2)-based socket front end over `FrontDoor`: one poll thread
/// owns every descriptor (listener, wakeup pipe, connections) and all
/// framing state; admitted live requests run as executor tasks.
///
/// Transport adds parsing, not policy. Admission, deadlines and
/// priorities stay in `FrontDoor`; the server's one scheduling duty is
/// the zero-engine-work invariant: shed and already-expired requests
/// are answered on the poll thread (or on a predecessor's task while
/// it drains the connection queue) via `TryServeFastPath` — no
/// executor task is ever submitted for them, so
/// `Executor::tasks_submitted()` does not move under pure overload.
///
/// Per connection, requests are answered strictly in arrival order
/// (at most one engine task in flight per connection; queued
/// successors wait, fast-path successors are answered by whichever
/// thread drains the queue). Malformed input closes the connection
/// cleanly after flushing responses already earned — never a crash,
/// never a partial frame.
class Server {
 public:
  /// `door` is borrowed and must outlive the server.
  explicit Server(FrontDoor& door, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the poll thread. False when no executor
  /// was given and on any socket failure (port in use, bad host). Call
  /// once.
  bool Start();

  /// Stops accepting, joins the poll thread, waits for in-flight
  /// request tasks, closes every connection. Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  ServerCounters counters() const;

 private:
  struct Connection {
    int fd = -1;
    /// Framing state: poll thread only.
    Session session;
    /// Everything below is shared with request tasks.
    std::mutex mu;
    std::deque<InboundFrame> pending;
    std::string outbox;
    bool busy = false;     // one engine task in flight
    bool pumping = false;  // one thread draining `pending`
    /// Set by the poll thread only; PumpConnection reads it on any
    /// thread to decide whether the poll thread must wake and retire the
    /// connection.
    std::atomic<bool> input_closed{false};
  };

  void PollLoop();
  void Wake();
  /// Reads all available bytes, feeds the session, queues requests.
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Drains `pending`: fast-path responses inline, at most one engine
  /// task in flight. Callable from the poll thread and from tasks.
  void PumpConnection(std::shared_ptr<Connection> conn);
  /// Writes as much outbox as the socket takes. False = write error.
  bool FlushOutbox(Connection& conn);

  FrontDoor& door_;
  const ServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written
  std::thread poll_thread_;
  std::atomic<bool> running_{false};
  bool started_ = false;

  /// One group per priority class so bulk request tasks yield the
  /// pool to interactive ones, mirroring the engine's two queues.
  std::unique_ptr<TaskGroup> interactive_group_;
  std::unique_ptr<TaskGroup> bulk_group_;

  /// Poll-thread-owned connection list.
  std::vector<std::shared_ptr<Connection>> connections_;

  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> ingests_served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace gat::wire

#endif  // GAT_NET_SERVER_H_
