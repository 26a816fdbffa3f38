#include "gat/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace gat::wire {

namespace {

/// Pending-connection queue length passed to listen(2).
constexpr int kListenBacklog = 64;

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

Server::Server(FrontDoor& door, ServerOptions options)
    : door_(door), options_(std::move(options)) {}

Server::~Server() { Stop(); }

bool Server::Start() {
  if (started_ || options_.executor == nullptr) return false;

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1 ||
      bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, kListenBacklog) != 0 ||
      !SetNonBlocking(listen_fd_) || pipe(wake_fds_) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  interactive_group_ =
      std::make_unique<TaskGroup>(*options_.executor, TaskPriority::kHigh);
  bulk_group_ =
      std::make_unique<TaskGroup>(*options_.executor, TaskPriority::kLow);

  started_ = true;
  running_.store(true, std::memory_order_release);
  poll_thread_ = std::thread([this] { PollLoop(); });
  return true;
}

void Server::Stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  Wake();
  poll_thread_.join();
  // The poll thread is gone, so no new requests can queue; in-flight
  // tasks may still be chaining through connection queues. Their
  // chains terminate (pending is finite once reads stop) and the
  // groups' barriers cover every link.
  interactive_group_->Wait();
  bulk_group_->Wait();
  for (const auto& conn : connections_) {
    close(conn->fd);
    sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  }
  connections_.clear();
  close(listen_fd_);
  close(wake_fds_[0]);
  close(wake_fds_[1]);
  listen_fd_ = wake_fds_[0] = wake_fds_[1] = -1;
  started_ = false;
}

ServerCounters Server::counters() const {
  ServerCounters out;
  out.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  out.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  out.requests_served = requests_served_.load(std::memory_order_relaxed);
  out.ingests_served = ingests_served_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return out;
}

void Server::Wake() {
  const char byte = 0;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = write(wake_fds_[1], &byte, 1);
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[16384];
  for (;;) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->session.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: no more input. Responses still owed (queued
    // requests, an in-flight task) flush before the close.
    conn->input_closed = true;
    break;
  }
  InboundFrame inbound;
  for (;;) {
    const Session::Event event = conn->session.Next(&inbound);
    if (event == Session::Event::kRequest) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->pending.push_back(std::move(inbound));
      continue;
    }
    if (event == Session::Event::kClosed) {
      if (!conn->input_closed) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        conn->input_closed = true;
        // Stop reading a protocol violator; what is already decoded
        // still gets served and flushed (clean close, not a crash —
        // and not an abandoned valid request either).
        shutdown(conn->fd, SHUT_RD);
      }
      break;
    }
    break;  // kNeedMore
  }
}

void Server::PumpConnection(std::shared_ptr<Connection> conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->pumping) return;  // the active pumper will see our work
    conn->pumping = true;
  }
  for (;;) {
    InboundFrame inbound;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      if (conn->busy || conn->pending.empty()) {
        conn->pumping = false;
        // A connection this leaves drained must be retired by the poll
        // thread, which may have checked it while this thread pumped.
        const bool drained =
            !conn->busy && conn->outbox.empty() && conn->input_closed;
        lock.unlock();
        if (drained) Wake();
        return;
      }
      inbound = std::move(conn->pending.front());
      conn->pending.pop_front();
    }

    // Ingest frames are answered inline by whichever thread pumps the
    // queue: the whole write path is admission + a validated delta
    // append — no engine work to schedule — and answering in place
    // keeps this connection's acks and responses in arrival order.
    if (inbound.kind == InboundFrame::Kind::kIngest) {
      std::string ack = IngestFrame(door_, inbound.ingest);
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->outbox += ack;
      ingests_served_.fetch_add(1, std::memory_order_relaxed);
      Wake();
      continue;
    }
    ServeRequest& request = inbound.request;

    // Zero-engine-work path first: shed and already-expired requests
    // are answered right here, with no executor task ever existing.
    std::string frame;
    if (TryServeFastPath(door_, request, &frame) ==
        DispatchOutcome::kResponded) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->outbox += frame;
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      Wake();
      continue;
    }

    // Admitted and live: one task, carrying the request by shared_ptr
    // (std::function requires copyable captures). `busy` keeps this
    // connection's answers in arrival order; the task re-pumps on
    // completion so queued successors never wait for the poll thread.
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->busy = true;
      conn->pumping = false;
    }
    auto shared_request = std::make_shared<ServeRequest>(std::move(request));
    TaskGroup& group = shared_request->priority == RequestPriority::kBulk
                           ? *bulk_group_
                           : *interactive_group_;
    group.Submit([this, conn, shared_request] {
      std::string response = ServeAdmittedFrame(door_, *shared_request);
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->outbox += response;
        conn->busy = false;
        requests_served_.fetch_add(1, std::memory_order_relaxed);
      }
      Wake();
      PumpConnection(conn);
    });
    return;
  }
}

bool Server::FlushOutbox(Connection& conn) {
  std::lock_guard<std::mutex> lock(conn.mu);
  while (!conn.outbox.empty()) {
    // MSG_NOSIGNAL: a peer that vanished mid-response is a dropped
    // connection, not a SIGPIPE process kill.
    const ssize_t n =
        send(conn.fd, conn.outbox.data(), conn.outbox.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbox.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    conn.outbox.clear();  // undeliverable; let the connection retire
    return false;
  }
  return true;
}

void Server::PollLoop() {
  while (running_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.reserve(connections_.size() + 2);
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_fds_[0], POLLIN, 0});
    for (const auto& conn : connections_) {
      short events = 0;
      if (!conn->input_closed) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->outbox.empty()) events |= POLLOUT;
      }
      fds.push_back({conn->fd, events, 0});
    }

    if (poll(fds.data(), fds.size(), /*timeout_ms=*/-1) < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (fds[1].revents & POLLIN) {
      char drain[256];
      while (read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }

    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        SetNonBlocking(fd);
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        connections_.push_back(std::move(conn));
        sessions_opened_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // Only the connections that were polled: the ones accepted above
    // sit past the end of `fds` and get their first poll next round.
    const size_t polled = fds.size() - 2;
    for (size_t i = 0; i < polled; ++i) {
      const auto& conn = connections_[i];
      const short revents = fds[i + 2].revents;
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        HandleReadable(conn);
        PumpConnection(conn);
      }
      if (revents & POLLOUT) {
        if (!FlushOutbox(*conn)) conn->input_closed = true;
      }
    }

    // Retire connections with nothing left to read, run or write.
    for (size_t i = 0; i < connections_.size();) {
      const auto& conn = connections_[i];
      bool drained;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        drained = conn->input_closed && !conn->busy && !conn->pumping &&
                  conn->pending.empty() && conn->outbox.empty();
      }
      if (drained) {
        close(conn->fd);
        sessions_closed_.fetch_add(1, std::memory_order_relaxed);
        connections_.erase(connections_.begin() +
                           static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
}

}  // namespace gat::wire
