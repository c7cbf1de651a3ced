#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/socket_util.h"
#include "util/common.h"

namespace sws::net {

/// One accepted connection. Split ownership: the decoder, hello state
/// and read clock belong to the loop thread; the send queue belongs to
/// `mu`. Any thread may write the socket, but only while holding `mu`:
/// the loop flushes replies once per read chunk, and a runtime worker
/// writes its outcome frame itself when nothing is queued ahead of it.
/// The loop alone owns the fd's epoll interest (EPOLLOUT).
struct RpcServer::Connection {
  enum class Flush { kDrained, kPending, kDead };

  int fd = -1;
  FrameDecoder decoder;
  bool hello_done = false;
  bool gone = false;  // loop-side: removed from the map, fd closed
  bool epollout = false;  // loop-side: EPOLLOUT registered
  std::chrono::steady_clock::time_point last_read;

  std::mutex mu;
  std::string out;  // encoded frames; [out_off, end) unsent
  size_t out_off = 0;
  /// Bytes are pending and EPOLLOUT is (or is about to be) armed; a
  /// worker finding this set appends and leaves the write to the loop.
  bool want_write = false;
  bool closed = false;  // set before close(fd); writers shed instead
  std::chrono::steady_clock::time_point last_progress;

  /// Unsent bytes in `out`; read lock-free on the submit path for the
  /// backpressure decision.
  std::atomic<size_t> queued{0};

  /// The one flush routine, shared by the loop and the workers: writes
  /// `out` until it drains or the socket is full. Caller holds `mu` and
  /// has checked `closed`.
  Flush WriteLocked(rt::RuntimeStats* stats) {
    Flush result = Flush::kDrained;
    while (out_off < out.size()) {
      stats->OnNetWrite();
      ssize_t n = send(fd, out.data() + out_off, out.size() - out_off,
                       MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
        last_progress = std::chrono::steady_clock::now();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      result = (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                   ? Flush::kPending
                   : Flush::kDead;
      break;
    }
    if (out_off >= out.size()) {
      out.clear();
      out_off = 0;
    }
    queued.store(out.size() - out_off, std::memory_order_relaxed);
    return result;
  }

  /// Loop thread, `mu` held, not closed: matches the fd's epoll
  /// interest to `want_write`.
  void SyncInterest(EventLoop& loop) {
    if (want_write == epollout) return;
    epollout = want_write;
    loop.ModFd(fd, epollout ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
  }
};

/// Shared with outcome callbacks (weak), so a destroyed server turns
/// their wakeups into no-ops instead of use-after-free.
struct RpcServer::Core {
  EventLoop loop;
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
};

RpcServer::RpcServer(rt::ServiceRuntime* runtime, Options options)
    : runtime_(runtime), stats_(runtime->stats_sink()), options_(options) {}

RpcServer::~RpcServer() { Stop(); }

core::Status RpcServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  SWS_CHECK(!started_) << "RpcServer::Start called twice";
  std::string error;
  listen_fd_ = ListenOn(options_.host, options_.port, &error);
  if (listen_fd_ < 0) {
    return core::Status::Error(core::RunError::kNetworkError, error);
  }
  port_.store(BoundPort(listen_fd_), std::memory_order_relaxed);
  core_ = std::make_shared<Core>();
  core_->loop.AddFd(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); });
  core_->loop.SetTick(options_.sweep_interval, [this] { Sweep(); });
  loop_thread_ = std::thread([core = core_] { core->loop.Run(); });
  started_ = true;
  return core::Status::Ok();
}

void RpcServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  core_->loop.Stop();
  loop_thread_.join();
  // Loop is dead. Workers may still hold Connection pointers; marking
  // closed under mu before the close makes their late outcome deliveries
  // count as shed instead of writing to a closed (or reused) fd.
  for (auto& [fd, conn] : core_->conns) {
    MarkClosed(*conn);
    conn->gone = true;
    close(conn->fd);
  }
  core_->conns.clear();
  num_connections_.store(0, std::memory_order_relaxed);
  close(listen_fd_);
  listen_fd_ = -1;
}

void RpcServer::AcceptReady() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error — nothing to do
    stats_->OnNetConnAccepted();
    if (core_->conns.size() >= options_.max_connections) {
      // Overload: the cheapest honest signal is an immediate close —
      // accepting and holding would hand a flooder our memory.
      stats_->OnNetConnReaped();
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->decoder = FrameDecoder(
        FrameDecoder::Options{.max_payload = options_.max_frame_payload});
    conn->last_read = conn->last_progress = std::chrono::steady_clock::now();
    core_->conns.emplace(fd, conn);
    num_connections_.store(core_->conns.size(), std::memory_order_relaxed);
    core_->loop.AddFd(fd, EPOLLIN, [this, conn](uint32_t events) {
      if (events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn);
        return;
      }
      if (events & EPOLLIN) ConnReadable(conn);
      if (!conn->gone && (events & EPOLLOUT)) ConnWritable(conn);
    });
  }
}

void RpcServer::ConnReadable(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->last_read = std::chrono::steady_clock::now();
      if (!conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)))) {
        stats_->OnNetFramesRejected(1);
        RejectConn(conn, static_cast<uint8_t>(core::RunError::kProtocolError),
                   WireErrorName(conn->decoder.error()));
        return;
      }
      if (!DispatchFrames(conn)) return;
      // One write for every reply this chunk produced.
      FlushConn(conn);
      if (conn->gone) return;
      continue;
    }
    if (n == 0) {  // orderly peer close
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    CloseConn(conn);
    return;
  }
}

bool RpcServer::DispatchFrames(const std::shared_ptr<Connection>& conn) {
  Frame frame;
  for (;;) {
    switch (conn->decoder.Next(&frame)) {
      case FrameDecoder::Result::kNeedMore:
        return true;
      case FrameDecoder::Result::kError:
        stats_->OnNetFramesRejected(1);
        RejectConn(conn, static_cast<uint8_t>(core::RunError::kProtocolError),
                   WireErrorName(conn->decoder.error()));
        return false;
      case FrameDecoder::Result::kFrame:
        break;
    }
    if (!conn->hello_done) {
      auto hello = frame.type == MsgType::kHello ? DecodeHello(frame.payload)
                                                 : std::nullopt;
      if (!hello || hello->role != Hello::Role::kClient ||
          hello->protocol_version != kProtocolVersion) {
        stats_->OnNetFramesRejected(1);
        RejectConn(conn, static_cast<uint8_t>(core::RunError::kProtocolError),
                   "bad hello");
        return false;
      }
      conn->hello_done = true;
      continue;
    }
    switch (frame.type) {
      case MsgType::kSubmit:
        HandleSubmit(conn, frame.payload);
        break;
      case MsgType::kPing:
        SendFrame(conn, MsgType::kPong, std::string(frame.payload));
        break;
      case MsgType::kStatsRequest:
        SendFrame(conn, MsgType::kStatsResponse,
                  EncodeStatsReply({runtime_->Stats().ToJson()}));
        break;
      case MsgType::kInspectRequest: {
        auto request = DecodeInspectRequest(frame.payload);
        if (!request) {
          stats_->OnNetFramesRejected(1);
          RejectConn(conn,
                     static_cast<uint8_t>(core::RunError::kProtocolError),
                     "bad inspect");
          return false;
        }
        InspectReply reply;
        reply.session_id = request->session_id;
        reply.shard = runtime_->ShardOf(request->session_id);
        reply.num_shards = runtime_->num_shards();
        reply.num_workers = runtime_->num_workers();
        SendFrame(conn, MsgType::kInspectResponse, EncodeInspectReply(reply));
        break;
      }
      default:
        // Server-to-client or replication types arriving at the RPC
        // port: a confused or hostile peer — cut it.
        stats_->OnNetFramesRejected(1);
        RejectConn(conn, static_cast<uint8_t>(core::RunError::kProtocolError),
                   "unexpected frame type");
        return false;
    }
    if (conn->gone) return false;
  }
}

void RpcServer::HandleSubmit(const std::shared_ptr<Connection>& conn,
                             std::string_view payload) {
  auto request = DecodeSubmitRequest(payload);
  if (!request) {
    stats_->OnNetFramesRejected(1);
    RejectConn(conn, static_cast<uint8_t>(core::RunError::kProtocolError),
               "bad submit");
    return;
  }
  const uint64_t request_id = request->request_id;
  const size_t queued = conn->queued.load(std::memory_order_relaxed);
  if (queued > options_.send_hard_bytes) {
    // The peer is not draining its replies; admitting more work would
    // buffer unboundedly. Reject at the door.
    stats_->OnNetBytesShed(payload.size());
    SendFrame(conn, MsgType::kError,
              EncodeErrorReply(
                  {request_id,
                   static_cast<uint8_t>(core::RunError::kQueueRejected),
                   "send queue full"}));
    return;
  }
  rt::SubmitOptions sopts;
  sopts.priority = static_cast<rt::Priority>(request->priority);
  if (queued > options_.send_soft_bytes) {
    // Soft backpressure: a slow consumer's work competes as kLow, so
    // the runtime's ShedPolicy sheds it before well-behaved traffic.
    sopts.priority = rt::Priority::kLow;
  }
  if (request->deadline_ns > 0) {
    sopts.deadline = std::chrono::nanoseconds(request->deadline_ns);
  }
  // The callback runs on a pool worker, possibly after this server is
  // stopped (the runtime outlives it): it touches only the connection's
  // mu-guarded send queue and a weak Core. stats outlives both
  // (runtime-owned).
  rt::RuntimeStats* stats = stats_;
  std::weak_ptr<Core> weak_core = core_;
  sopts.callback = [stats, weak_core, conn, request_id](rt::Outcome outcome) {
    OutcomeReply reply;
    reply.request_id = request_id;
    reply.session_id = outcome.session_id;
    reply.status_code = static_cast<uint8_t>(outcome.status.code());
    reply.status_message = outcome.status.message();
    reply.attempts = outcome.attempts;
    reply.has_output = outcome.status.ok() && outcome.session.has_value();
    if (reply.has_output) reply.output = outcome.session->output;
    std::string bytes =
        EncodeFrame(MsgType::kOutcome, EncodeOutcomeReply(reply));
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) {
      stats->OnNetBytesShed(bytes.size());
      return;
    }
    // Bytes already queued belong to a flush the loop still owes (its
    // end-of-chunk flush, or EPOLLOUT): append and leave it to that.
    const bool idle = conn->out.empty() && !conn->want_write;
    conn->out.append(bytes);
    if (!idle) {
      conn->queued.fetch_add(bytes.size(), std::memory_order_relaxed);
      return;
    }
    // Nothing ahead of us: write it here rather than hop to the loop.
    // A short write (or a dead peer, which the loop then discovers)
    // leaves the rest queued and asks the loop to arm EPOLLOUT.
    if (conn->WriteLocked(stats) == Connection::Flush::kDrained) return;
    conn->want_write = true;
    if (auto core = weak_core.lock()) {
      EventLoop* loop = &core->loop;
      loop->RunInLoop([loop, conn] {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->closed) conn->SyncInterest(*loop);
      });
    }
  };
  core::Status status = runtime_->Submit(std::move(request->session_id),
                                         std::move(request->message),
                                         std::move(sopts));
  if (conn->gone) return;
  if (status.ok()) {
    SendFrame(conn, MsgType::kSubmitAck, EncodeSubmitAck({request_id}));
  } else {
    SendFrame(conn, MsgType::kError,
              EncodeErrorReply({request_id,
                                static_cast<uint8_t>(status.code()),
                                status.message()}));
  }
}

void RpcServer::SendFrame(const std::shared_ptr<Connection>& conn,
                          MsgType type, const std::string& payload) {
  if (conn->gone) return;
  std::string bytes = EncodeFrame(type, payload);
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->closed) {
    stats_->OnNetBytesShed(bytes.size());
    return;
  }
  conn->out.append(bytes);
  conn->queued.fetch_add(bytes.size(), std::memory_order_relaxed);
}

void RpcServer::FlushConn(const std::shared_ptr<Connection>& conn) {
  if (conn->gone) return;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->WriteLocked(stats_) != Connection::Flush::kDead) {
      conn->want_write = !conn->out.empty();
      conn->SyncInterest(core_->loop);
      return;
    }
  }
  CloseConn(conn);  // peer is gone; unsent bytes are shed by the close
}

void RpcServer::ConnWritable(const std::shared_ptr<Connection>& conn) {
  FlushConn(conn);
}

void RpcServer::RejectConn(const std::shared_ptr<Connection>& conn,
                           uint8_t code, const std::string& message) {
  if (conn->gone) return;
  // Best-effort typed goodbye behind the replies already queued: one
  // nonblocking flush, no waiting — the connection is being cut either
  // way, and what the socket did not take is shed by the close.
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->out.append(
        EncodeFrame(MsgType::kError, EncodeErrorReply({0, code, message})));
    conn->WriteLocked(stats_);
  }
  CloseConn(conn);
}

void RpcServer::MarkClosed(Connection& conn) {
  size_t shed;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.closed = true;
    shed = conn.out.size() - conn.out_off;
    conn.queued.store(0, std::memory_order_relaxed);
  }
  stats_->OnNetBytesShed(shed);
}

void RpcServer::CloseConn(const std::shared_ptr<Connection>& conn) {
  if (conn->gone) return;
  conn->gone = true;
  MarkClosed(*conn);
  core_->loop.DelFd(conn->fd);
  close(conn->fd);
  core_->conns.erase(conn->fd);
  num_connections_.store(core_->conns.size(), std::memory_order_relaxed);
}

void RpcServer::Sweep() {
  const auto now = std::chrono::steady_clock::now();
  // CloseConn mutates the map; sweep over a snapshot of the values.
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(core_->conns.size());
  for (const auto& [fd, conn] : core_->conns) conns.push_back(conn);
  for (const auto& conn : conns) {
    if (conn->gone) continue;
    std::chrono::steady_clock::time_point last_progress;
    bool has_backlog;
    {
      // Workers write too, so the progress clock is read under mu.
      std::lock_guard<std::mutex> lock(conn->mu);
      last_progress = conn->last_progress;
      has_backlog = !conn->out.empty();
    }
    const auto last_activity = std::max(conn->last_read, last_progress);
    if (has_backlog && now - last_progress > options_.write_timeout) {
      // Writer wedged: the peer took our acks' TCP window to zero and
      // sat on it. Classic slow-loris read variant.
      stats_->OnNetConnReaped();
      CloseConn(conn);
      continue;
    }
    if (now - last_activity > options_.idle_timeout) {
      stats_->OnNetConnReaped();
      CloseConn(conn);
    }
  }
}

}  // namespace sws::net
