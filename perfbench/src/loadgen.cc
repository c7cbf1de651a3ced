// The wire-level load generator: one thread multiplexing up to four
// nonblocking loopback connections to the front door, framing requests
// with the public wire API (EncodeSubmitRequest/EncodeFrame out,
// FrameDecoder/DecodeOutcomeReply in). A blocking client cannot keep a
// send schedule, so this one never waits on a single reply.
//
// Closed loop: one session in flight per connection; the next starts
// when the previous one is verified or has timed out. Open loop: seeded
// Poisson arrivals, each session timed from its due time, so a stalled
// generator or server is charged to the sessions it delayed.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <optional>
#include <unordered_map>
#include <utility>

#include "net/messages.h"
#include "net/wire.h"
#include "perfbench.h"

namespace perfbench {

using sws::net::MsgType;

struct Generator::Conn {
  int fd = -1;
  sws::net::FrameDecoder decoder;
  std::string out;
  size_t out_off = 0;
  bool dead = false;
};

struct Generator::Pending {
  SessionSource::Draw draw;
  const sws::rel::Relation* expected = nullptr;
  size_t conn = 0;
  Clock::time_point start;  // due time (open loop) or send time (closed)
  Clock::time_point sent;
  uint64_t delimiter_request = 0;
  uint64_t span = 0;
};

void PhaseResult::Add(const std::string& id, SessionRecord record,
                      size_t inputs, bool keep) {
  ++attempted;
  ++fates[static_cast<size_t>(record.fate)];
  if (record.fate == Fate::kOk) {
    AckedSession& a = acked[id];
    a.id = id;
    a.inputs += inputs;
    ++a.sessions;
  } else {
    ++incomplete[id];
  }
  if (keep) sessions.push_back(record);
}

void PhaseResult::MarkOk(std::vector<SessionRecord>::iterator it,
                         const std::string& id, size_t inputs) {
  --fates[static_cast<size_t>(it->fate)];
  if (--incomplete[id] == 0) incomplete.erase(id);
  it->fate = Fate::kOk;
  ++fates[static_cast<size_t>(Fate::kOk)];
  AckedSession& a = acked[id];
  a.id = id;
  a.inputs += inputs;
  ++a.sessions;
}

Generator::Generator(uint16_t port, size_t connections, Tracer* tracer)
    : port_(port), num_connections_(connections), tracer_(tracer) {}

Generator::~Generator() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

sws::core::Status Generator::Connect() {
  for (size_t i = 0; i < num_connections_; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0) {
      return sws::core::Status::Error(sws::core::RunError::kNetworkError,
                                      "socket");
    }
    int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(conn->fd);
      return sws::core::Status::Error(sws::core::RunError::kNetworkError,
                                      "connect");
    }
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    sws::net::Hello hello;
    hello.source = "perfbench";
    conn->out = sws::net::EncodeFrame(MsgType::kHello,
                                      sws::net::EncodeHello(hello));
    conns_.push_back(std::move(conn));
  }
  return sws::core::Status::Ok();
}

namespace {

// Writes as much of the connection's queue as the socket takes.
uint64_t Flush(int fd, std::string* out, size_t* off, bool* dead) {
  uint64_t written = 0;
  while (*off < out->size()) {
    ssize_t n = ::write(fd, out->data() + *off, out->size() - *off);
    if (n > 0) {
      *off += static_cast<size_t>(n);
      written += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    *dead = true;
    break;
  }
  if (*off == out->size()) {
    out->clear();
    *off = 0;
  }
  return written;
}

bool IsRefusal(uint8_t code) {
  const auto c = static_cast<sws::core::RunError>(code);
  return c == sws::core::RunError::kQueueRejected ||
         c == sws::core::RunError::kShutdown;
}

}  // namespace

PhaseResult Generator::Run(const PhaseSpec& spec, SessionSource* source) {
  PhaseResult result;
  std::unordered_map<uint64_t, Pending> pending;  // by delimiter request id
  std::unordered_map<uint64_t, uint64_t> request_to_session;
  std::mt19937_64 schedule_rng(spec.schedule_seed);
  std::exponential_distribution<double> gap(spec.open_loop ? spec.rate : 1.0);

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point t_end =
      spec.seconds > 0
          ? t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(spec.seconds))
          : Clock::time_point::max();
  Clock::time_point next_due = t0;
  size_t started = 0;
  size_t rr = 0;
  bool stop_starting = false;
  Clock::time_point drain_deadline = Clock::time_point::max();
  std::vector<std::pair<double, double>> inflight_samples;  // (t, count)
  Clock::time_point next_sample = t0;
  std::vector<size_t> conn_inflight(conns_.size(), 0);
  const bool keep_records = spec.open_loop || spec.max_sessions != 0;

  // A connection that died takes no new sessions.
  auto live_conn = [&](size_t preferred) -> std::optional<size_t> {
    for (size_t k = 0; k < conns_.size(); ++k) {
      const size_t ci = (preferred + k) % conns_.size();
      if (!conns_[ci]->dead) return ci;
    }
    return std::nullopt;
  };

  auto finish = [&](Pending& p, Fate fate, Clock::time_point now) {
    SessionRecord rec;
    rec.planted = p.expected != &p.draw.input->expected;
    rec.pool_index = p.draw.pool_index;
    rec.fate = fate;
    rec.start_s = MicrosBetween(t0, p.start) * 1e-6;
    rec.latency_us = MicrosBetween(p.start, now);
    rec.lag_us = MicrosBetween(p.start, p.sent);
    result.Add(p.draw.id, rec, p.draw.input->messages.size(), keep_records);
    if (tracer_->enabled()) {
      tracer_->RecordWithId(p.span, "tcp.session", 0, p.draw.id, p.start, now);
    }
  };

  auto start_session = [&](size_t ci, Clock::time_point due) {
    Conn& conn = *conns_[ci];
    Pending p;
    p.draw = source->Next();
    p.expected = &p.draw.input->expected;
    if (spec.expected_override) {
      if (const sws::rel::Relation* e = spec.expected_override(p.draw)) {
        p.expected = e;
      }
    }
    p.conn = ci;
    ++conn_inflight[ci];
    p.span = tracer_->Reserve();
    const Clock::time_point send_start = Clock::now();
    uint64_t last = 0;
    for (const sws::rel::Relation& message : p.draw.input->messages) {
      sws::net::SubmitRequest request;
      request.request_id = next_request_++;
      request.session_id = p.draw.id;
      request.message = message;
      conn.out += sws::net::EncodeFrame(
          MsgType::kSubmit, sws::net::EncodeSubmitRequest(request));
      last = request.request_id;
    }
    result.bytes += Flush(conn.fd, &conn.out, &conn.out_off, &conn.dead);
    p.sent = Clock::now();
    p.start = spec.open_loop ? due : send_start;
    p.delimiter_request = last;
    if (tracer_->enabled()) {
      tracer_->Record("tcp.send", p.span, p.draw.id, send_start, p.sent);
    }
    for (uint64_t r = last + 1 - p.draw.input->messages.size(); r <= last;
         ++r) {
      request_to_session[r] = last;
    }
    ++started;
    pending.emplace(last, std::move(p));
  };

  // Closed loop: every live connection without a session in flight starts
  // one, until the phase stops starting sessions.
  auto refill = [&](Clock::time_point now) {
    if (spec.open_loop) return;
    for (size_t ci = 0; ci < conns_.size(); ++ci) {
      if (stop_starting ||
          (spec.max_sessions != 0 && started >= spec.max_sessions)) {
        return;
      }
      if (!conns_[ci]->dead && conn_inflight[ci] == 0) start_session(ci, now);
    }
  };

  auto handle_frame = [&](size_t ci, const sws::net::Frame& frame,
                          Clock::time_point now) {
    uint64_t request_id = 0;
    std::optional<sws::net::OutcomeReply> outcome;
    std::optional<sws::net::ErrorReply> error;
    switch (frame.type) {
      case MsgType::kSubmitAck:
        return;
      case MsgType::kOutcome:
        outcome = sws::net::DecodeOutcomeReply(frame.payload);
        if (!outcome) break;
        request_id = outcome->request_id;
        break;
      case MsgType::kError:
        error = sws::net::DecodeErrorReply(frame.payload);
        if (!error) break;
        request_id = error->request_id;
        break;
      default:
        break;
    }
    if (!outcome && !error) {
      ++frames_rejected_;
      conns_[ci]->dead = true;
      return;
    }
    auto r = request_to_session.find(request_id);
    if (r == request_to_session.end()) return;
    auto it = pending.find(r->second);
    if (it == pending.end()) return;
    Pending& p = it->second;
    Fate fate = Fate::kOk;
    if (error) {
      fate = IsRefusal(error->code) ? Fate::kRefused : Fate::kErrored;
    } else if (outcome->status_code != 0) {
      fate = IsRefusal(outcome->status_code) ? Fate::kRefused : Fate::kErrored;
    } else {
      const Clock::time_point v0 = Clock::now();
      const bool match = outcome->has_output && outcome->output == *p.expected;
      if (tracer_->enabled()) {
        tracer_->Record("tcp.verify", p.span, p.draw.id, v0, Clock::now());
      }
      fate = match ? Fate::kOk : Fate::kWrong;
      now = Clock::now();
    }
    // The delimiter ran, so nothing of this session is left buffered in
    // the server and its id may start the next session. After an error
    // reply earlier messages may still be buffered; the id is retired.
    if (outcome) source->Release(p.draw.id);
    const uint64_t last = p.delimiter_request;
    const size_t frames = p.draw.input->messages.size();
    --conn_inflight[p.conn];
    finish(p, fate, now);
    pending.erase(it);
    for (uint64_t q = last + 1 - frames; q <= last; ++q) {
      request_to_session.erase(q);
    }
    refill(now);
  };

  if (!spec.open_loop) {
    refill(Clock::now());
  } else {
    next_due = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(gap(schedule_rng)));
  }

  std::vector<pollfd> fds(conns_.size());
  char buf[1 << 16];
  for (;;) {
    Clock::time_point now = Clock::now();
    if (!stop_starting &&
        (now >= t_end ||
         (spec.max_sessions != 0 && started >= spec.max_sessions))) {
      stop_starting = true;
      drain_deadline =
          now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kSessionTimeoutS));
    }
    if (!stop_starting && !live_conn(0)) {
      // No connection left: stop, and time out what is pending at once.
      stop_starting = true;
      drain_deadline = now;
    }
    if (spec.open_loop && !stop_starting) {
      while (next_due <= now && next_due < t_end) {
        const std::optional<size_t> ci = live_conn(rr++ % conns_.size());
        if (!ci) break;  // stopped at the top of the next iteration
        start_session(*ci, next_due);
        next_due += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap(schedule_rng)));
      }
      if (now >= next_sample) {
        inflight_samples.emplace_back(MicrosBetween(t0, now) * 1e-6,
                                      static_cast<double>(pending.size()));
        next_sample = now + std::chrono::milliseconds(20);
      }
      now = Clock::now();
    }
    if (stop_starting && pending.empty()) break;
    // Per-session timeout (and the final drain bound).
    const auto timeout = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kSessionTimeoutS));
    if (now >= drain_deadline || !pending.empty()) {
      for (auto it = pending.begin(); it != pending.end();) {
        if (now >= drain_deadline || now - it->second.start > timeout) {
          --conn_inflight[it->second.conn];
          finish(it->second, Fate::kTimedOut, now);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      refill(now);
      if (stop_starting && pending.empty()) break;
    }

    Clock::time_point wake = now + std::chrono::milliseconds(5);
    if (spec.open_loop && !stop_starting && next_due < wake) wake = next_due;
    if (!stop_starting && t_end < wake) wake = t_end;
    const auto wait_ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
               .count());
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    for (size_t ci = 0; ci < conns_.size(); ++ci) {
      fds[ci].fd = conns_[ci]->dead ? -1 : conns_[ci]->fd;
      fds[ci].events = POLLIN | (conns_[ci]->out.empty() ? 0 : POLLOUT);
      fds[ci].revents = 0;
    }
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t ci = 0; ci < conns_.size(); ++ci) {
      Conn& conn = *conns_[ci];
      if (fds[ci].revents & POLLOUT) {
        result.bytes += Flush(conn.fd, &conn.out, &conn.out_off, &conn.dead);
      }
      if (!(fds[ci].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      for (;;) {
        ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n > 0) {
          result.bytes += static_cast<uint64_t>(n);
          if (!conn.decoder.Feed(std::string_view(buf, n))) {
            conn.dead = true;
            break;
          }
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn.dead = true;
        }
        break;
      }
      const Clock::time_point read_at = Clock::now();
      sws::net::Frame frame;
      for (;;) {
        const auto res = conn.decoder.Next(&frame);
        if (res == sws::net::FrameDecoder::Result::kFrame) {
          handle_frame(ci, frame, read_at);
          continue;
        }
        if (res == sws::net::FrameDecoder::Result::kError) {
          ++frames_rejected_;
          conn.dead = true;
        }
        break;
      }
    }
  }
  result.elapsed_s = MicrosBetween(t0, Clock::now()) * 1e-6;

  if (spec.open_loop && !inflight_samples.empty()) {
    double sums[4] = {0, 0, 0, 0};
    double counts[4] = {0, 0, 0, 0};
    for (const auto& [t, n] : inflight_samples) {
      const size_t q = std::min<size_t>(
          3, static_cast<size_t>(4 * t / std::max(spec.seconds, 1e-9)));
      sums[q] += n;
      counts[q] += 1;
    }
    for (size_t q = 0; q < 4; ++q) {
      result.inflight_quarters.push_back(counts[q] > 0 ? sums[q] / counts[q]
                                                       : 0);
    }
    // A backlog that kept growing through the phase means the offered
    // rate exceeded what the stack sustains: its latencies describe a
    // queue, not the service. A spike that drains again is not growth.
    const std::vector<double>& q = result.inflight_quarters;
    result.backlog_grew =
        q[3] > 2 * q[0] + 8 && q[3] > q[2] && q[2] > q[1] && q[1] > q[0];
  }
  return result;
}

}  // namespace perfbench
