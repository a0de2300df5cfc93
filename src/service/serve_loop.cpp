#include "service/serve_loop.hpp"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "net/stream.hpp"
#include "support/str.hpp"

namespace earthred::service {

namespace {

using Clock = std::chrono::steady_clock;

/// poll(2) timeout. Results wake the loop through the wake pipe, so this
/// only paces I/O-timeout enforcement and the drain-grace check.
constexpr int kHousekeepingTickMs = 100;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int ms_since(Clock::time_point t0) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            t0)
          .count());
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

ServeLoop::ServeLoop(JobScheduler& sched, SubmitHandler handler,
                     ServeConfig cfg)
    : sched_(sched), handler_(std::move(handler)), cfg_(std::move(cfg)) {}

ServeLoop::~ServeLoop() {
  if (running_.load()) request_abort();
  wait();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

ServeLoop::WakePipe::~WakePipe() {
  if (rd >= 0) ::close(rd);
  if (wr >= 0) ::close(wr);
}

void ServeLoop::WakePipe::notify() const {
  // Non-blocking: a full pipe (EAGAIN) already guarantees a wake-up.
  const char b = 'w';
  (void)!::write(wr, &b, 1);
}

bool ServeLoop::start(std::string* error) {
  listen_fd_ = net::tcp_listen(cfg_.host, cfg_.port, 128, error);
  if (listen_fd_ < 0) return false;
  port_ = net::tcp_local_port(listen_fd_);
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    if (error) *error = strformat("pipe: %s", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  auto wake = std::make_shared<WakePipe>();
  wake->rd = pipefd[0];
  wake->wr = pipefd[1];
  set_nonblocking(wake->rd);
  set_nonblocking(wake->wr);
  wake_ = std::move(wake);
  running_.store(true);
  thread_ = std::thread([this] { run(); });
  return true;
}

void ServeLoop::request_drain() {
  drain_requested_.store(true);
  if (wake_) wake_->notify();
}

void ServeLoop::request_abort() {
  abort_requested_.store(true);
  drain_requested_.store(true);
  if (wake_) wake_->notify();
}

void ServeLoop::wait() {
  if (thread_.joinable()) thread_.join();
}

ServeStats ServeLoop::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::size_t ServeLoop::total_pending() const {
  std::size_t n = orphans_.size();
  for (const Conn& c : conns_) n += c.pending.size();
  return n;
}

void ServeLoop::queue_frame(Conn& c, net::FrameType type, std::uint64_t seq,
                            std::span<const std::byte> payload) {
  const std::vector<std::byte> frame =
      net::encode_frame(type, seq, payload);
  c.wbuf.insert(c.wbuf.end(), frame.begin(), frame.end());
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.frames_out;
}

void ServeLoop::queue_reject(Conn& c, std::uint64_t seq, std::string code,
                             std::string detail) {
  net::RejectBody rb;
  rb.code = std::move(code);
  rb.detail = std::move(detail);
  queue_frame(c, net::FrameType::Reject, seq, net::encode_reject(rb));
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.rejects_sent;
}

void ServeLoop::close_conn(std::size_t index) {
  Conn& c = conns_[index];
  if (c.fd >= 0) ::close(c.fd);
  // Jobs whose connection died keep running; their handles move to the
  // orphan list so the outcomes are still reaped (and counted) instead
  // of leaking promises.
  for (Pending& p : c.pending) orphans_.push_back(std::move(p));
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.closed;
  }
  conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(index));
}

void ServeLoop::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try next round
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (conns_.size() >= cfg_.max_connections) {
      // Shed at the door with a reason: a best-effort Reject frame, then
      // close. The socket is writable right after accept, so this
      // usually reaches the peer.
      net::RejectBody rb;
      rb.code = "E-NET-MAXCONN";
      rb.detail = strformat("server at its %u-connection limit",
                            cfg_.max_connections);
      const std::vector<std::byte> frame = net::encode_frame(
          net::FrameType::Reject, 0, net::encode_reject(rb));
      (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.shed_maxconn;
      continue;
    }
    Conn c;
    c.fd = fd;
    c.last_activity = Clock::now();
    conns_.push_back(std::move(c));
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.accepted;
  }
}

void ServeLoop::read_ready(Conn& c) {
  char buf[16384];
  for (;;) {
    const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
    if (got > 0) {
      c.last_activity = Clock::now();
      const auto* p = reinterpret_cast<const std::byte*>(buf);
      c.rbuf.insert(c.rbuf.end(), p, p + got);
      // A peer that streams unbounded garbage is cut off once the buffer
      // exceeds the largest legal frame (header parsing below rejects
      // sooner for any frame that *claims* to be oversized).
      if (c.rbuf.size() >
          net::kHeaderBytes + static_cast<std::size_t>(
                                  cfg_.max_frame_bytes) * 2) {
        queue_reject(c, 0, "E-NET-OVERSIZE", "unframed input overflow");
        c.closing = true;
        return;
      }
      if (static_cast<std::size_t>(got) < sizeof(buf)) break;
      continue;
    }
    if (got == 0) {  // peer closed
      c.closing = true;
      c.rbuf.clear();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    c.closing = true;  // reset or hard error
    c.rbuf.clear();
    return;
  }
  parse_frames(c);
}

void ServeLoop::parse_frames(Conn& c) {
  while (!c.closing && c.rbuf.size() >= net::kHeaderBytes) {
    const net::HeaderParse h =
        net::parse_header(c.rbuf, cfg_.max_frame_bytes);
    if (!h.ok()) {
      // Framing can no longer be trusted; answer with the code and drop
      // the connection.
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.bad_frames;
      }
      queue_reject(c, h.seq, h.code, h.detail);
      c.closing = true;
      c.rbuf.clear();
      return;
    }
    const std::size_t total = net::kHeaderBytes + h.payload_len;
    if (c.rbuf.size() < total) return;  // incomplete: wait for more bytes
    const std::span<const std::byte> payload{c.rbuf.data() +
                                                 net::kHeaderBytes,
                                             h.payload_len};
    if (!net::payload_checksum_ok(h, payload)) {
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.bad_frames;
      }
      queue_reject(c, h.seq, "E-NET-CHECKSUM",
                   "payload checksum mismatch");
      c.closing = true;
      c.rbuf.clear();
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.frames_in;
    }
    handle_frame(c, static_cast<std::uint32_t>(h.type), h.seq, payload);
    c.rbuf.erase(c.rbuf.begin(),
                 c.rbuf.begin() + static_cast<std::ptrdiff_t>(total));
  }
}

net::PongBody ServeLoop::make_pong() {
  const ServiceStats s = sched_.stats();
  net::PongBody pong;
  pong.queue_depth = s.queue_depth;
  pong.in_flight = s.in_flight;
  pong.completed = s.completed;
  pong.rejected = s.rejected;
  pong.draining = draining_active_ ? 1 : 0;
  // Advertise the warm-plan identity (wire v2): entry count plus the
  // canonical digest over resident content keys, so a fleet operator can
  // see which shard holds which warm state.
  pong.cache_key_digest =
      sched_.cache().resident_key_digest(&pong.cache_entries);
  pong.cache_hits = s.cache.hits + s.cache.coalesced;
  return pong;
}

void ServeLoop::handle_frame(Conn& c, std::uint32_t type_raw,
                             std::uint64_t seq,
                             std::span<const std::byte> payload) {
  switch (static_cast<net::FrameType>(type_raw)) {
    case net::FrameType::Ping: {
      queue_frame(c, net::FrameType::Pong, seq,
                  net::encode_pong(make_pong()));
      return;
    }
    case net::FrameType::Submit:
      handle_submit(c, seq, payload);
      return;
    case net::FrameType::Drain: {
      // Remote graceful drain (fleet orchestration): acknowledge with a
      // snapshot that already shows draining, then begin the drain. The
      // Pong is queued before the transition, and the quiesce condition
      // requires every wbuf flushed, so the ack always reaches the peer.
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.drain_frames;
      }
      net::PongBody pong = make_pong();
      pong.draining = 1;
      queue_frame(c, net::FrameType::Pong, seq, net::encode_pong(pong));
      drain_requested_.store(true);
      return;
    }
    case net::FrameType::Pong:
    case net::FrameType::Result:
    case net::FrameType::Reject:
      // Clients must not send server-role frames; a peer that does is
      // confused enough to disconnect.
      queue_reject(c, seq, "E-NET-PROTO",
                   strformat("unexpected %s frame from client",
                             net::to_string(
                                 static_cast<net::FrameType>(type_raw))));
      c.closing = true;
      return;
  }
}

void ServeLoop::handle_submit(Conn& c, std::uint64_t seq,
                              std::span<const std::byte> payload) {
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submits;
  }
  if (draining_active_) {
    queue_reject(c, seq, "E-NET-DRAINING",
                 "server is draining and accepts no new work");
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.shed_draining;
    return;
  }
  if (total_pending() >= cfg_.max_inflight) {
    // Back-pressure *ahead* of the scheduler queue: shed here so the
    // response path (which scales with inflight count) stays bounded.
    queue_reject(c, seq, "E-NET-BUSY",
                 strformat("server at its %u-inflight-job limit",
                           cfg_.max_inflight));
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.shed_busy;
    return;
  }
  support::ByteReader r(payload);
  const std::string line = net::get_string(r, cfg_.max_frame_bytes);
  if (r.fail()) {
    queue_reject(c, seq, "E-NET-PROTO", "undecodable submit payload");
    return;
  }
  JobBuild b = handler_(line);
  if (!b.ok()) {
    queue_reject(c, seq, std::move(b.code), std::move(b.detail));
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.parse_rejects;
    return;
  }
  if (b.requests.size() != 1) {
    queue_reject(c, seq, "E-JOB-MULTI",
                 strformat("job line expands to %zu jobs; the wire "
                           "protocol carries exactly one per submit",
                           b.requests.size()));
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.parse_rejects;
    return;
  }
  JobRequest& req = b.requests.front();
  req.on_resolved = [wake = wake_] { wake->notify(); };
  Pending p;
  p.seq = seq;
  p.handle = sched_.submit(std::move(req));
  c.pending.push_back(std::move(p));
}

void ServeLoop::reap_results() {
  for (Conn& c : conns_) {
    for (std::size_t i = 0; i < c.pending.size();) {
      if (!c.pending[i].handle.ready()) {
        ++i;
        continue;
      }
      const JobOutcome& o = c.pending[i].handle.wait();
      net::ResultBody rb;
      rb.state = static_cast<std::uint32_t>(o.state);
      rb.cache_hit = o.cache_hit ? 1 : 0;
      rb.plan_source = static_cast<std::uint32_t>(o.plan_source);
      rb.queue_seconds = o.queue_seconds;
      rb.setup_seconds = o.setup_seconds;
      rb.exec_seconds = o.exec_seconds;
      rb.total_seconds = o.total_seconds;
      rb.name = o.name;
      rb.error = o.error;
      if (o.state == JobState::Done && !o.simulated)
        rb.digest = result_digest(o.native);
      queue_frame(c, net::FrameType::Result, c.pending[i].seq,
                  net::encode_result(rb));
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.results_sent;
      }
      c.pending.erase(c.pending.begin() +
                      static_cast<std::ptrdiff_t>(i));
    }
  }
  while (!orphans_.empty()) {
    if (!orphans_.front().handle.ready()) break;
    orphans_.front().handle.wait();
    orphans_.pop_front();
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.orphaned_results;
  }
}

void ServeLoop::flush_writes() {
  for (Conn& c : conns_) {
    while (c.woff < c.wbuf.size()) {
      const ssize_t put =
          ::send(c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff,
                 MSG_NOSIGNAL);
      if (put > 0) {
        c.woff += static_cast<std::size_t>(put);
        c.write_stalled = false;
        continue;
      }
      if (put < 0 &&
          (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        if (!c.write_stalled) {
          c.write_stalled = true;
          c.write_stalled_since = Clock::now();
        }
        break;
      }
      // Reset or hard error: nothing more can be delivered.
      c.closing = true;
      c.woff = 0;
      c.wbuf.clear();
      break;
    }
    if (c.woff >= c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
      c.write_stalled = false;
    }
  }
}

void ServeLoop::enforce_timeouts() {
  for (Conn& c : conns_) {
    if (c.closing) continue;
    if (!c.rbuf.empty() && ms_since(c.last_activity) > cfg_.read_timeout_ms) {
      // A frame started but never finished arriving.
      queue_reject(c, 0, "E-NET-TIMEOUT",
                   strformat("frame incomplete after %d ms",
                             cfg_.read_timeout_ms));
      c.closing = true;
      c.rbuf.clear();
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.read_timeouts;
      continue;
    }
    if (c.write_stalled &&
        ms_since(c.write_stalled_since) > cfg_.write_timeout_ms) {
      // The peer stopped reading; responses cannot be delivered.
      c.closing = true;
      c.wbuf.clear();
      c.woff = 0;
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.write_timeouts;
      continue;
    }
    if (cfg_.idle_timeout_ms > 0 && c.rbuf.empty() && c.wbuf.empty() &&
        c.pending.empty() &&
        ms_since(c.last_activity) > cfg_.idle_timeout_ms) {
      c.closing = true;
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.idle_closes;
    }
  }
}

void ServeLoop::run() {
  std::vector<pollfd> fds;
  while (true) {
    // ---- drain / abort transitions ----------------------------------
    if (drain_requested_.load() && !draining_active_) {
      draining_active_ = true;
      drain_started_ = Clock::now();
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      sched_.begin_drain();
      // Existing connections stay open until the loop quiesces: clients
      // still collect in-flight results, and a new submission on a live
      // connection gets a reasoned E-NET-DRAINING refusal rather than a
      // surprise reset. The teardown below closes whatever remains.
    }
    if (abort_requested_.load()) {
      sched_.abort_queued("server shutdown forced (E-SVC-ABORT)");
      break;
    }
    if (draining_active_) {
      const bool quiesced = total_pending() == 0 &&
                            std::all_of(conns_.begin(), conns_.end(),
                                        [](const Conn& c) {
                                          return c.wbuf.empty();
                                        });
      if (quiesced ||
          seconds_since(drain_started_) > cfg_.drain_grace_seconds)
        break;
    }

    // ---- poll set ----------------------------------------------------
    fds.clear();
    fds.push_back({wake_->rd, POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    const std::size_t conn_base = fds.size();
    for (Conn& c : conns_) {
      short events = POLLIN;
      if (c.woff < c.wbuf.size()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
    }
    const std::size_t polled = fds.size() - conn_base;
    const int rc = ::poll(fds.data(), fds.size(), kHousekeepingTickMs);
    if (rc < 0 && errno != EINTR) break;  // unrecoverable poll failure

    if (fds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wake_->rd, buf, sizeof(buf)) > 0) {}
    }
    if (listen_fd_ >= 0 && conn_base >= 2 && (fds[1].revents & POLLIN))
      accept_ready();

    // Only the connections in this round's poll set have revents; those
    // accept_ready() just appended are polled from the next round on.
    for (std::size_t i = 0; i < polled; ++i) {
      const short rev = fds[conn_base + i].revents;
      Conn& c = conns_[i];
      if (rev & (POLLERR | POLLHUP | POLLNVAL)) {
        c.closing = true;
        c.rbuf.clear();
        continue;
      }
      if (rev & POLLIN) read_ready(c);
    }

    reap_results();
    flush_writes();
    enforce_timeouts();

    // Close connections that are done (flushed) or condemned.
    for (std::size_t i = conns_.size(); i-- > 0;) {
      const Conn& c = conns_[i];
      if (c.closing && c.woff >= c.wbuf.size()) close_conn(i);
    }
  }

  // ---- teardown ------------------------------------------------------
  flush_writes();  // best effort: push out final rejects/results
  for (std::size_t i = conns_.size(); i-- > 0;) close_conn(i);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Reap whatever is still outstanding so no promise outlives the loop
  // unobserved (in-flight jobs finish on scheduler workers).
  while (!orphans_.empty()) {
    orphans_.front().handle.wait();
    orphans_.pop_front();
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.orphaned_results;
  }
  running_.store(false);
}

}  // namespace earthred::service
