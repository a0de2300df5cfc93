#include "shard/shard_router.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <utility>

#include "net/stream.hpp"
#include "support/binio.hpp"
#include "support/str.hpp"

namespace earthred::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// Granularity of the idle-wait loop: how often a blocked connection
/// thread rechecks the drain/abort flags.
constexpr int kIdlePollMs = 100;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Best-effort seq-0 refusal on a socket we are about to close (the
/// accept-shed path; mirrors ServeLoop's E-NET-MAXCONN send).
void send_refusal(int fd, const char* code, std::string detail) {
  net::RejectBody rb;
  rb.code = code;
  rb.detail = std::move(detail);
  const std::vector<std::byte> frame =
      net::encode_frame(net::FrameType::Reject, 0, net::encode_reject(rb));
  (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
}

}  // namespace

ShardRouter::ShardRouter(ShardMap map, RouterConfig cfg)
    : pool_(std::move(map), cfg.pool), cfg_(std::move(cfg)) {}

ShardRouter::~ShardRouter() {
  if (running_.load()) {
    request_abort();
    wait();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool ShardRouter::start(std::string* error) {
  listen_fd_ = net::tcp_listen(cfg_.host, cfg_.port, 64, error);
  if (listen_fd_ < 0) return false;
  port_ = net::tcp_local_port(listen_fd_);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void ShardRouter::request_drain() {
  bool expected = false;
  if (drain_requested_.compare_exchange_strong(expected, true)) {
    const std::lock_guard<std::mutex> lock(drain_mutex_);
    drain_started_ = Clock::now();
  }
}

std::size_t ShardRouter::drain_fleet() {
  // Shards first: each stops admitting and finishes its in-flight work
  // while the router can still relay the tail of results. Router last.
  std::size_t acked = 0;
  for (std::size_t i = 0; i < pool_.map().size(); ++i) {
    const net::Client::PingReply r = pool_.drain(i);
    if (r.ok() && r.pong.draining) ++acked;
  }
  request_drain();
  return acked;
}

void ShardRouter::request_abort() {
  abort_requested_.store(true);
  request_drain();
}

void ShardRouter::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

RouterStats ShardRouter::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

bool ShardRouter::grace_expired() const {
  if (!drain_requested_.load()) return false;
  const std::lock_guard<std::mutex> lock(drain_mutex_);
  return seconds_since(drain_started_) > cfg_.drain_grace_seconds;
}

std::size_t ShardRouter::reap_conns(bool join_all) {
  const std::lock_guard<std::mutex> lock(conns_mutex_);
  std::size_t live = 0;
  for (auto it = conns_.begin(); it != conns_.end();) {
    ConnSlot& slot = **it;
    if (slot.done.load() || join_all) {
      if (slot.thread.joinable()) slot.thread.join();
      it = conns_.erase(it);
    } else {
      ++live;
      ++it;
    }
  }
  return live;
}

void ShardRouter::accept_loop() {
  while (true) {
    const bool draining = drain_requested_.load();
    const bool aborting = abort_requested_.load() || grace_expired();
    if (aborting) {
      // Cut every connection: shutdown(2) unblocks threads parked in
      // read_some, and their loops observe the abort flag.
      abort_requested_.store(true);
      const std::lock_guard<std::mutex> lock(conns_mutex_);
      for (auto& slot : conns_) {
        const std::lock_guard<std::mutex> fd_lock(slot->fd_mutex);
        if (slot->fd >= 0) ::shutdown(slot->fd, SHUT_RDWR);
      }
    }
    const std::size_t live = reap_conns(aborting);
    if ((draining || aborting) && live == 0) break;

    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, kIdlePollMs);
    if (n <= 0 || !(pfd.revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    if (drain_requested_.load()) {
      send_refusal(fd, "E-NET-DRAINING",
                   "router is draining and accepts no new connections");
      ::close(fd);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.shed_draining;
      ++stats_.rejects_sent;
      ++stats_.frames_out;
      continue;
    }
    if (live >= cfg_.max_connections) {
      send_refusal(fd, "E-NET-MAXCONN",
                   strformat("router at its %u-connection limit",
                             cfg_.max_connections));
      ::close(fd);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.shed_maxconn;
      ++stats_.rejects_sent;
      ++stats_.frames_out;
      continue;
    }

    auto slot = std::make_unique<ConnSlot>();
    ConnSlot* raw = slot.get();
    raw->fd = fd;
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.accepted;
    }
    raw->thread = std::thread([this, raw] { conn_loop(raw); });
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(std::move(slot));
  }
  running_.store(false);
}

void ShardRouter::conn_loop(ConnSlot* slot) {
  net::TcpStream stream(slot->fd);
  auto bump = [this](std::uint64_t RouterStats::* field) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++(stats_.*field);
  };
  auto write_reply = [&](net::FrameType type, std::uint64_t seq,
                         std::span<const std::byte> payload) {
    const std::string code = net::write_frame(stream, type, seq, payload,
                                              cfg_.frame_timeout_ms);
    if (code.empty()) bump(&RouterStats::frames_out);
    return code.empty();
  };
  auto reject = [&](std::uint64_t seq, std::string code,
                    std::string detail) {
    net::RejectBody rb;
    rb.code = std::move(code);
    rb.detail = std::move(detail);
    const bool sent = write_reply(net::FrameType::Reject, seq,
                                  net::encode_reject(rb));
    if (sent) bump(&RouterStats::rejects_sent);
    return sent;
  };
  auto router_pong = [&] {
    net::PongBody pong;
    pong.in_flight = active_forwards_.load();
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    pong.completed = stats_.results_sent;
    pong.rejected = stats_.rejects_sent;
    pong.draining = drain_requested_.load() ? 1 : 0;
    return pong;
  };

  const auto started_draining = [this] { return drain_requested_.load(); };
  auto idle_since = Clock::now();
  bool idle_closed = false;
  while (true) {
    if (abort_requested_.load() || grace_expired()) break;

    // Wait for the first header byte, waking regularly so the drain and
    // abort flags stay live even on a silent connection. Once draining,
    // this connection winds down: any buffered frame is still answered
    // (a Submit with E-NET-DRAINING), then EOF or idleness ends it.
    std::array<std::byte, net::kHeaderBytes> hdr;
    const net::IoResult first = stream.read_some(hdr.data(), 1, kIdlePollMs);
    if (first.status == net::IoResult::Status::Timeout) {
      if (started_draining()) break;  // quiesce: nothing in flight here
      if (cfg_.idle_timeout_ms > 0 &&
          seconds_since(idle_since) * 1000.0 > cfg_.idle_timeout_ms) {
        idle_closed = true;
        break;
      }
      continue;
    }
    if (!first.ok()) break;  // EOF or error: peer is gone
    idle_since = Clock::now();

    // The frame has begun: complete it under the frame timeout.
    const net::IoResult rest = net::read_exact(
        stream, hdr.data() + 1, net::kHeaderBytes - 1, cfg_.frame_timeout_ms);
    if (!rest.ok()) {
      bump(&RouterStats::bad_frames);
      reject(0, rest.code(), "frame header incomplete");
      break;
    }
    net::HeaderParse h = net::parse_header(hdr, cfg_.max_frame_bytes);
    if (!h.ok()) {
      // Framing can no longer be trusted; answer coded and drop.
      bump(&RouterStats::bad_frames);
      reject(h.seq, h.code, h.detail);
      break;
    }
    std::vector<std::byte> payload(h.payload_len);
    if (h.payload_len > 0) {
      const net::IoResult pr = net::read_exact(
          stream, payload.data(), payload.size(), cfg_.frame_timeout_ms);
      if (!pr.ok()) {
        bump(&RouterStats::bad_frames);
        reject(h.seq, pr.code(), "frame payload incomplete");
        break;
      }
    }
    if (!net::payload_checksum_ok(h, payload)) {
      bump(&RouterStats::bad_frames);
      reject(h.seq, "E-NET-CHECKSUM", "payload checksum mismatch");
      break;
    }
    bump(&RouterStats::frames_in);

    if (h.type == net::FrameType::Ping) {
      if (!write_reply(net::FrameType::Pong, h.seq,
                       net::encode_pong(router_pong())))
        break;
      continue;
    }
    if (h.type == net::FrameType::Drain) {
      bump(&RouterStats::drain_frames);
      drain_fleet();
      net::PongBody pong = router_pong();
      pong.draining = 1;
      write_reply(net::FrameType::Pong, h.seq, net::encode_pong(pong));
      continue;  // the drain flag winds this loop down
    }
    if (h.type != net::FrameType::Submit) {
      // Pong/Result/Reject are responses; a peer sending them is confused
      // enough to disconnect.
      reject(h.seq, "E-NET-PROTO",
             strformat("unexpected %s frame from client",
                       net::to_string(h.type)));
      break;
    }

    // ---- Submit: route by content key, forward, relay the outcome ----
    bump(&RouterStats::submits);
    if (started_draining()) {
      if (reject(h.seq, "E-NET-DRAINING",
                 "router is draining and accepts no new work")) {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.submit_rejects;
        ++stats_.shed_draining;
      } else {
        bump(&RouterStats::submit_rejects);
      }
      continue;
    }
    support::ByteReader r(payload);
    const std::string line = net::get_string(r, cfg_.max_frame_bytes);
    if (r.fail()) {
      bump(&RouterStats::submit_rejects);
      reject(h.seq, "E-NET-PROTO", "undecodable submit payload");
      continue;
    }
    active_forwards_.fetch_add(1);
    EndpointPool::Forward fw = pool_.submit(content_key(line), line);
    active_forwards_.fetch_sub(1);
    if (fw.ok()) {
      net::ResultBody body = fw.result;
      if (fw.rerouted) {
        body.flags |= net::kResultFlagRerouted;
        bump(&RouterStats::reroutes);
      }
      const bool sent = write_reply(net::FrameType::Result, h.seq,
                                    net::encode_result(body));
      bump(&RouterStats::results_sent);  // terminated even if peer vanished
      if (!sent) break;
    } else {
      bump(&RouterStats::submit_rejects);
      if (!reject(h.seq, fw.code, fw.detail)) break;
    }
  }

  {
    const std::lock_guard<std::mutex> fd_lock(slot->fd_mutex);
    stream.close();
    slot->fd = -1;
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.closed;
    if (idle_closed) ++stats_.idle_closes;
  }
  slot->done.store(true);
}

}  // namespace earthred::shard
