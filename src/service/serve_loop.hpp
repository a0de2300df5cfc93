// ServeLoop: the fault-tolerant TCP front-end of the reduction service.
//
// One thread multiplexes a listen socket and every client connection
// under a single poll(2) set, speaking the length-prefixed binary
// protocol of net/wire.hpp. The loop is written so that *no* input can
// make it crash, hang, or leak a connection:
//
//   * per-connection frame-size limit — an oversized length is rejected
//     from the 40-byte header alone, before any payload buffering;
//   * malformed frames (bad magic / version / type / checksum) get a
//     coded Reject frame and the connection is closed: once framing is
//     not trustworthy the only safe continuation is a fresh connection;
//   * read timeout on partially received frames, write timeout on
//     unflushable response buffers, idle timeout on silent connections;
//   * back-pressure *before* the JobScheduler saturates: at
//     `max_connections` new accepts are refused with E-NET-MAXCONN, at
//     `max_inflight` outstanding jobs new submissions are shed with
//     E-NET-BUSY — always a reasoned refusal, never a silent drop (the
//     scheduler's own queue-full / DSL / plan rejections additionally
//     flow back as Result frames with state=Rejected);
//   * graceful drain (request_drain, wired to SIGINT/SIGTERM by the
//     CLI): stop accepting, reject new submissions with E-NET-DRAINING,
//     let in-flight jobs finish or expire (JobScheduler::begin_drain
//     rejects past-deadline queued work with the deadline reason), flush
//     every pending response, then exit; `drain_grace_seconds` bounds
//     how long a slow peer can hold the shutdown hostage;
//   * forced abort (request_abort, second signal): queued jobs are
//     rejected wholesale and every connection is torn down now.
//
// Results are delivered the moment a job resolves: every submitted
// request carries a JobRequest::on_resolved notification that writes one
// byte into the loop's wake pipe, so the loop never polls handles on a
// timer. Its poll(2) timeout is only a housekeeping tick (read / write /
// idle timeouts and drain grace).
//
// Job lines arriving in Submit frames are materialized by a caller-
// provided handler (canonically service::JobBuilder with
// `allow_file_io = false`), so the wire path shares one hardened parser
// with the local batch path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/wire.hpp"
#include "service/job_builder.hpp"
#include "service/job_scheduler.hpp"

namespace earthred::service {

struct ServeConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; port() reports the actual one.
  std::uint16_t port = 0;
  std::uint32_t max_connections = 64;
  /// Submitted-but-unresolved jobs across all connections; submissions
  /// beyond it are shed with E-NET-BUSY.
  std::uint32_t max_inflight = 128;
  std::uint32_t max_frame_bytes = 1u << 20;
  /// Timeout for completing a frame once its first byte arrived.
  int read_timeout_ms = 10000;
  /// Timeout for flushing queued response bytes to a non-reading peer.
  int write_timeout_ms = 10000;
  /// Connections with nothing outstanding are closed after this (0 =
  /// keep forever).
  int idle_timeout_ms = 120000;
  /// Upper bound on a graceful drain before remaining connections are
  /// torn down anyway.
  double drain_grace_seconds = 30.0;
};

/// Lifetime counters of one ServeLoop (monotonic, except open gauges).
struct ServeStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t submits = 0;
  std::uint64_t results_sent = 0;
  std::uint64_t rejects_sent = 0;
  std::uint64_t bad_frames = 0;      ///< malformed (coded Reject + close)
  std::uint64_t shed_maxconn = 0;
  std::uint64_t shed_busy = 0;
  std::uint64_t shed_draining = 0;
  std::uint64_t drain_frames = 0;    ///< Drain control frames honored
  std::uint64_t parse_rejects = 0;   ///< handler refused the job line
  std::uint64_t read_timeouts = 0;
  std::uint64_t write_timeouts = 0;
  std::uint64_t idle_closes = 0;
  /// Jobs whose connection died before the result could be delivered
  /// (the job still ran; the outcome was reaped and discarded).
  std::uint64_t orphaned_results = 0;
  /// Connections open right now.
  std::uint64_t open_connections() const {
    return accepted - closed;
  }
};

class ServeLoop {
 public:
  /// `handler` turns one submitted job line into requests; it runs on
  /// the loop thread (no synchronization needed, may keep state).
  using SubmitHandler = std::function<JobBuild(std::string_view line)>;

  ServeLoop(JobScheduler& sched, SubmitHandler handler, ServeConfig cfg);
  /// Stops (forced) if still running.
  ~ServeLoop();
  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  /// Binds the listen socket and starts the loop thread. False (with
  /// `error`) if the bind fails.
  bool start(std::string* error);
  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Begins a graceful drain; the loop exits once quiesced (or after
  /// drain_grace_seconds). Safe from any thread; idempotent.
  void request_drain();
  /// Forced teardown: queued jobs rejected, connections closed now.
  void request_abort();
  /// Blocks until the loop thread has exited.
  void wait();
  /// True while the loop thread runs.
  bool running() const { return running_.load(); }
  bool draining() const { return drain_requested_.load(); }

  ServeStats stats() const;

 private:
  struct Pending {
    std::uint64_t seq = 0;
    JobHandle handle;
  };
  struct Conn {
    int fd = -1;
    std::vector<std::byte> rbuf;
    std::vector<std::byte> wbuf;
    std::size_t woff = 0;  ///< flushed prefix of wbuf
    std::chrono::steady_clock::time_point last_activity;
    std::chrono::steady_clock::time_point write_stalled_since;
    bool write_stalled = false;
    bool closing = false;  ///< flush wbuf, then close
    std::vector<Pending> pending;
  };

  void run();
  net::PongBody make_pong();
  void accept_ready();
  void read_ready(Conn& c);
  void parse_frames(Conn& c);
  void handle_frame(Conn& c, std::uint32_t type_raw, std::uint64_t seq,
                    std::span<const std::byte> payload);
  void handle_submit(Conn& c, std::uint64_t seq,
                     std::span<const std::byte> payload);
  void reap_results();
  void flush_writes();
  void enforce_timeouts();
  void queue_frame(Conn& c, net::FrameType type, std::uint64_t seq,
                   std::span<const std::byte> payload);
  void queue_reject(Conn& c, std::uint64_t seq, std::string code,
                    std::string detail);
  void close_conn(std::size_t index);
  std::size_t total_pending() const;

  /// The self-pipe that interrupts poll(2). Shared with the completion
  /// notification of every submitted job, so a job that resolves after
  /// the loop is gone still writes into this open pipe — never into a
  /// closed or reused fd. Both ends close with the last reference.
  struct WakePipe {
    int rd = -1;
    int wr = -1;
    WakePipe() = default;
    WakePipe(const WakePipe&) = delete;
    WakePipe& operator=(const WakePipe&) = delete;
    ~WakePipe();
    void notify() const;
  };

  JobScheduler& sched_;
  SubmitHandler handler_;
  ServeConfig cfg_;

  int listen_fd_ = -1;
  std::shared_ptr<const WakePipe> wake_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> abort_requested_{false};
  bool draining_active_ = false;  // loop-thread only
  std::chrono::steady_clock::time_point drain_started_;

  std::vector<Conn> conns_;              // loop-thread only
  std::deque<Pending> orphans_;          // loop-thread only

  mutable std::mutex stats_mutex_;
  ServeStats stats_;
};

}  // namespace earthred::service
