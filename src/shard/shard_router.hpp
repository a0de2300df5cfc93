// ShardRouter: the fleet front-end process.
//
// Speaks the net/wire.hpp protocol on both faces: it *is* a server to
// submitting clients (Submit/Ping/Drain in, Result/Reject/Pong out) and a
// client to every backend shard (one persistent net::Client per shard via
// EndpointPool). A Submit is routed by rendezvous-hashing its plan
// content key (shard/shard_map.hpp), so identical jobs always reach the
// same warm PlanCache; a dead or breaker-open shard fails over along the
// HRW rank order and the served Result carries kResultFlagRerouted.
//
// Unlike ServeLoop's single-thread poll multiplexer, the router is
// thread-per-connection: a forward is a synchronous call on the owning
// shard's client, so each accepted connection gets a thread that blocks
// in that call while other connections proceed — fleet concurrency comes
// from connection count, bounded by `max_connections` and per shard by
// the pool's in-flight cap (beyond it: E-NET-BUSY back-pressure).
//
// The terminating invariant the chaos suite pins: every Submit the router
// accepts ends in exactly one Result or coded Reject —
// `submits == results_sent + submit_rejects` at all times, even with a
// shard killed mid-stream. No hangs (every leg has a timeout), no silent
// drops (every refusal carries a code).
//
// Drain ordering (fleet quiesce is *router-last*): a Drain frame — or
// drain_fleet() from the CLI signal handler — first sends Drain to every
// shard (they stop admitting, finish in-flight work), then marks the
// router itself draining: new connections and new Submits get
// E-NET-DRAINING, in-flight forwards complete and their Results still
// flow back, and the process exits once every connection has wound down
// (or `drain_grace_seconds` expires and the stragglers are cut).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.hpp"
#include "shard/endpoint_pool.hpp"
#include "shard/shard_map.hpp"

namespace earthred::shard {

struct RouterConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; port() reports the actual one.
  std::uint16_t port = 0;
  std::uint32_t max_connections = 64;
  std::uint32_t max_frame_bytes = 1u << 20;
  /// Timeout for completing a frame once its first byte arrived, and for
  /// writing a response back to the submitting client.
  int frame_timeout_ms = 10000;
  /// Idle connections are closed after this (0 = keep forever).
  int idle_timeout_ms = 120000;
  /// Upper bound on a graceful drain before remaining connections are
  /// torn down anyway.
  double drain_grace_seconds = 30.0;
  /// Per-shard transport/failover policy.
  EndpointPoolConfig pool;
};

/// Lifetime counters of one ShardRouter (monotonic, except gauges).
/// Accounting identity (the chaos gate): at quiesce,
/// submits == results_sent + submit_rejects.
struct RouterStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t submits = 0;         ///< Submit frames admitted for routing
  std::uint64_t results_sent = 0;    ///< Submits answered with a Result
  std::uint64_t submit_rejects = 0;  ///< Submits answered with a Reject
  std::uint64_t rejects_sent = 0;    ///< all Reject frames (any cause)
  std::uint64_t reroutes = 0;        ///< Results served off-owner
  std::uint64_t bad_frames = 0;      ///< malformed (coded Reject + close)
  std::uint64_t shed_maxconn = 0;
  std::uint64_t shed_draining = 0;   ///< submits/accepts refused draining
  std::uint64_t drain_frames = 0;    ///< Drain control frames honored
  std::uint64_t idle_closes = 0;
  std::uint64_t open_connections() const { return accepted - closed; }
};

class ShardRouter {
 public:
  ShardRouter(ShardMap map, RouterConfig cfg);
  /// Forces an abort if still running.
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Binds the listen socket and starts the accept thread. False (with
  /// `error`) if the bind fails.
  bool start(std::string* error);
  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Begins a graceful drain of the router itself (no shard fan-out);
  /// safe from any thread, idempotent.
  void request_drain();
  /// Fleet-wide drain, shards first, router last: sends the Drain frame
  /// to every shard (returns how many acknowledged), then request_drain()
  /// on the router.
  std::size_t drain_fleet();
  /// Forced teardown: every connection is cut now.
  void request_abort();
  /// Blocks until the accept thread and every connection thread exited.
  void wait();
  bool running() const { return running_.load(); }
  bool draining() const { return drain_requested_.load(); }

  RouterStats stats() const;
  EndpointPool& pool() { return pool_; }
  const ShardMap& map() const { return pool_.map(); }

 private:
  struct ConnSlot {
    std::thread thread;
    /// Orders the connection thread's close against an abort's
    /// shutdown(2), so the abort never touches a closed or reused fd.
    std::mutex fd_mutex;
    int fd = -1;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void conn_loop(ConnSlot* slot);
  /// Reaps finished connection threads; returns live count.
  std::size_t reap_conns(bool join_all);
  bool grace_expired() const;

  EndpointPool pool_;
  RouterConfig cfg_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> abort_requested_{false};
  std::atomic<std::uint64_t> active_forwards_{0};
  std::chrono::steady_clock::time_point drain_started_;
  mutable std::mutex drain_mutex_;  ///< guards drain_started_

  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<ConnSlot>> conns_;

  mutable std::mutex stats_mutex_;
  RouterStats stats_;
};

}  // namespace earthred::shard
