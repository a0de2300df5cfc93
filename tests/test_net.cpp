// The fault-tolerant network front end: wire-protocol round trips, the
// committed malformed-frame corpus, serve/submit/ping over localhost
// (including bit-identity of remote results against in-process runs),
// overload shedding, graceful drain, the client's retry/backoff and
// circuit-breaker machinery, and the seeded chaos suite that drives every
// byte-fault class through real sockets.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/stream.hpp"
#include "net/wire.hpp"
#include "service/job_builder.hpp"
#include "service/job_scheduler.hpp"
#include "service/serve_loop.hpp"

namespace earthred {
namespace {

using service::JobBuild;
using service::JobBuilder;
using service::JobLimits;
using service::JobOutcome;
using service::JobScheduler;
using service::JobState;
using service::ServeConfig;
using service::ServeLoop;
using service::ServeStats;

constexpr const char* kSmallJob =
    "kernel=fig1 nodes=80 edges=400 procs=4 k=2 sweeps=2 name=wire";

JobScheduler::Config sched_config(std::uint32_t workers = 2) {
  JobScheduler::Config cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 64;
  cfg.default_deadline = 30.0;
  return cfg;
}

/// A scheduler + ServeLoop pair wired the way the CLI wires them:
/// JobBuilder with file IO disabled (remote peers must not name server
/// paths) on an ephemeral localhost port.
struct TestServer {
  JobScheduler sched;
  std::shared_ptr<JobBuilder> builder;
  std::unique_ptr<ServeLoop> loop;

  explicit TestServer(ServeConfig scfg = {},
                      JobScheduler::Config cfg = sched_config())
      : sched(cfg) {
    JobLimits limits;
    limits.allow_file_io = false;
    builder = std::make_shared<JobBuilder>(limits);
    loop = std::make_unique<ServeLoop>(
        sched,
        [b = builder](std::string_view line) { return b->build(line, 0); },
        scfg);
  }

  bool start() {
    std::string error;
    const bool ok = loop->start(&error);
    EXPECT_TRUE(ok) << error;
    return ok;
  }
  std::uint16_t port() const { return loop->port(); }
  void drain() {
    loop->request_drain();
    loop->wait();
    sched.drain();
  }
};

net::ClientConfig client_config(std::uint16_t port) {
  net::ClientConfig cfg;
  cfg.port = port;
  cfg.connect_timeout_ms = 2000;
  cfg.request_timeout_ms = 30000;
  cfg.max_attempts = 3;
  cfg.backoff_base_ms = 5;
  cfg.backoff_cap_ms = 40;
  return cfg;
}

// ---- wire protocol ------------------------------------------------------

TEST(Wire, FrameRoundTripAndHeaderFields) {
  std::vector<std::byte> payload;
  for (int i = 0; i < 100; ++i)
    payload.push_back(static_cast<std::byte>(i));
  const auto frame = net::encode_frame(net::FrameType::Submit, 7, payload);
  ASSERT_EQ(frame.size(), net::kHeaderBytes + payload.size());

  std::string detail;
  EXPECT_EQ(net::classify_frame_bytes(frame, net::kDefaultMaxPayload,
                                      &detail),
            "")
      << detail;

  const net::HeaderParse h =
      net::parse_header(frame, net::kDefaultMaxPayload);
  ASSERT_TRUE(h.ok()) << h.code;
  EXPECT_EQ(h.type, net::FrameType::Submit);
  EXPECT_EQ(h.seq, 7u);
  EXPECT_EQ(h.payload_len, payload.size());
}

TEST(Wire, TypedBodiesRoundTrip) {
  net::RejectBody rej{"E-NET-BUSY", "inflight limit reached"};
  net::RejectBody rej2;
  ASSERT_TRUE(net::decode_reject(net::encode_reject(rej), &rej2));
  EXPECT_EQ(rej2.code, rej.code);
  EXPECT_EQ(rej2.detail, rej.detail);

  net::ResultBody res;
  res.state = static_cast<std::uint32_t>(JobState::Done);
  res.cache_hit = 1;
  res.plan_source = 3;
  res.exec_seconds = 0.25;
  res.digest = 0xabcdef0123456789ull;
  res.name = "job-a";
  net::ResultBody res2;
  ASSERT_TRUE(net::decode_result(net::encode_result(res), &res2));
  EXPECT_EQ(res2.state, res.state);
  EXPECT_EQ(res2.digest, res.digest);
  EXPECT_EQ(res2.name, res.name);
  EXPECT_EQ(res2.exec_seconds, res.exec_seconds);

  net::PongBody pong;
  pong.queue_depth = 3;
  pong.in_flight = 2;
  pong.completed = 11;
  pong.draining = 1;
  net::PongBody pong2;
  ASSERT_TRUE(net::decode_pong(net::encode_pong(pong), &pong2));
  EXPECT_EQ(pong2.queue_depth, pong.queue_depth);
  EXPECT_EQ(pong2.draining, pong.draining);
  EXPECT_EQ(pong2.version, net::kVersion);
}

TEST(Wire, DecodersRejectGarbageWithoutThrowing) {
  std::vector<std::byte> junk(13, std::byte{0xee});
  net::RejectBody rej;
  EXPECT_FALSE(net::decode_reject(junk, &rej));
  net::ResultBody res;
  EXPECT_FALSE(net::decode_result(junk, &res));
  net::PongBody pong;
  EXPECT_FALSE(net::decode_pong(junk, &pong));
}

// The committed corpus: every file's rejection code is declared by its
// name (`<code>-*.frame` -> E-NET-<CODE>), exactly like the plan-store
// corruption corpus. A framing regression cannot regenerate the corpus
// into passing — the bytes are in the tree.
TEST(Wire, CommittedMalformedFrameCorpusIsRejected) {
  const std::filesystem::path dir =
      std::filesystem::path(EARTHRED_SOURCE_DIR) / "examples" / "frames" /
      "bad";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".frame") continue;
    const std::string stem = entry.path().stem().string();
    std::string prefix = stem.substr(0, stem.find('-'));
    for (char& c : prefix) c = static_cast<char>(std::toupper(c));
    const std::string expected = "E-NET-" + prefix;

    std::ifstream is(entry.path(), std::ios::binary);
    ASSERT_TRUE(is.good()) << entry.path();
    std::vector<char> raw((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
    std::string detail;
    const std::string code = net::classify_frame_bytes(
        std::as_bytes(std::span(raw)), net::kDefaultMaxPayload, &detail);
    EXPECT_EQ(code, expected) << entry.path() << ": " << detail;
    ++checked;
  }
  EXPECT_GE(checked, 8u) << "corpus went missing";
}

// ---- the hardened job-line parser (shared by every front end) ----------

TEST(JobLineHardening, EveryLimitRejectsWithItsCode) {
  JobLimits limits;
  limits.allow_file_io = false;
  JobBuilder builder(limits);

  const auto code = [&](const std::string& line) {
    return builder.build(line, 1).code;
  };

  EXPECT_EQ(code(std::string(5000, 'a')), "E-JOB-LINELEN");
  {
    std::string many;
    for (int i = 0; i < 40; ++i) many += "sweeps=1 ";
    EXPECT_EQ(code(many), "E-JOB-KEYCOUNT");
  }
  EXPECT_EQ(code("wat=1"), "E-JOB-KEY");
  EXPECT_EQ(code("kernel=fig1 nodes=80 edges=400 procs=banana"),
            "E-JOB-VALUE");
  EXPECT_EQ(code("kernel=fig1 nodes=80 edges=400 deadline=-1"),
            "E-JOB-RANGE");
  EXPECT_EQ(code("kernel=fig1 nodes=80 edges=400 mutate=99999999"),
            "E-JOB-MUTATE");
  EXPECT_EQ(code("mesh=/etc/passwd procs=4"), "E-JOB-FILEIO");
  EXPECT_EQ(code("dsl=loop.dsl"), "E-JOB-FILEIO");
  EXPECT_EQ(code("   # just a comment"), "E-JOB-EMPTY");
  EXPECT_EQ(code(""), "E-JOB-EMPTY");

  const JobBuild ok = builder.build(kSmallJob, 1);
  EXPECT_TRUE(ok.ok()) << ok.code << ": " << ok.detail;
  ASSERT_EQ(ok.requests.size(), 1u);
}

// ---- serve / submit / ping over localhost ------------------------------

TEST(ServeLoop, SubmitPingAndRemoteDigestMatchesInProcessRun) {
  TestServer server;
  ASSERT_TRUE(server.start());

  net::Client client(client_config(server.port()));
  const net::Client::PingReply ping = client.ping();
  ASSERT_TRUE(ping.ok()) << ping.code << ": " << ping.detail;
  EXPECT_EQ(ping.pong.version, net::kVersion);
  EXPECT_EQ(ping.pong.draining, 0u);

  const net::Client::Reply r = client.submit(kSmallJob);
  ASSERT_TRUE(r.ok()) << r.code << ": " << r.detail;
  EXPECT_EQ(static_cast<JobState>(r.result.state), JobState::Done);
  EXPECT_EQ(r.result.name, "wire");
  EXPECT_NE(r.result.digest, 0u);

  // Acceptance: the networked path is bit-identical to an in-process
  // batch run of the same job line, proven by the result digest.
  JobBuilder local;
  JobBuild b = local.build(kSmallJob, 1);
  ASSERT_TRUE(b.ok()) << b.code;
  JobScheduler local_sched(sched_config());
  const service::JobHandle h =
      local_sched.submit(std::move(b.requests[0]));
  const JobOutcome& o = h.wait();
  ASSERT_EQ(o.state, JobState::Done) << o.error;
  EXPECT_EQ(r.result.digest, service::result_digest(o.native));

  // A malformed job line is a coded reply, not a dropped connection.
  const net::Client::Reply bad = client.submit("mesh=/etc/passwd");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code, "E-JOB-FILEIO");

  server.drain();
  const ServeStats stats = server.loop->stats();
  EXPECT_EQ(stats.open_connections(), 0u);
  EXPECT_EQ(stats.submits, 2u);
  EXPECT_EQ(stats.results_sent, 1u);
  EXPECT_EQ(stats.parse_rejects, 1u);
}

TEST(ServeLoop, InflightLimitShedsWithBusy) {
  ServeConfig scfg;
  scfg.max_inflight = 0;  // every submission is over the limit
  TestServer server(scfg);
  ASSERT_TRUE(server.start());

  net::ClientConfig cfg = client_config(server.port());
  cfg.max_attempts = 2;  // E-NET-BUSY is retryable; prove it retried
  net::Client client(cfg);
  const net::Client::Reply r = client.submit(kSmallJob);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code, "E-NET-BUSY");
  EXPECT_EQ(r.attempts, 2u);

  server.drain();
  EXPECT_GE(server.loop->stats().shed_busy, 2u);
}

TEST(ServeLoop, ConnectionLimitShedsWithMaxconn) {
  ServeConfig scfg;
  scfg.max_connections = 1;
  TestServer server(scfg);
  ASSERT_TRUE(server.start());

  std::string error;
  const auto first =
      net::TcpStream::connect("127.0.0.1", server.port(), 1000, &error);
  ASSERT_NE(first, nullptr) << error;
  // `first` holds the only slot; the next connection must be shed.
  net::ClientConfig cfg = client_config(server.port());
  cfg.max_attempts = 1;
  net::Client shed(cfg);
  const net::Client::PingReply r = shed.ping();
  ASSERT_FALSE(r.ok());
  // The reject frame races the close; both surface as a coded refusal.
  EXPECT_TRUE(r.code == "E-NET-MAXCONN" || r.code == "E-NET-CONN" ||
              r.code == "E-NET-TRUNCATED")
      << r.code;

  server.drain();
  EXPECT_GE(server.loop->stats().shed_maxconn, 1u);
}

TEST(ServeLoop, OversizedFrameRejectedFromHeaderAlone) {
  TestServer server;
  ASSERT_TRUE(server.start());

  std::string error;
  auto s = net::TcpStream::connect("127.0.0.1", server.port(), 1000,
                                   &error);
  ASSERT_NE(s, nullptr) << error;
  // A header promising 15 MB: the server must reject without waiting for
  // (or allocating) any payload.
  auto frame = net::encode_frame(net::FrameType::Submit, 9, {});
  const std::uint32_t huge = 15u << 20;
  std::memcpy(frame.data() + 24, &huge, sizeof(huge));
  ASSERT_TRUE(s->write_all(frame.data(), net::kHeaderBytes, 1000).ok());

  const net::FrameRead reply =
      net::read_frame(*s, net::kDefaultMaxPayload, 2000);
  ASSERT_TRUE(reply.ok()) << reply.code;
  ASSERT_EQ(reply.type, net::FrameType::Reject);
  net::RejectBody body;
  ASSERT_TRUE(net::decode_reject(reply.payload, &body));
  EXPECT_EQ(body.code, "E-NET-OVERSIZE");

  server.drain();
  EXPECT_GE(server.loop->stats().bad_frames, 1u);
}

TEST(ServeLoop, DrainRejectsNewWorkThenExits) {
  JobScheduler::Config cfg = sched_config(1);
  TestServer server(ServeConfig{}, cfg);
  ASSERT_TRUE(server.start());

  // A genuinely slow job holds the drain window open.
  std::thread slow_submitter([&] {
    net::Client slow(client_config(server.port()));
    (void)slow.submit(
        "kernel=euler nodes=400000 edges=2400000 procs=8 k=2 sweeps=4 "
        "deadline=60 name=slow");
  });
  // Wait until the slow job is actually inside the scheduler. The window
  // is generous: synthesizing the 2.4M-edge mesh happens before the
  // submission and can take seconds on a loaded test machine.
  for (int i = 0; i < 3000 && server.sched.stats().pending() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_GT(server.sched.stats().pending(), 0u);

  // The late client's connection is established (and a request served on
  // it) *before* the drain begins: a draining server keeps live
  // connections open so their in-flight results can be collected, and
  // sheds their new submissions with a reasoned refusal. New
  // *connections* are refused outright (the listen socket closes).
  net::ClientConfig ccfg = client_config(server.port());
  ccfg.max_attempts = 3;
  net::Client late(ccfg);
  ASSERT_TRUE(late.ping().ok());

  server.loop->request_drain();
  EXPECT_TRUE(server.loop->draining());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const net::Client::Reply r = late.submit(kSmallJob);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code, "E-NET-DRAINING");
  EXPECT_EQ(r.attempts, 1u) << "drain refusals must not be retried";

  slow_submitter.join();
  server.loop->wait();
  EXPECT_FALSE(server.loop->running());
  server.sched.drain();

  const ServeStats stats = server.loop->stats();
  EXPECT_EQ(stats.open_connections(), 0u);
  EXPECT_GE(stats.shed_draining, 1u);
}

// Connections accepted in the same round as others are read must not be
// confused with poll-set entries they never had: a burst of clients that
// connect at once and submit immediately is served in full, on the first
// attempt, and no connection is closed before the drain.
TEST(ServeLoop, ConnectBurstIsServedWithoutClosingAnyConnection) {
  TestServer server;
  ASSERT_TRUE(server.start());

  constexpr int kClients = 32;
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int i = 0; i < kClients; ++i)
    clients.push_back(
        std::make_unique<net::Client>(client_config(server.port())));
  std::vector<net::Client::Reply> replies(kClients);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      while (arrived.load() < kClients) std::this_thread::yield();
      replies[i] = clients[i]->submit(kSmallJob);
    });
  for (std::thread& t : threads) t.join();

  for (const net::Client::Reply& r : replies) {
    ASSERT_TRUE(r.ok()) << r.code << ": " << r.detail;
    EXPECT_EQ(static_cast<JobState>(r.result.state), JobState::Done);
    EXPECT_EQ(r.attempts, 1u) << "a condemned connection forced a retry";
  }
  const ServeStats live = server.loop->stats();
  EXPECT_EQ(live.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(live.closed, 0u);
  EXPECT_EQ(live.results_sent, static_cast<std::uint64_t>(kClients));

  server.drain();
  EXPECT_EQ(server.loop->stats().open_connections(), 0u);
}

// A resolving job wakes the loop: a round trip costs the job plus the
// wire, never a wait for a timed result-reaping poll.
TEST(ServeLoop, RoundTripIsNotBoundByAPollTick) {
#ifdef EARTHRED_SANITIZED
  GTEST_SKIP() << "wall-clock bound; sanitized builds are too slow";
#endif
  TestServer server;
  ASSERT_TRUE(server.start());

  net::Client client(client_config(server.port()));
  std::vector<double> ms;
  for (int i = 0; i < 50; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const net::Client::Reply r = client.submit(kSmallJob);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    ASSERT_TRUE(r.ok()) << r.code << ": " << r.detail;
  }
  std::nth_element(ms.begin(), ms.begin() + 25, ms.end());
  EXPECT_LT(ms[25], 5.0) << "median round trip in ms";

  server.drain();
  EXPECT_EQ(server.loop->stats().closed, 1u);
}

// ---- the retry / breaker client ----------------------------------------

TEST(Client, CircuitBreakerTripsFastFailsAndRecovers) {
  // Reserve a port that is free right now, then release it: connecting
  // fails until a real server binds it below.
  std::string error;
  const int probe_fd = net::tcp_listen("127.0.0.1", 0, 4, &error);
  ASSERT_GE(probe_fd, 0) << error;
  const std::uint16_t port = net::tcp_local_port(probe_fd);
  ::close(probe_fd);

  net::ClientConfig cfg = client_config(port);
  cfg.max_attempts = 1;
  cfg.connect_timeout_ms = 200;
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown_ms = 100;
  net::Client client(cfg);

  EXPECT_EQ(client.ping().code, "E-NET-CONN");
  // The second consecutive failure reaches the threshold; the client
  // surfaces the tripped breaker so the caller knows further calls will
  // fail fast.
  EXPECT_EQ(client.ping().code, "E-NET-CIRCUIT");
  EXPECT_EQ(client.breaker_state(), net::BreakerState::Open);
  EXPECT_EQ(client.stats().breaker_trips, 1u);
  // Open breaker: fail fast, no connection attempt at all.
  const net::Client::PingReply fast = client.ping();
  EXPECT_EQ(fast.code, "E-NET-CIRCUIT");
  EXPECT_GE(client.stats().breaker_fast_fails, 1u);

  // A server appears on the reserved port; after the cooldown the
  // half-open probe closes the breaker again.
  ServeConfig scfg;
  scfg.port = port;
  TestServer server(scfg);
  ASSERT_TRUE(server.start());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const net::Client::PingReply recovered = client.ping();
  EXPECT_TRUE(recovered.ok()) << recovered.code << ": " << recovered.detail;
  EXPECT_EQ(client.breaker_state(), net::BreakerState::Closed);

  server.drain();
}

// ---- chaos: every byte-fault class through real sockets ----------------

struct ChaosCase {
  const char* label;
  net::ByteFaultConfig faults;
};

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  {
    net::ByteFaultConfig f;
    f.seed = 0xd209;
    f.drop = 0.25;
    cases.push_back({"drop", f});
  }
  {
    net::ByteFaultConfig f;
    f.seed = 0xc0221;
    f.corrupt = 0.25;
    cases.push_back({"corrupt", f});
  }
  {
    net::ByteFaultConfig f;
    f.seed = 0xd112;
    f.duplicate = 0.25;
    cases.push_back({"duplicate", f});
  }
  {
    net::ByteFaultConfig f;
    f.seed = 0xde1a;
    f.delay = 0.5;
    f.delay_ms = 10;
    cases.push_back({"delay", f});
  }
  {
    net::ByteFaultConfig f;
    f.seed = 0x5024;
    f.short_read = 0.6;
    cases.push_back({"short-read", f});
  }
  {
    net::ByteFaultConfig f;
    f.seed = 0xdead;
    f.die_after_bytes = 300;
    cases.push_back({"peer-death", f});
  }
  return cases;
}

TEST(Chaos, EveryFaultClassTerminatesAndServerSurvives) {
  ServeConfig scfg;
  scfg.read_timeout_ms = 300;
  scfg.write_timeout_ms = 500;
  scfg.idle_timeout_ms = 5000;
  TestServer server(scfg);
  ASSERT_TRUE(server.start());

  for (const ChaosCase& c : chaos_cases()) {
    net::ClientConfig cfg = client_config(server.port());
    cfg.request_timeout_ms = 1500;
    cfg.max_attempts = 3;
    cfg.breaker_threshold = 1000;  // never trip: we want the retries
    cfg.wrap_stream = [&c](std::unique_ptr<net::Stream> inner) {
      return std::unique_ptr<net::Stream>(
          new net::FaultyStream(std::move(inner), c.faults));
    };
    net::Client client(cfg);

    std::uint64_t ok = 0, coded = 0;
    for (int i = 0; i < 6; ++i) {
      // Every call must terminate with either a result or an E-* code —
      // never hang, never throw, never crash the server.
      const net::Client::Reply r = client.submit(kSmallJob);
      if (r.ok()) {
        ++ok;
        EXPECT_EQ(static_cast<JobState>(r.result.state), JobState::Done)
            << c.label;
      } else {
        ++coded;
        EXPECT_EQ(r.code.rfind("E-", 0), 0u)
            << c.label << " gave uncoded failure '" << r.code << "'";
      }
    }
    EXPECT_EQ(ok + coded, 6u) << c.label;

    // The server is still healthy after this fault class: a clean client
    // gets a pong.
    net::Client healthy(client_config(server.port()));
    const net::Client::PingReply ping = healthy.ping();
    EXPECT_TRUE(ping.ok())
        << c.label << " wedged the server: " << ping.code;
  }

  server.drain();
  const ServeStats stats = server.loop->stats();
  // No leaked connections, no unexplained silence: every accept was
  // matched by a close, and whatever was shed was shed with a reason.
  EXPECT_EQ(stats.open_connections(), 0u);
  EXPECT_EQ(server.sched.stats().pending(), 0u);
}

}  // namespace
}  // namespace earthred
