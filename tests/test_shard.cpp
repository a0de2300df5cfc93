// The shard-router fleet: ShardMap parsing, rendezvous-hash stability
// (golden assignment table + the ≤1/N movement bound on shard removal),
// content-key canonicalization, router end-to-end digest parity against
// in-process execution, coded-reject propagation, cross-shard drain
// ordering, and the chaos gate — a shard killed mid-stream under byte
// faults leaves every submitted job terminated in a Result or a coded
// Reject, with rerouted results bit-identical to in-process runs.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/stream.hpp"
#include "net/wire.hpp"
#include "service/job_builder.hpp"
#include "service/job_scheduler.hpp"
#include "service/serve_loop.hpp"
#include "shard/endpoint_pool.hpp"
#include "shard/shard_map.hpp"
#include "shard/shard_router.hpp"

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
using shard::EndpointPool;
using shard::RouterConfig;
using shard::RouterStats;
using shard::ShardEndpoint;
using shard::ShardMap;
using shard::ShardRouter;
using shard::ShardSnapshot;

JobScheduler::Config sched_config(std::uint32_t workers = 2) {
  JobScheduler::Config cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 64;
  cfg.default_deadline = 30.0;
  return cfg;
}

/// One backend shard wired the way `earthred serve --listen` wires it.
struct TestShard {
  JobScheduler sched;
  std::shared_ptr<JobBuilder> builder;
  std::unique_ptr<ServeLoop> loop;

  explicit TestShard(ServeConfig scfg = {})
      : sched(sched_config()) {
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
  void stop() {
    loop->request_abort();
    loop->wait();
    sched.drain();
  }
};

/// A fleet of N in-process shards plus a router in front of them.
struct TestFleet {
  std::vector<std::unique_ptr<TestShard>> shards;
  std::unique_ptr<ShardRouter> router;

  explicit TestFleet(std::size_t n, RouterConfig rcfg = {}) {
    std::vector<ShardEndpoint> eps;
    for (std::size_t i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<TestShard>());
      EXPECT_TRUE(shards.back()->start());
      eps.push_back({"s" + std::to_string(i), "127.0.0.1",
                     shards.back()->port()});
    }
    if (rcfg.pool.client.max_attempts == 4) {  // defaults: fast tests
      rcfg.pool.client.max_attempts = 3;
      rcfg.pool.client.backoff_base_ms = 2;
      rcfg.pool.client.backoff_cap_ms = 20;
      rcfg.pool.client.connect_timeout_ms = 2000;
      rcfg.pool.client.request_timeout_ms = 30000;
    }
    router = std::make_unique<ShardRouter>(ShardMap(eps), rcfg);
    std::string error;
    EXPECT_TRUE(router->start(&error)) << error;
  }
  ~TestFleet() {
    if (router->running()) {
      router->request_abort();
      router->wait();
    }
    for (auto& s : shards) s->stop();
  }
  net::ClientConfig client_config() const {
    net::ClientConfig cfg;
    cfg.port = router->port();
    cfg.request_timeout_ms = 30000;
    cfg.max_attempts = 3;
    cfg.backoff_base_ms = 2;
    cfg.backoff_cap_ms = 20;
    return cfg;
  }
};

/// Runs one job line in-process and returns its result digest — the
/// reference every remote/rerouted execution must match bit-for-bit.
std::uint64_t inprocess_digest(const std::string& line) {
  JobScheduler sched(sched_config());
  JobBuilder builder;
  JobBuild b = builder.build(line, 0);
  EXPECT_TRUE(b.ok()) << b.code << ": " << b.detail;
  if (!b.ok() || b.requests.size() != 1) return 0;
  service::JobHandle h = sched.submit(std::move(b.requests[0]));
  const JobOutcome& o = h.wait();
  EXPECT_EQ(o.state, JobState::Done) << o.error;
  sched.drain();
  return service::result_digest(o.native);
}

// ---- ShardMap parsing ---------------------------------------------------

TEST(ShardMapParse, ConfigFileFormatAndErrors) {
  std::string error;
  const ShardMap map = ShardMap::parse(
      "# fleet config\n"
      "alpha 127.0.0.1:7001\n"
      "\n"
      "beta  127.0.0.1:7002\n"
      "127.0.0.1:7003\n",
      &error);
  ASSERT_EQ(map.size(), 3u) << error;
  EXPECT_EQ(map.at(0).name, "alpha");
  EXPECT_EQ(map.at(1).port, 7002);
  // A nameless line names itself after its endpoint.
  EXPECT_EQ(map.at(2).name, "127.0.0.1:7003");

  EXPECT_TRUE(ShardMap::parse("alpha 127.0.0.1:0\n", &error).empty());
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(ShardMap::parse("alpha 127.0.0.1:x\n", &error).empty());
  EXPECT_TRUE(ShardMap::parse("a 127.0.0.1:1\na 127.0.0.1:2\n", &error)
                  .empty());
  EXPECT_NE(error.find("duplicate"), std::string::npos);

  const ShardMap spec =
      ShardMap::from_spec("127.0.0.1:7001, 127.0.0.1:7002", &error);
  ASSERT_EQ(spec.size(), 2u) << error;
  EXPECT_TRUE(ShardMap::from_spec("127.0.0.1:badport", &error).empty());
}

// ---- rendezvous hashing -------------------------------------------------

TEST(Rendezvous, GoldenAssignmentTable) {
  // Pinned against the committed routing function: if either the
  // content-key canonicalization or the HRW weight changes, every warm
  // fleet cache is invalidated on upgrade — this table makes that an
  // explicit, reviewed decision rather than an accident.
  std::vector<ShardEndpoint> eps;
  for (const char* n : {"alpha", "beta", "gamma", "delta"})
    eps.push_back({n, "127.0.0.1", 1});
  const ShardMap map{eps};
  struct Golden {
    const char* line;
    std::uint64_t key;
    std::uint32_t owner;
  };
  const Golden golden[] = {
      {"kernel=fig1 nodes=80 edges=400 procs=4 k=2 sweeps=2 name=wire",
       0xfcdb494a9d3d16c4ull, 1},
      {"kernel=fig1 nodes=81 edges=400 procs=4 k=2",
       0x596dc4b2599e792bull, 1},
      {"kernel=fig1 nodes=82 edges=400 procs=4 k=2",
       0xbc54c83e3cdb1d71ull, 3},
      {"kernel=euler nodes=200 edges=900 procs=4 k=2",
       0x83ba0f582c4c9306ull, 2},
      {"kernel=euler nodes=200 edges=900 procs=8 k=2",
       0x56a51ef7a6f95a5full, 3},
      {"kernel=euler nodes=200 edges=900 procs=4 k=3",
       0x69045197ab51ea5eull, 1},
      {"kernel=moldyn nodes=150 edges=600 procs=4 k=2 dist=block",
       0x9ef0474d6a6807ceull, 1},
      {"kernel=moldyn nodes=150 edges=600 procs=4 k=2 dist=bc bc=32",
       0x20d675680c707c16ull, 1},
      {"kernel=euler preset=euler-small procs=4 k=2",
       0x52ab65193e54647cull, 2},
      {"kernel=euler nodes=1000 edges=5000 seed=7 procs=4 k=2",
       0x9fbe9363fd30800eull, 2},
      {"kernel=fig1 nodes=64 edges=256 procs=2 k=2 dedup",
       0xdd9f4667d3da2dd9ull, 1},
      {"kernel=euler nodes=500 edges=2500 procs=6 k=2 seed=9",
       0xbf2ac70638df62ffull, 1},
  };
  for (const Golden& g : golden) {
    const std::uint64_t key = shard::content_key(g.line);
    EXPECT_EQ(key, g.key) << g.line;
    EXPECT_EQ(map.owner(key), g.owner) << g.line;
    // rank() and owner() agree, and rank is a permutation.
    const std::vector<std::uint32_t> order = map.rank(key);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], g.owner);
    EXPECT_EQ(std::set<std::uint32_t>(order.begin(), order.end()).size(),
              4u);
  }
}

TEST(Rendezvous, RemovingAShardMovesOnlyItsOwnKeys) {
  std::vector<ShardEndpoint> eps;
  for (const char* n : {"alpha", "beta", "gamma", "delta"})
    eps.push_back({n, "127.0.0.1", 1});
  const ShardMap four{eps};
  // Remove "delta": the HRW property says every key delta did not own
  // keeps its owner (only ~1/N of the keyspace moves — the whole point
  // of rendezvous over modulo hashing for warm plan caches).
  eps.pop_back();
  const ShardMap three{eps};

  const std::size_t kKeys = 1000;
  std::size_t owned_by_removed = 0, moved = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::uint64_t key = 0x9e3779b97f4a7c15ull * (i + 1);
    const std::uint32_t before = four.owner(key);
    const std::uint32_t after = three.owner(key);
    if (before == 3) {
      ++owned_by_removed;
      continue;  // had to move somewhere
    }
    // Survivor keys never move; names keep their index here.
    EXPECT_EQ(after, before) << "key " << i;
    if (after != before) ++moved;
  }
  EXPECT_EQ(moved, 0u);
  // The removed shard owned about a quarter of the keyspace.
  EXPECT_GT(owned_by_removed, kKeys / 8);
  EXPECT_LT(owned_by_removed, kKeys * 3 / 8);
}

// ---- content-key canonicalization ---------------------------------------

TEST(ContentKey, DefaultsOrderAndNonRoutingKeysAreCanonicalized) {
  const std::uint64_t base =
      shard::content_key("kernel=fig1 nodes=80 edges=400 procs=4 k=2");
  // Defaults spelled out == omitted.
  EXPECT_EQ(shard::content_key("kernel=fig1 nodes=80 edges=400 procs=4 "
                               "k=2 seed=42 dist=cyclic bc=16"),
            base);
  // Token order is irrelevant.
  EXPECT_EQ(shard::content_key("k=2 procs=4 edges=400 nodes=80 "
                               "kernel=fig1"),
            base);
  // Numeric canonicalization.
  EXPECT_EQ(shard::content_key("kernel=fig1 nodes=080 edges=400 procs=4 "
                               "k=2"),
            base);
  // Non-routing keys never affect placement: sweeps/name vary per run,
  // and mutate= must route to the shard holding the *base* plan.
  EXPECT_EQ(shard::content_key("kernel=fig1 nodes=80 edges=400 procs=4 "
                               "k=2 sweeps=9 name=zzz"),
            base);
  EXPECT_EQ(shard::content_key("kernel=fig1 nodes=80 edges=400 procs=4 "
                               "k=2 mutate=16 mutate-seed=3"),
            base);
  // Routing keys do.
  EXPECT_NE(shard::content_key("kernel=fig1 nodes=81 edges=400 procs=4 "
                               "k=2"),
            base);
  EXPECT_NE(shard::content_key("kernel=fig1 nodes=80 edges=400 procs=4 "
                               "k=2 dedup"),
            base);
  // Unknown tokens perturb deterministically (distinct garbage lines
  // must not collide onto one key).
  EXPECT_NE(shard::content_key("kernel=fig1 nodes=80 edges=400 procs=4 "
                               "k=2 bogus=1"),
            base);
  EXPECT_EQ(shard::content_key("bogus=1"), shard::content_key("bogus=1"));
}

// ---- router end-to-end --------------------------------------------------

TEST(Router, RoutesToOwnerWithDigestParityAndWarmCache) {
  TestFleet fleet(2);
  net::Client client(fleet.client_config());

  const std::vector<std::string> lines = {
      "kernel=fig1 nodes=80 edges=400 procs=4 k=2 sweeps=2 name=a",
      "kernel=euler nodes=200 edges=900 procs=4 k=2 sweeps=2 name=b",
  };
  std::map<std::string, std::uint64_t> expected;
  for (const std::string& l : lines) expected[l] = inprocess_digest(l);

  // Two passes: the second must hit the warm PlanCache of the same shard
  // the first pass landed on (content-key affinity), with identical
  // digests both times.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& l : lines) {
      const net::Client::Reply r = client.submit(l);
      ASSERT_TRUE(r.ok()) << r.code << ": " << r.detail;
      EXPECT_EQ(static_cast<JobState>(r.result.state), JobState::Done);
      EXPECT_EQ(r.result.digest, expected[l]) << l;
      EXPECT_EQ(r.result.flags & net::kResultFlagRerouted, 0u);
      if (pass == 1) EXPECT_EQ(r.result.cache_hit, 1u) << l;
    }
  }
  // Quiesce before reading stats: results_sent lands after the reply is
  // written, so a client can observe its last result a beat before the
  // conn thread's counter bump (the identity is a quiesce guarantee).
  fleet.router->request_drain();
  fleet.router->wait();
  const RouterStats rs = fleet.router->stats();
  EXPECT_EQ(rs.submits, 4u);
  EXPECT_EQ(rs.results_sent, 4u);
  EXPECT_EQ(rs.submit_rejects, 0u);
  EXPECT_EQ(rs.reroutes, 0u);
  // Every forward went to the key's owner shard.
  std::uint64_t done = 0;
  for (const ShardSnapshot& s : fleet.router->pool().snapshot()) {
    done += s.done;
    EXPECT_EQ(s.rerouted_in, 0u);
    EXPECT_EQ(s.failovers, 0u);
  }
  EXPECT_EQ(done, 4u);
}

TEST(Router, JobCodesPropagateWithoutFailover) {
  TestFleet fleet(2);
  net::Client client(fleet.client_config());
  const net::Client::Reply r = client.submit("kernel=nope nodes=10");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code.rfind("E-JOB", 0), 0u) << r.code;
  const RouterStats rs = fleet.router->stats();
  EXPECT_EQ(rs.submits, 1u);
  EXPECT_EQ(rs.submit_rejects, 1u);
  // A deterministic refusal was not retried on the other shard.
  std::uint64_t forwards = 0;
  for (const ShardSnapshot& s : fleet.router->pool().snapshot())
    forwards += s.forwards;
  EXPECT_EQ(forwards, 1u);
}

TEST(Router, RetiredKeysAreCodedRejects) {
  // backend=, layout= and strategy= are no longer job keys: routed like
  // any unknown token, the owning shard's JobBuilder refuses them with
  // E-JOB-KEY, and the fleet keeps serving.
  TestFleet fleet(2);
  net::Client client(fleet.client_config());
  for (const char* retired :
       {"backend=avx512", "layout=rcm", "strategy=privatized"}) {
    const net::Client::Reply r = client.submit(
        std::string("kernel=fig1 nodes=80 edges=400 procs=4 k=2 ") +
        retired);
    ASSERT_FALSE(r.ok()) << retired;
    EXPECT_EQ(r.code, "E-JOB-KEY") << retired << ": " << r.detail;
  }

  const net::Client::Reply ok =
      client.submit("kernel=fig1 nodes=80 edges=400 procs=4 k=2 sweeps=2");
  ASSERT_TRUE(ok.ok()) << ok.code << ": " << ok.detail;
  EXPECT_EQ(static_cast<JobState>(ok.result.state), JobState::Done);
  EXPECT_EQ(fleet.router->stats().submit_rejects, 3u);
}

TEST(Router, PingReportsRouterHealth) {
  TestFleet fleet(2);
  net::Client client(fleet.client_config());
  const net::Client::PingReply r = client.ping();
  ASSERT_TRUE(r.ok()) << r.code;
  EXPECT_EQ(r.pong.draining, 0u);
  EXPECT_EQ(r.pong.version, net::kVersion);
}

TEST(Router, FleetDrainShardsFirstRouterLastThenQuiesce) {
  TestFleet fleet(2);
  {
    net::Client client(fleet.client_config());
    const net::Client::Reply warm = client.submit(
        "kernel=fig1 nodes=80 edges=400 procs=4 k=2 sweeps=1 name=w");
    ASSERT_TRUE(warm.ok()) << warm.code;

    // One Drain frame to the router drains the whole fleet.
    const net::Client::PingReply ack = client.drain();
    ASSERT_TRUE(ack.ok()) << ack.code << ": " << ack.detail;
    EXPECT_EQ(ack.pong.draining, 1u);
  }
  EXPECT_TRUE(fleet.router->draining());
  for (auto& s : fleet.shards) EXPECT_TRUE(s->loop->draining());

  // New work is refused with the drain code, never silently dropped.
  net::ClientConfig ccfg = fleet.client_config();
  ccfg.max_attempts = 1;
  net::Client late(ccfg);
  const net::Client::Reply r = late.submit(
      "kernel=fig1 nodes=80 edges=400 procs=4 k=2 sweeps=1 name=late");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code, "E-NET-DRAINING") << r.detail;

  // Quiesce order: shards exit, then the router itself.
  for (auto& s : fleet.shards) {
    s->loop->wait();
    EXPECT_FALSE(s->loop->running());
  }
  fleet.router->wait();
  EXPECT_FALSE(fleet.router->running());
  const RouterStats rs = fleet.router->stats();
  EXPECT_EQ(rs.drain_frames, 1u);
  EXPECT_EQ(rs.submits, rs.results_sent + rs.submit_rejects);
}

// ---- the chaos gate -----------------------------------------------------

// With 3 shards, seeded byte faults on every router->shard connection,
// and one shard killed mid-stream: every submitted job terminates in a
// Result or a coded Reject (submits == results_sent + submit_rejects —
// no hangs, no silent drops), jobs owned by the dead shard are rerouted,
// and every returned digest is bit-identical to in-process execution.
TEST(Chaos, KilledShardMidStreamNeverHangsOrDropsJobs) {
  RouterConfig rcfg;
  rcfg.pool.client.max_attempts = 3;
  rcfg.pool.client.backoff_base_ms = 2;
  rcfg.pool.client.backoff_cap_ms = 20;
  rcfg.pool.client.connect_timeout_ms = 1000;
  rcfg.pool.client.request_timeout_ms = 30000;
  rcfg.pool.client.breaker_threshold = 3;
  rcfg.pool.client.breaker_cooldown_ms = 100;
  rcfg.pool.wrap_stream = [](std::unique_ptr<net::Stream> inner,
                             std::uint32_t index) {
    net::ByteFaultConfig fc;
    fc.seed = 0xc4a05 + index;
    fc.corrupt = 0.005;     // client retries recover checksum damage
    fc.short_read = 0.05;   // reassembly exercised on every path
    return std::unique_ptr<net::Stream>(
        std::make_unique<net::FaultyStream>(std::move(inner), fc));
  };
  TestFleet fleet(3, rcfg);

  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i)
    lines.push_back("kernel=fig1 nodes=" + std::to_string(80 + i) +
                    " edges=400 procs=4 k=2 sweeps=2");
  std::map<std::string, std::uint64_t> expected;
  for (const std::string& l : lines) expected[l] = inprocess_digest(l);

  // The victim is the shard owning the first line, so at least one job
  // is guaranteed to need a failover after the kill.
  const std::uint32_t victim =
      fleet.router->map().owner(shard::content_key(lines[0]));

  constexpr int kThreads = 3;
  constexpr int kJobsPerThread = 10;
  std::atomic<std::uint64_t> ok_replies{0}, coded_rejects{0},
      digest_mismatches{0}, rerouted_seen{0};
  std::vector<std::thread> workers;
  std::atomic<int> submitted_before_kill{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      net::ClientConfig ccfg = fleet.client_config();
      ccfg.max_attempts = 4;
      ccfg.jitter_seed = 0xbeef + t;
      net::Client client(ccfg);
      for (int j = 0; j < kJobsPerThread; ++j) {
        const std::string& line = lines[(t + j) % lines.size()];
        const net::Client::Reply r = client.submit(line);
        if (r.ok()) {
          ok_replies.fetch_add(1);
          if (r.result.digest != expected[line])
            digest_mismatches.fetch_add(1);
          if (r.result.flags & net::kResultFlagRerouted)
            rerouted_seen.fetch_add(1);
        } else {
          // Every failure must carry a code — that *is* the contract.
          EXPECT_FALSE(r.code.empty());
          coded_rejects.fetch_add(1);
        }
        submitted_before_kill.fetch_add(1);
      }
    });
  }
  // Kill the victim once the stream is flowing.
  while (submitted_before_kill.load() < kThreads * kJobsPerThread / 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fleet.shards[victim]->stop();
  for (std::thread& w : workers) w.join();
  // The accounting identity is guaranteed at quiesce (a client can read
  // its reply a beat before the conn thread's counter bump lands).
  fleet.router->request_drain();
  fleet.router->wait();

  // The gate: nothing hung (we got here), nothing was dropped silently.
  EXPECT_EQ(ok_replies.load() + coded_rejects.load(),
            static_cast<std::uint64_t>(kThreads * kJobsPerThread));
  EXPECT_EQ(digest_mismatches.load(), 0u);
  EXPECT_GE(rerouted_seen.load(), 1u);
  const RouterStats rs = fleet.router->stats();
  EXPECT_EQ(rs.submits, rs.results_sent + rs.submit_rejects)
      << "router accounting leaked a job";
  EXPECT_GE(rs.reroutes, 1u);
}

// ---- endpoint pool back-pressure ----------------------------------------

TEST(EndpointPool, SheddingAtTheInflightBoundIsCodedBusy) {
  // A map pointing at a port nobody listens on, with a zero in-flight
  // budget: submission must shed with E-NET-BUSY before any connect.
  shard::EndpointPoolConfig cfg;
  cfg.max_inflight_per_shard = 0;
  EndpointPool pool(ShardMap({{"solo", "127.0.0.1", 1}}), cfg);
  const EndpointPool::Forward f = pool.submit(1, "kernel=fig1");
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.code, "E-NET-BUSY");
  EXPECT_EQ(pool.snapshot()[0].busy_shed, 1u);

  EndpointPool empty{ShardMap{}, {}};
  EXPECT_EQ(empty.submit(1, "kernel=fig1").code, "E-NET-CONN");
}

}  // namespace
}  // namespace earthred
