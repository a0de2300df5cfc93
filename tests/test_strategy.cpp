// The lowering-strategy layer end to end: the explainable cost model and
// its golden picks, the forced-strategy executor contracts (phased and
// privatized are deterministic and bit-identical to their per-edge
// reference), service admission (the privatized replica-byte budget's
// E-STRATEGY-UNSUPPORTED, per-strategy served counters, retired job-key
// spellings), the plan-cache/store key fork, and the compiler's static
// strategy pass (E-STRATEGY-EXTENT-MIX, W-STRATEGY-DUP-SCATTER,
// I-STRATEGY-* explain notes).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compiler/strategy.hpp"
#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "core/strategy.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh.hpp"
#include "service/job_builder.hpp"
#include "service/job_scheduler.hpp"
#include "service/plan_cache.hpp"
#include "service/plan_store.hpp"
#include "support/check.hpp"

namespace earthred {
namespace {

using core::StrategyCost;
using core::StrategyInputs;
using core::StrategyKind;

/// Clears EARTHRED_FORCE_STRATEGY for the test's lifetime and restores it
/// after, so tests of the *unforced* resolution path stay correct when
/// CI's strategy-matrix job exports the variable around the whole suite.
struct EnvGuard {
  std::optional<std::string> saved;
  EnvGuard() {
    if (const char* v = std::getenv("EARTHRED_FORCE_STRATEGY")) saved = v;
    unsetenv("EARTHRED_FORCE_STRATEGY");
  }
  ~EnvGuard() {
    if (saved)
      setenv("EARTHRED_FORCE_STRATEGY", saved->c_str(), 1);
    else
      unsetenv("EARTHRED_FORCE_STRATEGY");
  }
};

// ---- the cost model ----------------------------------------------------

TEST(StrategyModel, ParseAndToStringRoundTrip) {
  for (const StrategyKind k :
       {StrategyKind::Auto, StrategyKind::Phased, StrategyKind::Privatized})
    EXPECT_EQ(core::parse_strategy(core::to_string(k)), k);
  EXPECT_EQ(core::parse_strategy("rotation"), StrategyKind::Phased);
  EXPECT_EQ(core::parse_strategy("private"), StrategyKind::Privatized);
  try {
    core::parse_strategy("bogus");
    FAIL() << "expected E-STRATEGY-NAME";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("E-STRATEGY-NAME"),
              std::string::npos)
        << e.what();
  }
}

TEST(StrategyModel, ScoresComeInFixedOrderWithRationales) {
  StrategyInputs in;
  in.num_nodes = 1000;
  in.num_edges = 5000;
  in.num_refs = 2;
  in.num_procs = 4;
  in.k = 2;
  const std::vector<StrategyCost> scores = core::score_strategies(in);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0].strategy, StrategyKind::Phased);
  EXPECT_EQ(scores[1].strategy, StrategyKind::Privatized);
  for (const StrategyCost& c : scores) {
    EXPECT_GT(c.cost_per_edge, 0.0);
    EXPECT_FALSE(c.rationale.empty());
  }
}

TEST(StrategyModel, GoldenPicksAcrossShapes) {
  // The golden table the docs cite: small meshes are sync-dominated
  // (privatized's 3 barriers beat the rotation's 2*k*P^2 handoffs), large
  // meshes amortize the rotation and the phased engine wins.
  const auto pick = [](std::uint64_t nodes, std::uint64_t edges,
                       std::uint32_t procs, std::uint32_t k) {
    StrategyInputs in;
    in.num_nodes = nodes;
    in.num_edges = edges;
    in.num_refs = 2;
    in.num_procs = procs;
    in.k = k;
    return core::choose_strategy(in);
  };
  EXPECT_EQ(pick(100, 600, 4, 2), StrategyKind::Privatized);
  EXPECT_EQ(pick(1000, 5000, 4, 2), StrategyKind::Phased);
  EXPECT_EQ(pick(400000, 2400000, 8, 2), StrategyKind::Phased);
}

TEST(StrategyModel, EnvOverrideAppliesOnlyToAuto) {
  EnvGuard guard;
  EXPECT_EQ(core::effective_strategy(StrategyKind::Auto),
            StrategyKind::Auto);
  setenv("EARTHRED_FORCE_STRATEGY", "privatized", 1);
  EXPECT_EQ(core::effective_strategy(StrategyKind::Auto),
            StrategyKind::Privatized);
  // An explicit request always wins over the environment.
  EXPECT_EQ(core::effective_strategy(StrategyKind::Phased),
            StrategyKind::Phased);
  unsetenv("EARTHRED_FORCE_STRATEGY");
}

TEST(StrategyModel, ReplicaBytesBudgetFormula) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({96, 500, 21}));
  const core::KernelShape shape = kernel.shape();
  EXPECT_EQ(core::privatized_replica_bytes(shape, 4),
            4ull * shape.num_nodes * shape.num_reduction_arrays *
                sizeof(double));
}

// ---- the executors -----------------------------------------------------

struct NamedKernel {
  std::string name;
  bool exact;  ///< integer-valued: FP sums commute without rounding
  std::unique_ptr<const core::PhasedKernel> kernel;
};

std::vector<NamedKernel> make_kernels() {
  std::vector<NamedKernel> ks;
  ks.push_back({"fig1", true,
                std::make_unique<kernels::Fig1Kernel>(
                    kernels::Fig1Kernel::with_integer_values(
                        mesh::make_geometric_mesh({96, 500, 21})))});
  ks.push_back({"euler", false,
                std::make_unique<kernels::EulerKernel>(
                    mesh::make_geometric_mesh({160, 700, 8}))});
  ks.push_back({"moldyn", false,
                std::make_unique<kernels::MoldynKernel>(
                    mesh::make_moldyn_lattice({3, 300, 0.03, 2}))});
  return ks;
}

void expect_identical(const core::NativeResult& a,
                      const core::NativeResult& b, const std::string& what) {
  ASSERT_EQ(a.reduction.size(), b.reduction.size()) << what;
  for (std::size_t arr = 0; arr < a.reduction.size(); ++arr)
    for (std::size_t i = 0; i < a.reduction[arr].size(); ++i)
      ASSERT_EQ(a.reduction[arr][i], b.reduction[arr][i])
          << what << " reduction[" << arr << "][" << i << "]";
  for (std::size_t arr = 0; arr < a.node_read.size(); ++arr)
    for (std::size_t i = 0; i < a.node_read[arr].size(); ++i)
      ASSERT_EQ(a.node_read[arr][i], b.node_read[arr][i])
          << what << " node_read[" << arr << "][" << i << "]";
}

void expect_near(const core::NativeResult& a, const core::NativeResult& b,
                 double tol, const std::string& what) {
  ASSERT_EQ(a.reduction.size(), b.reduction.size()) << what;
  for (std::size_t arr = 0; arr < a.reduction.size(); ++arr)
    for (std::size_t i = 0; i < a.reduction[arr].size(); ++i)
      ASSERT_NEAR(a.reduction[arr][i], b.reduction[arr][i], tol)
          << what << " reduction[" << arr << "][" << i << "]";
}

TEST(StrategyExec, ForcedStrategiesBitIdenticalToPerEdgeReference) {
  // The acceptance gate: a forced phased or privatized run — batched or
  // per-edge — is bit-identical to that strategy's per-edge reference
  // across kernels x distributions x k. On the integer-exact kernel the
  // two strategies additionally agree with *each other* bit for bit
  // (summation order cannot round); on real-valued kernels the privatized
  // fold legally reassociates the sums, so cross-strategy agreement is
  // checked to tolerance instead.
  for (const NamedKernel& nk : make_kernels()) {
    for (const auto dist : {inspector::Distribution::Block,
                            inspector::Distribution::Cyclic,
                            inspector::Distribution::BlockCyclic}) {
      for (const std::uint32_t k : {1u, 2u}) {
        const std::string where =
            nk.name + " dist=" + std::to_string(static_cast<int>(dist)) +
            " k=" + std::to_string(k);
        std::vector<core::NativeResult> per_edge;
        for (const StrategyKind s :
             {StrategyKind::Phased, StrategyKind::Privatized}) {
          core::PlanOptions popt;
          popt.num_procs = 4;
          popt.k = k;
          popt.distribution = dist;
          popt.strategy = s;
          const core::ExecutionPlan plan =
              core::build_execution_plan(*nk.kernel, popt);

          core::SweepOptions sopt;
          sopt.sweeps = 3;
          sopt.batch = false;
          const core::NativeResult edge =
              core::run_native_plan(*nk.kernel, plan, sopt);
          EXPECT_EQ(edge.strategy, s) << where;
          sopt.batch = true;
          const core::NativeResult batch =
              core::run_native_plan(*nk.kernel, plan, sopt);
          EXPECT_EQ(batch.strategy, s) << where;
          expect_identical(
              edge, batch,
              where + " " + std::string(core::to_string(s)) +
                  " batch vs per-edge");
          per_edge.push_back(edge);
        }
        if (nk.exact)
          expect_identical(per_edge[0], per_edge[1],
                           where + " phased vs privatized");
        else
          expect_near(per_edge[0], per_edge[1], 1e-9,
                      where + " phased vs privatized");
      }
    }
  }
}

TEST(StrategyExec, PrivatizedRepeatedRunsAreDeterministic) {
  // The fixed worker-ascending fold makes privatized results independent
  // of thread timing even for real accumulators.
  const kernels::EulerKernel kernel(mesh::make_geometric_mesh({160, 700, 8}));
  core::PlanOptions popt;
  popt.num_procs = 4;
  popt.k = 2;
  popt.strategy = StrategyKind::Privatized;
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, popt);
  core::SweepOptions sopt;
  sopt.sweeps = 4;
  const core::NativeResult a = core::run_native_plan(kernel, plan, sopt);
  const core::NativeResult b = core::run_native_plan(kernel, plan, sopt);
  expect_identical(a, b, "privatized repeat");
}

TEST(StrategyExec, AutoResolvesToConcreteStrategy) {
  EnvGuard guard;
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({96, 500, 21}));
  core::PlanOptions popt;
  popt.num_procs = 4;
  popt.k = 2;
  core::SweepOptions sopt;
  sopt.sweeps = 2;
  const core::NativeResult r = core::run_native_engine(kernel, popt, sopt);
  EXPECT_NE(r.strategy, StrategyKind::Auto);
  EXPECT_EQ(r.strategy,
            core::resolve_strategy(
                StrategyKind::Auto,
                core::strategy_inputs(kernel.shape(), 4, 2)));
}

// ---- service admission and counters ------------------------------------

std::shared_ptr<kernels::Fig1Kernel> small_kernel() {
  return std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 600, 11})));
}

core::PlanOptions plan_opts(std::uint32_t P, std::uint32_t k) {
  core::PlanOptions opt;
  opt.num_procs = P;
  opt.k = k;
  return opt;
}

TEST(StrategyService, ForcedPrivatizedOverBudgetIsRejected) {
  // The follow-up auto job must resolve through the cost model (never
  // rejected); clear the CI matrix env so it cannot become an
  // effectively-forced privatized request against the tiny budget.
  const EnvGuard guard;
  service::JobScheduler::Config cfg;
  cfg.workers = 1;
  cfg.max_replica_bytes = 16;  // nothing real fits
  service::JobScheduler sched(cfg);

  service::JobRequest req;
  req.kernel = small_kernel();
  req.name = "over-budget";
  req.plan = plan_opts(4, 2);
  req.plan.strategy = StrategyKind::Privatized;
  const service::JobHandle h = sched.submit(std::move(req));
  const service::JobOutcome& o = h.wait();
  EXPECT_EQ(o.state, service::JobState::Rejected);
  EXPECT_NE(o.error.find("E-STRATEGY-UNSUPPORTED"), std::string::npos)
      << o.error;
  EXPECT_EQ(sched.stats().rejected_strategy, 1u);

  // Auto never rejects: the cost model steers around the budget.
  service::JobRequest ok;
  ok.kernel = small_kernel();
  ok.plan = plan_opts(4, 2);
  const service::JobHandle h2 = sched.submit(std::move(ok));
  const service::JobOutcome& o2 = h2.wait();
  EXPECT_EQ(o2.state, service::JobState::Done) << o2.error;
}

TEST(StrategyService, ServedCountersTallyPerStrategy) {
  service::JobScheduler sched;
  for (const StrategyKind s :
       {StrategyKind::Phased, StrategyKind::Privatized}) {
    service::JobRequest req;
    req.kernel = small_kernel();
    req.name = std::string(core::to_string(s));
    req.plan = plan_opts(4, 2);
    req.plan.strategy = s;
    const service::JobHandle h = sched.submit(std::move(req));
    const service::JobOutcome& o = h.wait();
    ASSERT_EQ(o.state, service::JobState::Done) << o.error;
    EXPECT_EQ(o.strategy, s);
  }
  const service::ServiceStats s = sched.stats();
  EXPECT_EQ(s.served_phased, 1u);
  EXPECT_EQ(s.served_privatized, 1u);
  EXPECT_EQ(s.rejected_strategy, 0u);
}

TEST(StrategyService, BuilderParsesStrategyJobKey) {
  service::JobBuilder builder;
  const service::JobBuild b = builder.build(
      "kernel=fig1 nodes=100 edges=500 procs=4 k=2 strategy=privatized");
  ASSERT_TRUE(b.ok()) << b.code << ": " << b.detail;
  ASSERT_EQ(b.requests.size(), 1u);
  EXPECT_EQ(b.requests[0].plan.strategy, StrategyKind::Privatized);

  const service::JobBuild bad = builder.build(
      "kernel=fig1 nodes=100 edges=500 strategy=bogus");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code, "E-JOB-VALUE") << bad.detail;
}

TEST(StrategyService, BuilderRejectsRetiredSpellings) {
  // The retired backend= key and atomic strategy fail as coded job
  // errors, never as a silently ignored token.
  service::JobBuilder builder;
  const service::JobBuild backend = builder.build(
      "kernel=fig1 nodes=100 edges=500 procs=4 k=2 backend=avx2");
  EXPECT_FALSE(backend.ok());
  EXPECT_EQ(backend.code, "E-JOB-KEY") << backend.detail;

  const service::JobBuild atomic = builder.build(
      "kernel=fig1 nodes=100 edges=500 procs=4 k=2 strategy=atomic");
  EXPECT_FALSE(atomic.ok());
  EXPECT_EQ(atomic.code, "E-JOB-VALUE") << atomic.detail;
  EXPECT_NE(atomic.detail.find("E-STRATEGY-NAME"), std::string::npos)
      << atomic.detail;
}

// ---- plan cache / store identity ---------------------------------------

TEST(StrategyPlans, KeyAndStoreForkOnForcedStrategy) {
  const auto kernel = *small_kernel();
  core::PlanOptions auto_opt = plan_opts(4, 2);
  core::PlanOptions forced_opt = plan_opts(4, 2);
  forced_opt.strategy = StrategyKind::Privatized;

  const service::PlanKey auto_key = service::make_plan_key(kernel, auto_opt);
  const service::PlanKey forced_key =
      service::make_plan_key(kernel, forced_opt);
  EXPECT_NE(auto_key, forced_key);
  EXPECT_EQ(auto_key.content_hash, forced_key.content_hash);

  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "earthred-test-strategy-store").string();
  fs::remove_all(dir);
  const service::PlanStore store(dir);
  // Forked paths: the two keys can never clobber each other on disk.
  EXPECT_NE(store.path_for(auto_key), store.path_for(forced_key));

  const core::ExecutionPlan plan =
      core::build_execution_plan(kernel, forced_opt);
  std::string error;
  ASSERT_TRUE(store.save(forced_key, plan, &error)) << error;
  const core::PlanLoadResult r = store.load(forced_key);
  ASSERT_TRUE(r.ok()) << r.error_code << ": " << r.detail;
  EXPECT_EQ(r.plan->options.strategy, StrategyKind::Privatized);

  // The header persists the request so identity checks can reject a
  // strategy-mismatched file.
  std::string code, detail;
  const auto header =
      core::read_plan_header(store.path_for(forced_key), &code, &detail);
  ASSERT_TRUE(header.has_value()) << code << ": " << detail;
  EXPECT_EQ(header->strategy,
            static_cast<std::uint32_t>(StrategyKind::Privatized));
  fs::remove_all(dir);
}

// ---- the compiler pass -------------------------------------------------

constexpr const char* kFig1Source = R"(
param num_nodes, num_edges;
array real X[num_nodes];
array int  IA1[num_edges];
array int  IA2[num_edges];
array real Y[num_edges];

forall (i : 0 .. num_edges) {
  X[IA1[i]] += Y[i] * 2.0;
  X[IA2[i]] += Y[i] * 2.0;
}
)";

TEST(StrategyPass, ExtentMixIsAnError) {
  const compiler::CheckReport report = compiler::check_source(R"(
param num_nodes, num_cells, num_edges;
array real X[num_nodes];
array real C[num_cells];
array int  IA[num_edges];
array real Y[num_edges];

forall (e : 0 .. num_edges) {
  X[IA[e]] += Y[e];
  C[IA[e]] += Y[e];
}
)");
  ASSERT_TRUE(report.has_errors());
  EXPECT_NE(report.first_error().find("E-STRATEGY-EXTENT-MIX"),
            std::string::npos)
      << report.first_error();
}

TEST(StrategyPass, DuplicateScatterWarns) {
  const compiler::CheckReport report = compiler::check_source(R"(
param num_nodes, num_edges;
array real X[num_nodes];
array int  IA[num_edges];
array real Y[num_edges];

forall (e : 0 .. num_edges) {
  X[IA[e]] += Y[e];
  X[IA[e]] += Y[e] * 0.5;
}
)");
  EXPECT_FALSE(report.has_errors());
  ASSERT_EQ(report.warning_count(), 1u);
  bool found = false;
  for (const Diagnostic& d : report.diagnostics)
    found = found || d.code == "W-STRATEGY-DUP-SCATTER";
  EXPECT_TRUE(found);
}

TEST(StrategyPass, ExplainNotesAreOptIn) {
  compiler::StrategyContext quiet;
  const compiler::StrategyReport silent =
      compiler::check_source_with_strategies(kFig1Source, quiet);
  EXPECT_TRUE(silent.check.diagnostics.empty())
      << silent.check.render();  // the golden-corpus contract

  compiler::StrategyContext ctx;
  ctx.explain = true;
  const compiler::StrategyReport sr =
      compiler::check_source_with_strategies(kFig1Source, ctx);
  std::size_t chain = 0, cost = 0, choice = 0;
  for (const Diagnostic& d : sr.check.diagnostics) {
    chain += d.code == "I-STRATEGY-CHAIN";
    cost += d.code == "I-STRATEGY-COST";
    choice += d.code == "I-STRATEGY-CHOICE";
  }
  EXPECT_EQ(chain, 1u);   // one classified chain: X via {IA1,IA2}
  EXPECT_EQ(cost, 2u);    // both strategies scored
  EXPECT_EQ(choice, 1u);  // one decision per loop

  ASSERT_EQ(sr.lowering.loops.size(), 1u);
  const compiler::LoopStrategy& ls = sr.lowering.loops[0];
  EXPECT_TRUE(ls.legal);
  ASSERT_EQ(ls.chains.size(), 1u);
  EXPECT_EQ(ls.chains[0].array, "X");
  EXPECT_EQ(ls.chains[0].updates_per_iteration, 2u);
  EXPECT_EQ(ls.chains[0].elem, compiler::ElemType::Real);
  ASSERT_EQ(ls.scores.size(), 2u);
  EXPECT_FALSE(ls.rationale.empty());
  EXPECT_NE(sr.lowering.render().find("strategy="), std::string::npos);
}

TEST(StrategyPass, IllegalLoopsAreNotScored) {
  const compiler::StrategyReport sr =
      compiler::check_source_with_strategies(R"(
param num_nodes, num_edges;
array real X[num_nodes];
array int  IA[num_edges];
array real Y[num_edges];

forall (e : 0 .. num_edges) {
  X[IA[e]] += Y[e] + X[IA[e]];
}
)",
                                             compiler::StrategyContext{});
  EXPECT_TRUE(sr.check.has_errors());
  ASSERT_EQ(sr.lowering.loops.size(), 1u);
  EXPECT_FALSE(sr.lowering.loops[0].legal);
  EXPECT_TRUE(sr.lowering.loops[0].scores.empty());
  EXPECT_NE(sr.lowering.loops[0].rationale.find("not scored"),
            std::string::npos);
}

TEST(StrategyPass, MeshStatsFeedTheContentionTerm) {
  const mesh::Mesh m = mesh::make_geometric_mesh({96, 500, 21});
  const compiler::MeshStats stats = compiler::mesh_stats_from_degrees(
      mesh::node_degrees(m), m.num_edges());
  EXPECT_TRUE(stats.bound());
  EXPECT_EQ(stats.num_nodes, 96u);
  EXPECT_EQ(stats.num_edges, 500u);
  EXPECT_GT(stats.mean_degree, 0.0);
  EXPECT_GE(stats.degree_cv, 0.0);

  // Uniform degrees have zero skew; one hot node does not.
  const compiler::MeshStats uniform =
      compiler::mesh_stats_from_degrees({4, 4, 4, 4}, 8);
  EXPECT_EQ(uniform.degree_cv, 0.0);
  const compiler::MeshStats hot =
      compiler::mesh_stats_from_degrees({13, 1, 1, 1}, 8);
  EXPECT_GT(hot.degree_cv, 1.0);
}

}  // namespace
}  // namespace earthred
