#include "service/job_builder.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "compiler/check.hpp"
#include "compiler/compiler.hpp"
#include "inspector/distribution.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "mesh/io.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/prng.hpp"
#include "support/str.hpp"

namespace earthred::service {

namespace {

/// Every key a job line may carry; anything else is E-JOB-KEY.
const std::set<std::string>& known_keys() {
  static const std::set<std::string> keys = {
      "kernel",  "mesh",    "preset",      "nodes",   "edges",
      "seed",    "procs",   "k",           "dist",    "bc",
      "dedup",   "sweeps",  "deadline",    "engine",  "name",
      "batch",   "no-batch","pin",         "verify",
      "mutate",  "mutate-seed", "dsl"};
  return keys;
}

std::unique_ptr<core::PhasedKernel> make_kernel(const std::string& kname,
                                                mesh::Mesh m) {
  if (kname == "euler")
    return std::make_unique<kernels::EulerKernel>(std::move(m));
  if (kname == "moldyn")
    return std::make_unique<kernels::MoldynKernel>(std::move(m));
  if (kname == "fig1")
    return std::make_unique<kernels::Fig1Kernel>(
        kernels::Fig1Kernel::with_integer_values(std::move(m)));
  throw check_error("unknown kernel '" + kname + "' (euler|moldyn|fig1)");
}

mesh::Mesh mesh_from_options(const Options& opt) {
  const std::string preset = opt.get("preset");
  if (preset == "euler-small") return mesh::euler_mesh_small();
  if (preset == "euler-large") return mesh::euler_mesh_large();
  if (preset == "moldyn-small") return mesh::moldyn_small();
  if (preset == "moldyn-large") return mesh::moldyn_large();
  if (!preset.empty()) throw check_error("unknown preset '" + preset + "'");
  if (opt.has("mesh")) return mesh::load_mesh(opt.get("mesh"));
  const auto nodes = static_cast<std::uint32_t>(opt.get_int("nodes", 1000));
  const auto edges = static_cast<std::uint64_t>(opt.get_int("edges", 5000));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 42));
  return mesh::make_geometric_mesh({nodes, edges, seed});
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  ER_CHECK_MSG(is.good(), "cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// Synthesizes a DataEnv for a legality-checked DSL program: loop-extent
/// parameters take the `edges` value, every other parameter `nodes`; int
/// arrays are filled with uniform element indices below `nodes` (they are
/// indirections into node-sized arrays), real arrays with uniform values.
/// Deterministic in `seed`.
compiler::DataEnv synthesize_env(const compiler::Program& program,
                                 std::uint32_t nodes, std::uint64_t edges,
                                 std::uint64_t seed) {
  compiler::DataEnv env;
  std::set<std::string> extents;
  for (const compiler::Loop& l : program.loops)
    if (!l.hi_param.empty()) extents.insert(l.hi_param);
  for (const std::string& p : program.params)
    env.params[p] = extents.count(p) ? edges : nodes;
  Xoshiro256 rng(seed);
  for (const compiler::ArrayDecl& a : program.arrays) {
    const auto it = env.params.find(a.size_param);
    const std::uint64_t size = it == env.params.end() ? nodes : it->second;
    if (a.type == compiler::ElemType::Int) {
      std::vector<std::uint32_t>& v = env.int_arrays[a.name];
      v.reserve(size);
      for (std::uint64_t i = 0; i < size; ++i)
        v.push_back(static_cast<std::uint32_t>(rng.below(nodes)));
    } else {
      std::vector<double>& v = env.real_arrays[a.name];
      v.reserve(size);
      for (std::uint64_t i = 0; i < size; ++i)
        v.push_back(rng.uniform(0.1, 1.0));
    }
  }
  return env;
}

/// Fills the plan/sweep fields of a JobRequest from one job line's keys
/// (shared by kernel jobs and `dsl=` jobs).
void request_from_keys(const Options& jopt, JobRequest& req) {
  req.plan.num_procs = static_cast<std::uint32_t>(jopt.get_int("procs", 4));
  req.plan.k = static_cast<std::uint32_t>(jopt.get_int("k", 2));
  req.plan.distribution =
      inspector::parse_distribution(jopt.get("dist", "cyclic"));
  req.plan.block_cyclic_size =
      static_cast<std::uint32_t>(jopt.get_int("bc", 16));
  req.plan.inspector.dedup_buffers = jopt.get_bool("dedup", false);
  req.sweeps = static_cast<std::uint32_t>(jopt.get_int("sweeps", 1));
  req.deadline_seconds = jopt.get_double("deadline", 0.0);
  req.batch = jopt.has("no-batch") ? false : jopt.get_bool("batch", true);
  if (jopt.get_bool("pin", false)) {
    req.affinity.pin_threads = true;
    req.affinity.first_touch = true;
  }
  const std::string verify = jopt.get("verify");
  if (!verify.empty()) {
    ER_CHECK_MSG(verify == "on" || verify == "off",
                 "verify expects on|off, got '" + verify + "'");
    req.plan.verify = verify == "on";
  }
  const std::string engine = jopt.get("engine", "native");
  if (engine == "sim" || engine == "rotation") req.simulated = true;
  else ER_CHECK_MSG(engine == "native",
                    "unknown engine '" + engine + "'");
}

}  // namespace

JobBuilder::JobBuilder(JobLimits limits) : limits_(limits) {}

JobBuild JobBuilder::build(std::string_view line, std::size_t lineno) {
  JobBuild b;
  const auto fail = [&](const char* code, std::string detail) {
    b.code = code;
    b.detail = lineno > 0
                   ? strformat("job line %zu: %s", lineno, detail.c_str())
                   : std::move(detail);
    b.requests.clear();
    return b;
  };

  // ---- structural limits, before anything is parsed or allocated ------
  if (line.size() > limits_.max_line_bytes)
    return fail("E-JOB-LINELEN",
                strformat("line is %zu bytes, limit %zu", line.size(),
                          limits_.max_line_bytes));
  const std::string_view stripped = trim(line);
  if (stripped.empty() || stripped.front() == '#')
    return fail("E-JOB-EMPTY", "no job content");

  std::vector<std::string> store{"job"};
  for (const std::string& tok : split(stripped, ' ')) {
    const std::string_view t = trim(tok);
    if (t.empty()) continue;
    if (store.size() > limits_.max_keys)
      return fail("E-JOB-KEYCOUNT",
                  strformat("more than %zu keys", limits_.max_keys));
    store.push_back("--" + std::string(t));
  }
  std::vector<const char*> argv;
  argv.reserve(store.size());
  for (const std::string& s : store) argv.push_back(s.c_str());
  const Options jopt(static_cast<int>(argv.size()), argv.data());

  for (const auto& [key, value] : jopt.keyed())
    if (!known_keys().count(key))
      return fail("E-JOB-KEY", "unknown key '" + key + "'");

  // ---- per-key value and range validation -----------------------------
  try {
    const auto bounded = [&](const char* key, std::uint64_t fallback,
                             std::uint64_t max) {
      const std::int64_t raw =
          jopt.get_int(key, static_cast<std::int64_t>(fallback));
      if (raw < 0 || static_cast<std::uint64_t>(raw) > max)
        throw check_error(strformat("%s=%lld outside [0, %llu]", key,
                                    static_cast<long long>(raw),
                                    static_cast<unsigned long long>(max)));
      return static_cast<std::uint64_t>(raw);
    };
    const std::uint64_t nodes = bounded("nodes", 1000, limits_.max_nodes);
    const std::uint64_t edges = bounded("edges", 5000, limits_.max_edges);
    bounded("procs", 4, limits_.max_procs);
    bounded("k", 2, limits_.max_k);
    bounded("sweeps", 1, limits_.max_sweeps);
    bounded("bc", 16, limits_.max_block_cyclic);
    if (nodes == 0 || edges == 0)
      return fail("E-JOB-RANGE", "nodes and edges must be positive");
    if (jopt.get("name").size() > limits_.max_name_bytes)
      return fail("E-JOB-RANGE",
                  strformat("name longer than %zu bytes",
                            limits_.max_name_bytes));
    if (jopt.get_double("deadline", 0.0) < 0.0)
      return fail("E-JOB-RANGE", "deadline must be >= 0");

    const std::uint64_t mutate = bounded("mutate", 0, ~0ull);
    if (mutate > limits_.max_mutate)
      return fail(
          "E-JOB-MUTATE",
          strformat("mutate=%llu exceeds the %llu rewire limit",
                    static_cast<unsigned long long>(mutate),
                    static_cast<unsigned long long>(limits_.max_mutate)));

    if (!limits_.allow_file_io && (jopt.has("mesh") || jopt.has("dsl")))
      return fail("E-JOB-FILEIO",
                  "mesh=/dsl= file references are not accepted from "
                  "remote submissions");

    // ---- DSL jobs -----------------------------------------------------
    if (jopt.has("dsl")) {
      const std::string source = read_file(jopt.get("dsl"));
      const std::string base =
          jopt.get("name", "dsl#" + std::to_string(lineno));
      const compiler::CheckReport report = compiler::check_source(source);
      if (report.has_errors()) {
        // Still submitted (source only) so the scheduler's admission
        // check rejects and counts it with the checker's diagnostic.
        JobRequest req;
        request_from_keys(jopt, req);
        req.name = base;
        req.dsl_source = source;
        b.requests.push_back(std::move(req));
        return b;
      }
      const compiler::CompileResult compiled = compiler::compile(source);
      const compiler::DataEnv env = synthesize_env(
          compiled.program, static_cast<std::uint32_t>(nodes), edges,
          static_cast<std::uint64_t>(jopt.get_int("seed", 42)));
      for (std::size_t i = 0; i < compiled.analysis.fissioned.size(); ++i) {
        JobRequest req;
        request_from_keys(jopt, req);
        req.name = compiled.analysis.fissioned.size() > 1
                       ? base + "/loop" + std::to_string(i)
                       : base;
        req.dsl_source = source;
        req.kernel = std::shared_ptr<const core::PhasedKernel>(
            compiler::bind(compiled, i, env));
        b.requests.push_back(std::move(req));
      }
      return b;
    }

    // ---- kernel jobs --------------------------------------------------
    const std::string kname = jopt.get("kernel", "euler");
    const std::string key = kname + "|" + jopt.get("preset") + "|" +
                            jopt.get("mesh") + "|" +
                            jopt.get("nodes", "1000") + "|" +
                            jopt.get("edges", "5000") + "|" +
                            jopt.get("seed", "42");
    auto it = kernels_.find(key);
    if (it == kernels_.end()) {
      KernelEntry entry;
      entry.kernel = std::shared_ptr<const core::PhasedKernel>(
          make_kernel(kname, mesh_from_options(jopt)));
      entry.fingerprint = kernel_fingerprint(*entry.kernel);
      it = kernels_.emplace(key, std::move(entry)).first;
    }

    JobRequest req;
    req.name = jopt.get("name", kname + "#" + std::to_string(lineno));
    request_from_keys(jopt, req);
    if (mutate > 0) {
      // Adaptive job: rewire `mutate` interactions of the (regenerated)
      // base mesh and ask the service to patch the base plan instead of
      // rebuilding. The base fingerprint stays in the kernels map, so a
      // prior plain job on the same mesh line seeds the base plan.
      mesh::Mesh m = mesh_from_options(jopt);
      req.changed_edges = mesh::rewire_edges(
          m, mutate,
          static_cast<std::uint64_t>(jopt.get_int("mutate-seed", 1)));
      req.kernel = std::shared_ptr<const core::PhasedKernel>(
          make_kernel(kname, std::move(m)));
      req.fingerprint = kernel_fingerprint(*req.kernel);
      req.patch_base = it->second.fingerprint;
    } else {
      req.kernel = it->second.kernel;
      req.fingerprint = it->second.fingerprint;
    }
    b.requests.push_back(std::move(req));
    return b;
  } catch (const check_error& e) {
    return fail("E-JOB-VALUE", e.what());
  } catch (const std::exception& e) {
    return fail("E-JOB-VALUE", e.what());
  }
}

std::uint64_t result_digest(const core::NativeResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::vector<double>& a : r.reduction)
    h = support::fast_hash64(a.data(), a.size() * sizeof(double), h);
  for (const std::vector<double>& a : r.node_read)
    h = support::fast_hash64(a.data(), a.size() * sizeof(double), h);
  return h;
}

}  // namespace earthred::service
