// bench_e2e: the end-to-end benchmark of the reduction service.
//
//   bench_e2e --workload=<name|all> --seed=N [--seconds=S] [--json=PATH]
//             [--trace=PATH]
//   bench_e2e --smoke --expect-e2e=a,b,... --expect-layers=x,y,...
//
// Workloads: sweep-dram, sweep-paper, replan-churn, route-open (see
// README.md). `--workload=all` runs each workload in its own process, one
// after another, so setup time and peak memory are per workload. Every
// workload prints its end-to-end metrics (each with its unit and sample
// count) and, with --json, appends one JSON record per workload that
// also carries the host's provenance. --trace adds a traced window and a
// decomposed per-layer pass, prints the per-layer numbers and each
// layer's self time, and writes the spans as Chrome trace-event JSON
// (with `all`, one file per workload: PATH-<workload>.json). The exit
// code is nonzero when any job failed or returned a wrong result.
//
// --smoke runs every workload on tiny inputs, traced, and checks that
// each metric named by --expect-e2e / --expect-layers is reported with a
// unit and a finite value, that spans nest, and that tail percentiles
// require ten samples beyond them. CMake passes the names from
// BENCHMARK.json.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/cpu_features.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef EARTHRED_GIT_SHA
#define EARTHRED_GIT_SHA "unknown"
#endif

extern char** environ;

namespace {

using namespace earthred;
using namespace earthred::e2e;

std::string metrics_json(const std::vector<Metric>& ms) {
  JsonWriter all;
  for (const Metric& m : ms)
    all.raw_field(m.name, JsonWriter()
                              .field("value", m.value)
                              .field("unit", m.unit)
                              .field("n", m.n)
                              .str());
  return all.str();
}

void print_metrics(const std::string& title, const std::vector<Metric>& ms) {
  Table t(title);
  t.set_header({"metric", "value", "unit", "n"},
               {Align::Left, Align::Right, Align::Left, Align::Right});
  for (const Metric& m : ms)
    t.add_row({m.name, strformat("%.6g", m.value), m.unit,
               std::to_string(m.n)});
  t.print(std::cout);
}

/// Appends "-<workload>" before a ".json" suffix (or adds one).
std::string per_workload_path(const std::string& path,
                              const std::string& workload) {
  const std::string ext = ".json";
  if (path.size() > ext.size() &&
      path.compare(path.size() - ext.size(), ext.size(), ext) == 0)
    return path.substr(0, path.size() - ext.size()) + "-" + workload + ext;
  return path + "-" + workload + ext;
}

int run_one(const RunConfig& cfg, const std::string& json_path,
            const std::string& trace_path) {
  const unsigned hw = support::hardware_threads();
  const support::CacheInfo& cache = support::host_cache_info();
  std::printf("bench_e2e: workload %s, seed %llu, window %.3g s%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.traced ? ", traced" : "");
  WorkloadResult r = run_workload(cfg);

  const bool threads_ok = hw >= r.procs;
  const double ws_over_llc =
      cache.llc_bytes ? static_cast<double>(r.working_set_bytes) /
                            static_cast<double>(cache.llc_bytes)
                      : 0.0;
  const double failed_frac =
      r.attempted ? static_cast<double>(r.failed) /
                        static_cast<double>(r.attempted)
                  : 0.0;
  std::printf(
      "host: git %s, %u hardware threads, P=%u (hardware_threads >= P: %s), "
      "%s; computed working set %.1f MiB = %.2fx LLC\n",
      EARTHRED_GIT_SHA, hw, r.procs, threads_ok ? "yes" : "NO",
      support::to_string(cache).c_str(),
      static_cast<double>(r.working_set_bytes) / (1 << 20), ws_over_llc);
  if (!threads_ok)
    std::printf("note: fewer hardware threads than P; parallel timings on "
                "this host oversubscribe the cores\n");
  print_metrics("end-to-end (" + cfg.workload + ")", r.e2e);
  std::printf("jobs: %llu attempted, %llu failed (failed_frac %.4g), %llu "
              "wrong results\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), failed_frac,
              static_cast<unsigned long long>(r.mismatches));

  JsonWriter rec;
  rec.field("bench", "e2e")
      .field("workload", cfg.workload)
      .field("seed", cfg.seed)
      .field("window_s", cfg.seconds)
      .field("traced", cfg.traced)
      .field("git_sha", EARTHRED_GIT_SHA)
      .field("hardware_threads", hw)
      .field("procs", r.procs)
      .field("hardware_threads_ge_procs", threads_ok)
      .raw_field("cache", JsonWriter()
                              .field("l1d_bytes", cache.l1d_bytes)
                              .field("l2_bytes", cache.l2_bytes)
                              .field("llc_bytes", cache.llc_bytes)
                              .field("line_bytes", cache.line_bytes)
                              .str())
      .field("working_set_bytes", r.working_set_bytes)
      .field("working_set_over_llc", ws_over_llc)
      .field("attempted", r.attempted)
      .field("failed", r.failed)
      .field("mismatches", r.mismatches)
      .field("failed_frac", failed_frac)
      .field("correct", r.mismatches == 0)
      .raw_field("metrics", metrics_json(r.e2e));

  if (cfg.traced) {
    const std::vector<SpanRecord> spans = tracer().spans();
    std::string why;
    const bool nest = spans_nest(spans, &why);
    JsonWriter self;
    Table st("self time by layer (span time minus child spans)");
    st.set_header({"layer", "self s"}, {Align::Left, Align::Right});
    for (const auto& [layer, s] : layer_self_seconds(spans)) {
      self.field(layer, s);
      st.add_row({layer, strformat("%.6f", s)});
    }
    print_metrics("per layer (" + cfg.workload + ")", r.layers);
    st.print(std::cout);
    if (!nest) std::printf("warning: spans do not nest: %s\n", why.c_str());
    rec.raw_field("layers", metrics_json(r.layers))
        .raw_field("self_s", self.str())
        .field("spans", static_cast<std::uint64_t>(spans.size()))
        .field("spans_nest", nest);
    if (!trace_path.empty()) {
      ER_CHECK_MSG(tracer().write_chrome(trace_path),
                   "cannot write trace '" + trace_path + "'");
      std::printf("trace: %zu spans -> %s\n", spans.size(),
                  trace_path.c_str());
    }
  }
  rec.raw_field("detail", r.detail.str());
  if (!json_path.empty()) append_json_line(json_path, rec.str());
  return r.failed == 0 && r.mismatches == 0 ? 0 : 1;
}

/// Runs every workload in a child process of its own, sequentially.
int run_all(const RunConfig& cfg, const std::string& json_path,
            const std::string& trace_path) {
  int status_all = 0;
  for (const std::string& name : workload_names()) {
    std::vector<std::string> args = {
        "/proc/self/exe", "--workload=" + name,
        "--seed=" + std::to_string(cfg.seed),
        strformat("--seconds=%.17g", cfg.seconds)};
    if (!json_path.empty()) args.push_back("--json=" + json_path);
    if (!trace_path.empty())
      args.push_back("--trace=" + per_workload_path(trace_path, name));
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    ER_CHECK_MSG(posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(),
                             environ) == 0,
                 "cannot start the workload process for " + name);
    int status = 0;
    ER_CHECK_MSG(waitpid(pid, &status, 0) == pid,
                 "lost the workload process for " + name);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "bench_e2e: workload %s did not succeed\n",
                   name.c_str());
      status_all = 1;
    }
  }
  return status_all;
}

int smoke(const Options& opt) {
  const std::vector<std::string> e2e_names =
      split(opt.get("expect-e2e"), ',');
  const std::vector<std::string> layer_names =
      split(opt.get("expect-layers"), ',');
  bool ok = true;
  const auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::fprintf(stderr, "smoke FAIL: %s\n", what.c_str());
    }
  };
  expect(!e2e_names.empty() && !layer_names.empty(),
         "no metric names to expect (--expect-e2e / --expect-layers)");

  std::vector<double> hundred(100), thousand(1000);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  std::iota(thousand.begin(), thousand.end(), 1.0);
  const Tail p90 = tail_percentile(hundred, 90.0);
  expect(p90.valid && p90.beyond == 10 && p90.value == 90.0,
         "p90 of 100 samples has exactly ten beyond it");
  expect(!tail_percentile(hundred, 99.0).valid,
         "p99 of 100 samples is refused (one sample beyond)");
  expect(tail_percentile(thousand, 99.0).valid,
         "p99 of 1000 samples has ten beyond it");
  expect(!tail_percentile(std::vector<double>(5, 1.0), 100.0).valid,
         "a five-sample maximum is flagged as no tail");

  const auto check_names = [&](const std::string& workload,
                               const std::vector<Metric>& ms,
                               const std::vector<std::string>& names) {
    for (const std::string& n : names) {
      const auto it = std::find_if(ms.begin(), ms.end(),
                                   [&](const Metric& m) { return m.name == n; });
      expect(it != ms.end() && std::isfinite(it->value) && !it->unit.empty(),
             workload + " reports " + n + " with a unit and a finite value");
    }
  };
  for (const std::string& name : workload_names()) {
    RunConfig cfg;
    cfg.workload = name;
    cfg.seconds = 0.2;
    cfg.smoke = true;
    cfg.traced = true;
    const WorkloadResult r = run_workload(cfg);
    print_metrics("smoke " + name, r.e2e);
    expect(r.attempted > 0 && r.failed == 0 && r.mismatches == 0,
           name + " ran without failures or wrong results");
    check_names(name, r.e2e, e2e_names);
    check_names(name, r.layers, layer_names);
  }

  const std::vector<SpanRecord> spans = tracer().spans();
  std::string why;
  expect(spans_nest(spans, &why), "spans nest: " + why);
  const std::map<std::string, double> self = layer_self_seconds(spans);
  for (const char* layer :
       {"mesh", "kernels", "inspector", "core", "service", "net"})
    expect(self.count(layer) != 0, std::string("spans cover layer ") + layer);
  for (const auto& [layer, s] : self)
    expect(s >= 0.0, "self time of " + layer + " is not negative");
  std::printf("bench_e2e smoke: %s (%zu spans)\n", ok ? "PASS" : "FAIL",
              spans.size());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt(argc, argv);
    static const std::set<std::string> known = {
        "workload", "seed", "seconds", "json", "trace",
        "smoke",    "expect-e2e", "expect-layers"};
    for (const auto& [key, value] : opt.keyed())
      ER_CHECK_MSG(known.count(key), "unknown option --" + key);
    ER_CHECK_MSG(opt.positional().empty(), "unexpected positional argument");
    if (opt.has("smoke")) return smoke(opt);

    RunConfig cfg;
    cfg.workload = opt.get("workload", "all");
    cfg.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
    cfg.seconds = opt.get_double("seconds", 30.0);
    ER_CHECK_MSG(cfg.seconds > 0, "--seconds must be positive");
    const std::string json_path = opt.get("json");
    const std::string trace_path = opt.get("trace");
    cfg.traced = !trace_path.empty();
    if (cfg.workload == "all") return run_all(cfg, json_path, trace_path);
    const auto& names = workload_names();
    ER_CHECK_MSG(std::find(names.begin(), names.end(), cfg.workload) !=
                     names.end(),
                 "unknown workload '" + cfg.workload +
                     "' (sweep-dram|sweep-paper|replan-churn|route-open|all)");
    return run_one(cfg, json_path, trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
