#include "service/service_stats.hpp"

#include <ostream>
#include <string>

#include "support/str.hpp"
#include "support/table.hpp"

namespace earthred::service {

void ServiceStats::print(std::ostream& os, const std::string& title) const {
  Table t(title);
  t.set_header({"metric", "value"});
  t.add_row({"jobs submitted", fmt_group(static_cast<long long>(submitted))});
  t.add_row({"jobs completed", fmt_group(static_cast<long long>(completed))});
  t.add_row({"jobs failed", fmt_group(static_cast<long long>(failed))});
  t.add_row({"jobs rejected", fmt_group(static_cast<long long>(rejected))});
  t.add_row({"  rejected: illegal DSL",
             fmt_group(static_cast<long long>(rejected_dsl))});
  t.add_row({"  rejected: plan verifier",
             fmt_group(static_cast<long long>(rejected_plan))});
  t.add_row({"  rejected: deadline at drain",
             fmt_group(static_cast<long long>(rejected_deadline))});
  t.add_row({"queue depth", fmt_group(static_cast<long long>(queue_depth))});
  t.add_row({"in flight", fmt_group(static_cast<long long>(in_flight))});
  t.add_row({"job latency p50 (s)", fmt_f(p50_latency, 4)});
  t.add_row({"job latency p95 (s)", fmt_f(p95_latency, 4)});
  t.add_row({"job latency p99 (s)", fmt_f(p99_latency, 4)});
  t.add_rule();
  t.add_row({"cold setups (plan built)",
             fmt_group(static_cast<long long>(cold_setups)) + " @ mean " +
                 fmt_f(mean_cold_setup * 1e3, 3) + " ms"});
  t.add_row({"warm setups (cache hit)",
             fmt_group(static_cast<long long>(warm_setups)) + " @ mean " +
                 fmt_f(mean_warm_setup * 1e3, 3) + " ms"});
  t.add_row({"cache hit rate", fmt_f(cache.hit_rate(), 3)});
  t.add_row({"cache hits / coalesced / misses",
             fmt_group(static_cast<long long>(cache.hits)) + " / " +
                 fmt_group(static_cast<long long>(cache.coalesced)) + " / " +
                 fmt_group(static_cast<long long>(cache.misses))});
  t.add_row({"cache entries",
             fmt_group(static_cast<long long>(cache.entries)) + " (" +
                 fmt_group(static_cast<long long>(cache.bytes)) + " bytes)"});
  t.add_row({"cache evictions",
             fmt_group(static_cast<long long>(cache.evictions))});
  t.add_rule();
  t.add_row({"disk hits / misses / fallbacks",
             fmt_group(static_cast<long long>(cache.disk_hits)) + " / " +
                 fmt_group(static_cast<long long>(cache.disk_misses)) +
                 " / " +
                 fmt_group(static_cast<long long>(cache.disk_fallbacks))});
  t.add_row({"plans persisted",
             fmt_group(static_cast<long long>(cache.persisted)) + " (" +
                 fmt_group(static_cast<long long>(cache.persist_failures)) +
                 " failed)"});
  t.add_row({"plans patched",
             fmt_group(static_cast<long long>(cache.patched)) + " (" +
                 fmt_group(static_cast<long long>(cache.patch_fallbacks)) +
                 " fallbacks)"});
  t.print(os);
}

}  // namespace earthred::service
