// Span recorder for the end-to-end benchmark.
//
// Spans are recorded by the benchmark itself, around each call it makes
// into a layer of the system (mesh, kernels, inspector, core, service,
// net, shard). A span carries a name whose prefix up to the first '.' is
// its layer, start and end stamps from one steady clock, the id of the
// span open on the same thread when it began (its parent), and the job it
// belongs to. Spans stay in memory and are written once, at exit, as
// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
//
// Tracing is off unless enabled: a disabled Span costs one relaxed load
// and a branch, so the untraced runs that produce the end-to-end metrics
// pay nothing measurable for the instrumentation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace earthred::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t job = 0;     ///< 0 = not tied to one job
  std::string name;
  std::uint32_t tid = 0;
  Clock::time_point start;
  Clock::time_point end;
  /// Placed from durations the system reported (JobOutcome / ResultBody
  /// fields) rather than stamped around a call; clamped into its parent.
  bool derived = false;
};

class Tracer {
 public:
  void enable() { on_.store(true, std::memory_order_relaxed); }
  void disable() { on_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }

  std::uint64_t next_id() { return next_.fetch_add(1); }
  void record(SpanRecord r);

  struct Placed {
    std::uint64_t id = 0;  ///< 0 when tracing is off
    Clock::time_point start;
  };
  /// Adds a derived span of `seconds` ending at `end` under `parent`,
  /// clamped to start no earlier than `parent_start` (`end` must not lie
  /// past the parent's end). No-op when disabled or `parent` is 0.
  Placed derived(const char* name, std::uint64_t parent, std::uint64_t job,
                 Clock::time_point parent_start, Clock::time_point end,
                 double seconds);

  std::vector<SpanRecord> spans() const;
  /// Writes every span as Chrome trace-event JSON; false on IO failure.
  bool write_chrome(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_{1};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span around one call. Nested spans on the same thread become
/// children of the innermost open one.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t job = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }
  Clock::time_point start() const { return start_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t job_ = 0;
  Clock::time_point start_;
};

/// Self time per layer in seconds: each span's duration minus the part of
/// its interval covered by its children, summed by layer (name prefix).
std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans);

/// True when every span ends after it starts and every child lies within
/// its parent's interval (so self times cannot go negative); otherwise
/// `why` names the first offending span.
bool spans_nest(const std::vector<SpanRecord>& spans, std::string* why);

}  // namespace earthred::e2e
