#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>

#include "support/json.hpp"

namespace earthred::e2e {

namespace {

thread_local std::uint64_t tls_open_span = 0;

double us_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Small stable id of the calling thread (the trace's "tid").
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::record(SpanRecord r) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(r));
}

Tracer::Placed Tracer::derived(const char* name, std::uint64_t parent,
                               std::uint64_t job,
                               Clock::time_point parent_start,
                               Clock::time_point end, double seconds) {
  if (!enabled() || parent == 0) return {};
  SpanRecord r;
  r.id = next_id();
  r.parent = parent;
  r.job = job;
  r.name = name;
  r.tid = thread_index();
  r.end = std::max(end, parent_start);
  r.start = std::max(parent_start,
                     r.end - std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     std::max(seconds, 0.0))));
  r.derived = true;
  const Placed placed{r.id, r.start};
  record(std::move(r));
  return placed;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f.get());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(
        f.get(),
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"job\":%llu,\"derived\":%s}}",
        i ? "," : "", json_escape(s.name).c_str(),
        json_escape(layer_of(s.name)).c_str(), s.tid,
        us_since(epoch_, s.start), us_since(s.start, s.end),
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.job),
        s.derived ? "true" : "false");
  }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

Span::Span(const char* name, std::uint64_t job) : name_(name), job_(job) {
  if (!tracer().enabled()) return;
  id_ = tracer().next_id();
  parent_ = tls_open_span;
  tls_open_span = id_;
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  SpanRecord r;
  r.end = Clock::now();
  r.id = id_;
  r.parent = parent_;
  r.job = job_;
  r.name = name_;
  r.tid = thread_index();
  r.start = start_;
  tls_open_span = parent_;
  tracer().record(std::move(r));
}

namespace {

/// Seconds of [s.start, s.end] covered by the union of `children`.
double covered_seconds(const SpanRecord& s,
                       const std::vector<const SpanRecord*>& children) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
  for (const SpanRecord* c : children) {
    const auto a = std::max(c->start, s.start);
    const auto b = std::min(c->end, s.end);
    if (a < b) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  for (std::size_t i = 0; i < iv.size();) {
    auto a = iv[i].first;
    auto b = iv[i].second;
    for (++i; i < iv.size() && iv[i].first <= b; ++i)
      b = std::max(b, iv[i].second);
    covered += seconds_between(a, b);
  }
  return covered;
}

std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>>
children_by_parent(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> kids;
  for (const SpanRecord& s : spans)
    if (s.parent != 0) kids[s.parent].push_back(&s);
  return kids;
}

}  // namespace

std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans) {
  const auto kids = children_by_parent(spans);
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    const auto it = kids.find(s.id);
    const double covered =
        it == kids.end() ? 0.0 : covered_seconds(s, it->second);
    self[layer_of(s.name)] += seconds_between(s.start, s.end) - covered;
  }
  return self;
}

bool spans_nest(const std::vector<SpanRecord>& spans, std::string* why) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  for (const SpanRecord& s : spans) {
    if (s.end < s.start) {
      *why = s.name + " ends before it starts";
      return false;
    }
    if (s.parent != 0) {
      const auto p = by_id.find(s.parent);
      if (p == by_id.end()) {
        *why = s.name + " names a parent that was never recorded";
        return false;
      }
      if (s.start < p->second->start || s.end > p->second->end) {
        *why = s.name + " is not contained in its parent " + p->second->name;
        return false;
      }
    }
  }
  return true;
}

}  // namespace earthred::e2e
