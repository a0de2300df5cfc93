// U32Buf: the span-owning storage variant behind every large array of an
// InspectorResult / PhaseSchedule.
//
// A plan built in-process owns its arrays as ordinary heap vectors. A plan
// *loaded* from the persistent plan store instead adopts read-only views
// into the store file's memory mapping, so a warm start costs the header
// parse plus one checksum sweep instead of per-array allocation + copy
// (the zero-copy half of the plan-store design; see core/plan_io.hpp).
// The two states share one type so every consumer — executors, verifier,
// plan walk, serializer — reads through the same API without knowing
// which backing it has.
//
// Mutation is copy-on-write: any mutating call on an adopted buffer first
// materializes a private heap copy of the viewed data, then applies the
// edit. That is what lets the incremental re-planner patch an mmap-backed
// plan in place — only the phases it actually touches are copied; the
// rest stay views into the mapping (which the owning ExecutionPlan keeps
// alive through its `storage` handle).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <span>
#include <vector>

namespace earthred::inspector {

class U32Buf {
 public:
  using value_type = std::uint32_t;

  U32Buf() = default;
  U32Buf(std::initializer_list<std::uint32_t> init) : vec_(init) {}
  explicit U32Buf(std::vector<std::uint32_t> v) : vec_(std::move(v)) {}

  /// Becomes a read-only view of `view` (dropping any owned data). The
  /// viewed memory must outlive this buffer — for loaded plans the
  /// ExecutionPlan's `storage` member holds the mapping.
  void adopt(std::span<const std::uint32_t> view) {
    vec_.clear();
    vec_.shrink_to_fit();
    ext_ = view.data();
    ext_size_ = view.size();
  }

  /// True while backed by adopted (externally owned) memory.
  bool adopted() const noexcept { return ext_ != nullptr; }

  // ---- read API (never materializes) ----------------------------------
  const std::uint32_t* data() const noexcept {
    return ext_ ? ext_ : vec_.data();
  }
  std::size_t size() const noexcept { return ext_ ? ext_size_ : vec_.size(); }
  bool empty() const noexcept { return size() == 0; }
  const std::uint32_t& operator[](std::size_t i) const { return data()[i]; }
  const std::uint32_t& front() const { return data()[0]; }
  const std::uint32_t* begin() const noexcept { return data(); }
  const std::uint32_t* end() const noexcept { return data() + size(); }
  operator std::span<const std::uint32_t>() const noexcept {
    return {data(), size()};
  }

  /// Heap bytes this buffer is responsible for. Adopted views report their
  /// viewed extent (the pages a resident plan pins in the page cache), so
  /// the PlanCache LRU budget sees loaded and built plans alike. The
  /// arrays of a loaded plan view disjoint ranges of its file, so their
  /// footprints sum to at most the file size.
  std::uint64_t footprint_bytes() const noexcept {
    return (ext_ ? ext_size_ : vec_.capacity()) * sizeof(std::uint32_t);
  }

  // ---- mutating API (copy-on-write: detaches an adopted view) ---------
  std::uint32_t& operator[](std::size_t i) {
    detach();
    return vec_[i];
  }
  /// Detaches (if adopted) and exposes the contents for in-place element
  /// writes — one detach check for a whole loop instead of one per
  /// operator[] call. Invalidated by any size-changing call.
  std::span<std::uint32_t> mutate() {
    detach();
    return {vec_.data(), vec_.size()};
  }
  std::uint32_t& front() {
    detach();
    return vec_.front();
  }
  void push_back(std::uint32_t v) {
    detach();
    vec_.push_back(v);
  }
  void pop_back() {
    detach();
    vec_.pop_back();
  }
  void resize(std::size_t n) {
    detach();
    vec_.resize(n);
  }
  void assign(std::size_t n, std::uint32_t v) {
    ext_ = nullptr;
    ext_size_ = 0;
    vec_.assign(n, v);
  }
  /// Drops the contents (also releases an adopted view without copying).
  void clear() noexcept {
    ext_ = nullptr;
    ext_size_ = 0;
    vec_.clear();
  }
  void append(std::span<const std::uint32_t> tail) {
    detach();
    vec_.insert(vec_.end(), tail.begin(), tail.end());
  }

  friend bool operator==(const U32Buf& a, const U32Buf& b) {
    return std::span<const std::uint32_t>(a).size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const U32Buf& a,
                         const std::vector<std::uint32_t>& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const std::vector<std::uint32_t>& a,
                         const U32Buf& b) {
    return b == a;
  }

  friend std::ostream& operator<<(std::ostream& os, const U32Buf& b) {
    os << (b.adopted() ? "view[" : "owned[") << b.size() << "]{";
    const std::size_t shown = b.size() < 8 ? b.size() : 8;
    for (std::size_t i = 0; i < shown; ++i)
      os << (i ? "," : "") << b[i];
    if (shown < b.size()) os << ",...";
    return os << "}";
  }

 private:
  /// Materializes an adopted view into owned storage (no-op when owned).
  void detach() {
    if (!ext_) return;
    vec_.assign(ext_, ext_ + ext_size_);
    ext_ = nullptr;
    ext_size_ = 0;
  }

  std::vector<std::uint32_t> vec_;
  const std::uint32_t* ext_ = nullptr;
  std::size_t ext_size_ = 0;
};

}  // namespace earthred::inspector
