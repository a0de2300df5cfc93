#include "core/plan_io.hpp"

#include <cstring>
#include <fstream>
#include <thread>
#include <utility>

#include "support/binio.hpp"
#include "support/str.hpp"

namespace earthred::core {

namespace {

using support::ByteReader;
using support::ByteWriter;

/// Reusable header validation over an in-memory byte range. Returns true
/// and fills `out` for a trustworthy header; false with code/detail for
/// any identity mismatch.
bool decode_header(std::span<const std::byte> bytes, PlanFileHeader* out,
                   std::string* code, std::string* detail) {
  const auto fail = [&](const char* c, std::string d) {
    if (code) *code = c;
    if (detail) *detail = std::move(d);
    return false;
  };
  if (bytes.size() < kPlanHeaderBytes)
    return fail("E-STORE-TRUNC",
                strformat("file holds %zu bytes, the header alone is %zu",
                          bytes.size(), kPlanHeaderBytes));
  ByteReader r(bytes);
  const std::uint64_t magic = r.u64();
  if (magic != kPlanMagic)
    return fail("E-STORE-MAGIC", "not a plan file (bad magic)");
  const std::uint32_t version = r.u32();
  const std::uint32_t endian = r.u32();
  if (endian != kPlanEndianTag)
    return fail("E-STORE-ENDIAN",
                "written by a foreign-endian producer; integers would read "
                "back byte-reversed");
  if (version != kPlanFormatVersion)
    return fail("E-STORE-VERSION",
                strformat("format version %u, this build reads only %u "
                          "(plans are rebuilt, never migrated)",
                          version, kPlanFormatVersion));
  PlanFileHeader h;
  h.format_version = version;
  h.verifier_fingerprint = r.u64();
  if (h.verifier_fingerprint != inspector::kPlanVerifierFingerprint)
    return fail("E-STORE-VERIFIER",
                strformat("persisted under verifier %016llx, this build "
                          "proves %016llx",
                          static_cast<unsigned long long>(
                              h.verifier_fingerprint),
                          static_cast<unsigned long long>(
                              inspector::kPlanVerifierFingerprint)));
  h.content_hash = r.u64();
  h.num_procs = r.u32();
  h.k = r.u32();
  h.distribution = r.u32();
  h.block_cyclic_size = r.u32();
  h.dedup_buffers = r.u32();
  h.num_nodes = r.u32();
  h.num_edges = r.u64();
  h.num_refs = r.u32();
  h.num_reduction_arrays = r.u32();
  h.num_node_read_arrays = r.u32();
  // Reserved, once the requested lowering strategy: 0 (auto) and 1
  // (phased) both ran the phased executor, the only one left; anything
  // else asked for a retired executor.
  const std::uint32_t strategy = r.u32();
  if (strategy > 1)
    return fail("E-STORE-PARSE",
                strformat("header strategy field reads %u; only 0 and 1 "
                          "(phased) are accepted, other executors are "
                          "retired",
                          strategy));
  h.payload_bytes = r.u64();
  h.payload_checksum = r.u64();
  // v2 reserved fields (once the retired layout pass's kinds and tile
  // size): a nonzero value is a plan this build cannot run as written.
  std::uint32_t reserved[3] = {};
  for (std::uint32_t& v : reserved) v = r.u32();
  r.u32();  // pad
  if (r.fail())
    return fail("E-STORE-TRUNC",
                strformat("file holds %zu bytes, the header alone is %zu",
                          bytes.size(), kPlanHeaderBytes));
  for (std::size_t i = 0; i < 3; ++i)
    if (reserved[i] != 0)
      return fail("E-STORE-PARSE",
                  strformat("reserved header field %zu at offset %zu reads "
                            "%u, expected 0 (retired layout pass)",
                            i, 96 + 4 * i, reserved[i]));
  if (out) *out = h;
  return true;
}

/// Bounds-checked structural parse of the payload into `plan`. Arrays are
/// adopted as views into `payload` (which must be the long-lived mapping,
/// not a transient buffer). Returns false with `detail` on any
/// inconsistency with the header counts; never reads out of bounds (the
/// ByteReader's sticky fail flag covers overrun, the explicit checks
/// cover semantic mismatches).
bool parse_payload(const PlanFileHeader& h,
                   std::span<const std::byte> payload, ExecutionPlan* plan,
                   std::string* detail) {
  const auto fail = [&](std::string d) {
    if (detail) *detail = std::move(d);
    return false;
  };
  ByteReader r(payload);
  plan->build_seconds = r.f64();

  // v2: two reserved arrays (once the retired layout pass's node
  // permutation and its inverse) ride ahead of the inspector records and
  // must be empty.
  const std::size_t reserved0 = r.u32_array().size();
  const std::size_t reserved1 = r.u32_array().size();
  if (r.fail()) return fail("payload ends inside the reserved arrays");
  if (reserved0 != 0 || reserved1 != 0)
    return fail(strformat("reserved payload arrays hold %zu/%zu entries, "
                          "expected 0 (retired layout pass)",
                          reserved0, reserved1));

  const std::uint64_t phases_per_proc =
      static_cast<std::uint64_t>(h.k) * h.num_procs;
  plan->insp.clear();
  plan->insp.reserve(h.num_procs);
  for (std::uint32_t p = 0; p < h.num_procs; ++p) {
    inspector::InspectorResult insp;
    insp.num_buffer_slots = r.u32();
    r.u32();  // pad
    insp.local_array_size = r.u64();
    const std::uint64_t num_phases = r.u64();
    if (r.fail() || num_phases != phases_per_proc)
      return fail(strformat("processor %u claims %llu phases, the "
                            "schedule has %llu",
                            p, static_cast<unsigned long long>(num_phases),
                            static_cast<unsigned long long>(
                                phases_per_proc)));
    insp.phases.resize(static_cast<std::size_t>(num_phases));
    for (inspector::PhaseSchedule& ph : insp.phases) {
      ph.iter_global.adopt(r.u32_array());
      ph.iter_local.adopt(r.u32_array());
      ph.indir_flat.adopt(r.u32_array());
      ph.copy_dst.adopt(r.u32_array());
      ph.copy_src.adopt(r.u32_array());
      if (r.fail()) return fail("payload ends inside a phase record");
      const std::size_t n = ph.iter_global.size();
      if (ph.iter_local.size() != n ||
          ph.indir_flat.size() != static_cast<std::size_t>(h.num_refs) * n ||
          ph.copy_dst.size() != ph.copy_src.size())
        return fail(strformat("processor %u: phase array lengths "
                              "disagree with each other or with "
                              "num_refs=%u",
                              p, h.num_refs));
    }
    insp.assigned_phase.adopt(r.u32_array());
    insp.slot_elem.adopt(r.u32_array());
    // Reserved: once the incremental update's free list, which is empty
    // in every finished result.
    const std::size_t free_slots = r.u32_array().size();
    if (r.fail()) return fail("payload ends inside a processor record");
    if (insp.slot_elem.size() != insp.num_buffer_slots)
      return fail(strformat("processor %u: %zu slot_elem entries for %u "
                            "buffer slots",
                            p, insp.slot_elem.size(),
                            insp.num_buffer_slots));
    if (free_slots != 0)
      return fail(strformat("processor %u is not canonical (%zu free "
                            "slots); stored plans must be patchable "
                            "bases",
                            p, free_slots));
    plan->insp.push_back(std::move(insp));
  }
  if (r.remaining() != 0)
    return fail(strformat("%zu trailing bytes after the last processor",
                          r.remaining()));
  return true;
}

PlanLoadResult rejected(std::string code, std::string detail) {
  PlanLoadResult out;
  out.error_code = std::move(code);
  out.detail = std::move(detail);
  return out;
}

}  // namespace

std::vector<std::byte> serialize_plan(const ExecutionPlan& plan,
                                      std::uint64_t content_hash) {
  ByteWriter payload;
  payload.f64(plan.build_seconds);
  payload.u32_array({});  // reserved
  payload.u32_array({});  // reserved
  for (const inspector::InspectorResult& insp : plan.insp) {
    payload.u32(insp.num_buffer_slots);
    payload.u32(0);  // pad
    payload.u64(insp.local_array_size);
    payload.u64(insp.phases.size());
    for (const inspector::PhaseSchedule& ph : insp.phases) {
      payload.u32_array(ph.iter_global);
      payload.u32_array(ph.iter_local);
      payload.u32_array(ph.indir_flat);
      payload.u32_array(ph.copy_dst);
      payload.u32_array(ph.copy_src);
    }
    payload.u32_array(insp.assigned_phase);
    payload.u32_array(insp.slot_elem);
    payload.u32_array({});  // reserved: the free list, always empty
  }

  ByteWriter file;
  file.u64(kPlanMagic);
  file.u32(kPlanFormatVersion);
  file.u32(kPlanEndianTag);
  file.u64(inspector::kPlanVerifierFingerprint);
  file.u64(content_hash);
  file.u32(plan.options.num_procs);
  file.u32(plan.options.k);
  file.u32(static_cast<std::uint32_t>(plan.options.distribution));
  file.u32(plan.options.block_cyclic_size);
  file.u32(plan.options.inspector.dedup_buffers ? 1u : 0u);
  file.u32(plan.shape.num_nodes);
  file.u64(plan.shape.num_edges);
  file.u32(plan.shape.num_refs);
  file.u32(plan.shape.num_reduction_arrays);
  file.u32(plan.shape.num_node_read_arrays);
  file.u32(0);  // reserved (retired strategy request)
  file.u64(payload.size());
  file.u64(support::fast_hash64(payload.bytes().data(), payload.size()));
  for (int i = 0; i < 3; ++i) file.u32(0);  // reserved
  file.u32(0);  // pad to the 112-byte header

  std::vector<std::byte> out;
  out.reserve(kPlanHeaderBytes + payload.size());
  out.insert(out.end(), file.bytes().begin(), file.bytes().end());
  out.insert(out.end(), payload.bytes().begin(), payload.bytes().end());
  return out;
}

std::optional<PlanFileHeader> read_plan_header(const std::string& path,
                                               std::string* code,
                                               std::string* detail) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    if (code) *code = "E-STORE-OPEN";
    if (detail) *detail = "cannot open " + path;
    return std::nullopt;
  }
  std::byte header[kPlanHeaderBytes];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  const std::span<const std::byte> got{
      header, static_cast<std::size_t>(in.gcount() > 0 ? in.gcount() : 0)};
  PlanFileHeader h;
  if (!decode_header(got, &h, code, detail)) return std::nullopt;
  return h;
}

PlanLoadResult load_plan_file(const std::string& path) {
  std::string error;
  const std::shared_ptr<support::MappedFile> file =
      support::MappedFile::open(path, &error);
  if (!file) return rejected("E-STORE-OPEN", error);
  const std::span<const std::byte> bytes = file->bytes();

  PlanFileHeader h;
  std::string code, detail;
  if (!decode_header(bytes, &h, &code, &detail))
    return rejected(std::move(code), std::move(detail));

  const std::size_t present = bytes.size() - kPlanHeaderBytes;
  if (present < h.payload_bytes)
    return rejected(
        "E-STORE-TRUNC",
        strformat("header promises %llu payload bytes, %zu present",
                  static_cast<unsigned long long>(h.payload_bytes),
                  present));
  if (present > h.payload_bytes)
    return rejected("E-STORE-PARSE",
                    strformat("%zu bytes beyond the declared payload",
                              present - h.payload_bytes));
  const std::span<const std::byte> payload =
      bytes.subspan(kPlanHeaderBytes,
                    static_cast<std::size_t>(h.payload_bytes));

  // The checksum walk and the structural parse both sweep the payload;
  // overlap them (the parse only builds bounds-checked views, so running
  // it on not-yet-proven bytes is memory-safe — its *result* is not
  // trusted until the checksum lands).
  std::uint64_t checksum = 0;
  std::thread checksum_thread([&] {
    checksum = support::fast_hash64(payload.data(), payload.size());
  });

  if (h.distribution > 2 || h.num_procs == 0 || h.k == 0) {
    checksum_thread.join();
    if (checksum != h.payload_checksum)
      return rejected("E-STORE-CHECKSUM", "payload hash mismatch");
    return rejected("E-STORE-PARSE",
                    "header parameters out of range (distribution, procs, "
                    "or k)");
  }

  ExecutionPlan plan{
      KernelShape{h.num_nodes, h.num_edges, h.num_refs,
                  h.num_reduction_arrays, h.num_node_read_arrays},
      PlanOptions{},
      inspector::RotationSchedule(h.num_nodes, h.num_procs, h.k),
      {},
      0.0,
      file};
  plan.options.num_procs = h.num_procs;
  plan.options.k = h.k;
  plan.options.distribution =
      static_cast<inspector::Distribution>(h.distribution);
  plan.options.block_cyclic_size = h.block_cyclic_size;
  plan.options.inspector.dedup_buffers = h.dedup_buffers != 0;
  // The load itself is the proof; re-verification on use is the
  // admission paths' call, not an obligation baked into the plan.
  plan.options.verify = false;

  std::string parse_detail;
  const bool parsed = parse_payload(h, payload, &plan, &parse_detail);

  checksum_thread.join();
  // Corruption names its root cause: a flipped bit usually breaks the
  // parse too, but E-STORE-CHECKSUM is the diagnosis.
  if (checksum != h.payload_checksum)
    return rejected("E-STORE-CHECKSUM", "payload hash mismatch");
  if (!parsed)
    return rejected("E-STORE-PARSE", std::move(parse_detail));

  // Budget-mode verification: the same invariant set the producer's
  // fingerprint promises, proven against *these* bytes.
  inspector::PlanVerifyOptions vopt;
  vopt.exhaustive = false;
  const inspector::PlanVerifyReport report = inspector::verify_plan(
      plan.sched, plan.insp, plan.shape.num_edges, plan.shape.num_refs,
      vopt);
  if (!report.ok())
    return rejected("E-STORE-VERIFY",
                    strformat("%llu invariant violation(s): ",
                              static_cast<unsigned long long>(
                                  report.violations)) +
                        report.first_error());

  PlanLoadResult out;
  out.zero_copy = file->mapped();
  out.plan = std::make_shared<const ExecutionPlan>(std::move(plan));
  return out;
}

bool plans_bit_identical(const ExecutionPlan& a, const ExecutionPlan& b) {
  const auto same_shape = [](const KernelShape& x, const KernelShape& y) {
    return x.num_nodes == y.num_nodes && x.num_edges == y.num_edges &&
           x.num_refs == y.num_refs &&
           x.num_reduction_arrays == y.num_reduction_arrays &&
           x.num_node_read_arrays == y.num_node_read_arrays;
  };
  if (!same_shape(a.shape, b.shape)) return false;
  if (a.options.num_procs != b.options.num_procs ||
      a.options.k != b.options.k ||
      a.options.distribution != b.options.distribution ||
      a.options.inspector.dedup_buffers !=
          b.options.inspector.dedup_buffers)
    return false;
  if (a.options.distribution == inspector::Distribution::BlockCyclic &&
      a.options.block_cyclic_size != b.options.block_cyclic_size)
    return false;
  if (a.insp.size() != b.insp.size()) return false;
  for (std::size_t p = 0; p < a.insp.size(); ++p) {
    const inspector::InspectorResult& x = a.insp[p];
    const inspector::InspectorResult& y = b.insp[p];
    if (x.num_buffer_slots != y.num_buffer_slots ||
        x.local_array_size != y.local_array_size ||
        x.phases.size() != y.phases.size() ||
        !(x.assigned_phase == y.assigned_phase) ||
        !(x.slot_elem == y.slot_elem))
      return false;
    for (std::size_t ph = 0; ph < x.phases.size(); ++ph) {
      const inspector::PhaseSchedule& u = x.phases[ph];
      const inspector::PhaseSchedule& v = y.phases[ph];
      if (!(u.iter_global == v.iter_global) ||
          !(u.iter_local == v.iter_local) ||
          !(u.indir_flat == v.indir_flat) || !(u.copy_dst == v.copy_dst) ||
          !(u.copy_src == v.copy_src))
        return false;
    }
  }
  return true;
}

}  // namespace earthred::core
