// plan_corpus_gen — regenerates the committed corruption corpus under
// examples/plans/bad/ (see its README.md).
//
//   plan_corpus_gen <corpus-dir>
//
// Every output derives deterministically from one small fig1 plan
// (80 nodes / 400 edges, P=4, k=2, cyclic; mesh seed 7), so the corpus
// can be re-emitted byte-for-byte whenever the plan format version
// changes. Each file carries exactly one deliberate defect and must be
// rejected by the loader with the E-STORE-* code its filename declares
// (tests/test_plan_store.cpp walks the directory and enforces that).
//
// The corpus is *committed*, not generated at test time: run this tool
// and check in the results after a format bump, so a checksum or decoder
// regression can never silently regenerate itself into passing.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "kernels/fig1.hpp"
#include "mesh/generators.hpp"
#include "service/plan_cache.hpp"
#include "support/binio.hpp"

namespace fs = std::filesystem;
using namespace earthred;

namespace {

void write_file(const fs::path& path, const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu bytes)\n", path.string().c_str(), bytes.size());
}

/// `good` with processor 0's reserved free-list array (the last array of
/// its record) holding one entry, payload size and checksum rewritten so
/// that only the structural parse can object.
std::vector<std::byte> with_free_slot(const std::vector<std::byte>& good) {
  const std::span<const std::byte> payload(
      good.data() + core::kPlanHeaderBytes,
      good.size() - core::kPlanHeaderBytes);
  support::ByteReader r(payload);
  r.f64();  // build_seconds
  r.u32_array();  // reserved
  r.u32_array();  // reserved
  r.u32();  // num_buffer_slots
  r.u32();  // pad
  r.u64();  // local_array_size
  const std::uint64_t arrays = r.u64() * 5;  // five arrays per phase
  for (std::uint64_t a = 0; a < arrays; ++a) r.u32_array();
  r.u32_array();  // assigned_phase
  r.u32_array();  // slot_elem
  const std::size_t at = good.size() - r.remaining();  // empty free list

  support::ByteWriter one;
  one.u32_array(std::vector<std::uint32_t>{0});
  std::vector<std::byte> b(good.begin(),
                           good.begin() + static_cast<std::ptrdiff_t>(at));
  b.insert(b.end(), one.bytes().begin(), one.bytes().end());
  b.insert(b.end(), good.begin() + static_cast<std::ptrdiff_t>(at + 8),
           good.end());  // skips the empty array's count
  const std::uint64_t payload_bytes = b.size() - core::kPlanHeaderBytes;
  const std::uint64_t checksum = support::fast_hash64(
      b.data() + core::kPlanHeaderBytes, payload_bytes);
  std::memcpy(b.data() + 80, &payload_bytes, sizeof payload_bytes);
  std::memcpy(b.data() + 88, &checksum, sizeof checksum);
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: plan_corpus_gen <corpus-dir>\n");
    return 2;
  }
  const fs::path dir = argv[1];
  fs::create_directories(dir / "keystore");

  const kernels::Fig1Kernel kernel =
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({80, 400, 7}));
  core::PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  const std::uint64_t hash = service::kernel_fingerprint(kernel);
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, opt);
  const std::vector<std::byte> good = core::serialize_plan(plan, hash);

  // One defect per file; offsets follow the header layout documented in
  // src/core/plan_io.hpp.
  {
    std::vector<std::byte> b(good.begin(), good.begin() + 32);
    write_file(dir / "trunc-header.plan", b);
  }
  {
    std::vector<std::byte> b(good.begin(),
                             good.begin() +
                                 static_cast<std::ptrdiff_t>(good.size() / 2));
    write_file(dir / "trunc-midpayload.plan", b);
  }
  {
    auto b = good;
    b[0] ^= std::byte{0xff};
    write_file(dir / "magic-not-a-plan.plan", b);
  }
  {
    auto b = good;
    b[8] = std::byte{0x7f};  // u32 format_version
    write_file(dir / "version-future.plan", b);
  }
  {
    auto b = good;  // u32 endian_tag as a big-endian producer writes it
    b[12] = std::byte{0x01};
    b[13] = std::byte{0x02};
    b[14] = std::byte{0x03};
    b[15] = std::byte{0x04};
    write_file(dir / "endian-foreign.plan", b);
  }
  {
    auto b = good;
    b[16] ^= std::byte{0x01};  // u64 verifier_fingerprint
    write_file(dir / "verifier-mismatch.plan", b);
  }
  {
    auto b = good;
    b[76] = std::byte{0x03};  // u32 strategy: the retired atomic value
    write_file(dir / "parse-strategy-retired.plan", b);
  }
  {
    auto b = good;
    b[76] = std::byte{0x02};  // u32 strategy: the retired privatized value
    write_file(dir / "parse-privatized-retired.plan", b);
  }
  {
    auto b = good;
    b[96] = std::byte{0x01};  // u32 reserved: the retired layout kind
    write_file(dir / "parse-layout-retired.plan", b);
  }
  write_file(dir / "parse-free-slots-nonempty.plan", with_free_slot(good));
  {
    auto b = good;
    b[core::kPlanHeaderBytes + b.size() / 3] ^= std::byte{0x10};
    write_file(dir / "checksum-payload-bitflip.plan", b);
  }

  // E-STORE-KEY: a fully valid file (it would load fine by path) filed
  // under the all-zero content hash it does not carry; only
  // PlanStore::load's header-vs-key identity check can reject it.
  write_file(dir / "keystore" / "p0000000000000000-P4-k2-cyclic.plan",
             good);
  return 0;
}
