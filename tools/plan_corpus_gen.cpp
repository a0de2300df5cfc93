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
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "inspector/u32buf.hpp"
#include "kernels/fig1.hpp"
#include "mesh/generators.hpp"
#include "service/plan_cache.hpp"

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
    b[core::kPlanHeaderBytes + b.size() / 3] ^= std::byte{0x10};
    write_file(dir / "checksum-payload-bitflip.plan", b);
  }

  // E-STORE-PERM: a layout plan whose permutation is not a bijection.
  // The defect is inserted *before* serialization so the payload
  // checksum is valid — only the structural perm validation can reject
  // it, which is exactly the path the corpus entry pins.
  {
    core::PlanOptions lopt = opt;
    lopt.layout = core::LayoutKind::Rcm;
    core::ExecutionPlan lplan = core::build_execution_plan(kernel, lopt);
    if (lplan.perm.empty()) {
      std::fprintf(stderr, "rcm corpus plan unexpectedly has no perm\n");
      return 1;
    }
    std::vector<std::uint32_t> p(lplan.perm.data(),
                                 lplan.perm.data() + lplan.perm.size());
    p.at(0) = p.at(1);  // two nodes map to one slot: not a bijection
    lplan.perm = inspector::U32Buf(std::move(p));
    write_file(dir / "perm-not-a-bijection.plan",
               core::serialize_plan(lplan, hash));
  }

  // E-STORE-KEY: a fully valid file (it would load fine by path) filed
  // under the all-zero content hash it does not carry; only
  // PlanStore::load's header-vs-key identity check can reject it.
  write_file(dir / "keystore" / "p0000000000000000-P4-k2-cyclic.plan",
             good);
  return 0;
}
