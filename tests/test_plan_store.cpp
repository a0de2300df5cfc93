// The persistent plan store: round-trip fidelity, zero-copy adoption,
// the untrusted-input validation chain (every corruption class must come
// back as a coded, non-throwing rejection), and the PlanCache's
// transparent fallback — a bad file costs a rebuild, never a client
// error. Also validates the committed corruption corpus under
// examples/plans/bad/.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "kernels/fig1.hpp"
#include "mesh/generators.hpp"
#include "service/plan_cache.hpp"
#include "service/plan_store.hpp"
#include "support/binio.hpp"

namespace earthred::service {
namespace {

namespace fs = std::filesystem;

kernels::Fig1Kernel make_kernel(std::uint64_t seed = 21) {
  return kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({250, 1500, seed}));
}

core::PlanOptions plan_opts(std::uint32_t P = 4, std::uint32_t k = 2) {
  core::PlanOptions opt;
  opt.num_procs = P;
  opt.k = k;
  return opt;
}

/// Scratch store directory, removed on destruction. Named per process:
/// `ctest -j` runs each test case as its own process, concurrently.
struct ScratchStore {
  std::string dir;
  ScratchStore()
      : dir((fs::temp_directory_path() /
             ("earthred-test-planstore-" + std::to_string(::getpid())))
                .string()) {
    fs::remove_all(dir);
  }
  ~ScratchStore() { fs::remove_all(dir); }
};

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(raw.data());
  return {p, p + raw.size()};
}

void write_file(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(PlanStore, RoundTripIsZeroCopyAndBitIdentical) {
  const auto kernel = make_kernel();
  const core::PlanOptions opt = plan_opts();
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, opt);

  ScratchStore scratch;
  const PlanStore store(scratch.dir);
  const PlanKey key = make_plan_key(kernel, opt);
  std::string error;
  ASSERT_TRUE(store.save(key, plan, &error)) << error;

  const core::PlanLoadResult r = store.load(key);
  ASSERT_TRUE(r.ok()) << r.error_code << ": " << r.detail;
  EXPECT_TRUE(r.zero_copy);
  EXPECT_TRUE(core::plans_bit_identical(*r.plan, plan));
  // Loaded plans must be patchable bases: canonical free list.
  for (const auto& insp : r.plan->insp)
    EXPECT_TRUE(insp.free_slots.empty());

  // The header alone round-trips the plan's identity.
  std::string code, detail;
  const auto header = core::read_plan_header(store.path_for(key), &code,
                                             &detail);
  ASSERT_TRUE(header.has_value()) << code << ": " << detail;
  EXPECT_EQ(header->content_hash, key.content_hash);
  EXPECT_EQ(header->num_procs, key.num_procs);
  EXPECT_EQ(header->k, key.k);

  // And `ls` surfaces it.
  const auto entries = store.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].error_code.empty());
  EXPECT_EQ(entries[0].header.content_hash, key.content_hash);
}

TEST(PlanStore, RetiredLayoutFieldsMustReadZero) {
  // Format v2 keeps the slots a retired plan-layout pass once filled:
  // three header u32s at offset 96 and two u32 arrays after
  // build_seconds. They are reserved and must read 0; anything else is a
  // coded E-STORE-PARSE, never a plan.
  const auto kernel = make_kernel();
  const core::PlanOptions opt = plan_opts();
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, opt);
  ScratchStore scratch;
  fs::create_directories(scratch.dir);
  const std::string path = scratch.dir + "/reserved.plan";
  const std::vector<std::byte> good =
      core::serialize_plan(plan, make_plan_key(kernel, opt).content_hash);
  ASSERT_GE(good.size(), core::kPlanHeaderBytes + 24);

  const auto expect_parse_error = [&](const std::vector<std::byte>& bytes,
                                      const std::string& what) {
    write_file(path, bytes);
    const core::PlanLoadResult r = core::load_plan_file(path);
    EXPECT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.error_code, "E-STORE-PARSE") << what << ": " << r.detail;
    EXPECT_EQ(r.plan, nullptr) << what;
  };
  for (const std::size_t offset : {96u, 100u, 104u}) {
    auto bad = good;
    bad[offset] = std::byte{0x01};
    expect_parse_error(bad, "header offset " + std::to_string(offset));
  }

  // A reserved array with two entries, spliced in with a matching
  // payload size and checksum so only the reserved-field check objects.
  {
    const auto put_u64 = [](std::vector<std::byte>& b, std::size_t at,
                            std::uint64_t v) {
      std::memcpy(b.data() + at, &v, sizeof v);
    };
    const std::size_t first_count = core::kPlanHeaderBytes + 8;
    std::vector<std::byte> bad(good.begin(),
                               good.begin() + static_cast<std::ptrdiff_t>(
                                                  first_count + 8));
    put_u64(bad, first_count, 2);
    bad.resize(bad.size() + 8, std::byte{0x07});  // the two u32 entries
    bad.insert(bad.end(),
               good.begin() + static_cast<std::ptrdiff_t>(first_count + 8),
               good.end());
    const std::size_t payload = bad.size() - core::kPlanHeaderBytes;
    put_u64(bad, 80, payload);
    put_u64(bad, 88,
            support::fast_hash64(bad.data() + core::kPlanHeaderBytes,
                                 payload));
    expect_parse_error(bad, "nonzero reserved array count");
  }
  write_file(path, good);
  EXPECT_TRUE(core::load_plan_file(path).ok());

  // Plans already on disk keep loading: the committed keystore/ plan was
  // written before the layout pass was retired, and still parses into
  // the plan this build makes from the same fig1 mesh.
  const fs::path committed = fs::path(EARTHRED_SOURCE_DIR) / "examples" /
                             "plans" / "bad" / "keystore" /
                             "p0000000000000000-P4-k2-cyclic.plan";
  const core::PlanLoadResult r = core::load_plan_file(committed.string());
  ASSERT_TRUE(r.ok()) << r.error_code << ": " << r.detail;
  const auto corpus_kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({80, 400, 7}));
  EXPECT_TRUE(core::plans_bit_identical(
      *r.plan, core::build_execution_plan(corpus_kernel, plan_opts())));
}

TEST(PlanStore, RetiredStrategyFieldAcceptsOnlyPhasedRequests) {
  // The header u32 at offset 76 once held the requested lowering
  // strategy: 0 auto, 1 phased, 2 privatized, 3 atomic. Files with 0 or
  // 1 ran the phased executor and still load, into the same plan; 2 and
  // up asked for a retired executor and are E-STORE-PARSE. The checksum
  // covers only the payload, so the header edit is the only defect.
  const auto kernel = make_kernel();
  const core::PlanOptions opt = plan_opts();
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, opt);
  const PlanKey key = make_plan_key(kernel, opt);
  const std::vector<std::byte> good =
      core::serialize_plan(plan, key.content_hash);
  ASSERT_EQ(good[76], std::byte{0});  // the writer leaves it reserved

  ScratchStore scratch;
  const PlanStore store(scratch.dir);
  fs::create_directories(scratch.dir);
  const auto load_with = [&](std::uint8_t value) {
    auto bytes = good;
    bytes[76] = std::byte{value};
    write_file(store.path_for(key), bytes);
    return store.load(key);
  };
  const core::PlanLoadResult zero = load_with(0);
  const core::PlanLoadResult one = load_with(1);
  ASSERT_TRUE(zero.ok()) << zero.error_code << ": " << zero.detail;
  ASSERT_TRUE(one.ok()) << one.error_code << ": " << one.detail;
  EXPECT_TRUE(core::plans_bit_identical(*zero.plan, *one.plan));
  EXPECT_TRUE(core::plans_bit_identical(*one.plan, plan));
  for (const std::uint8_t retired : {2, 3, 0xff}) {
    const core::PlanLoadResult r = load_with(retired);
    EXPECT_FALSE(r.ok()) << int{retired};
    EXPECT_EQ(r.error_code, "E-STORE-PARSE") << int{retired} << ": "
                                             << r.detail;
  }

  // The committed keystore/ plan, written before the privatized
  // executor was retired, still loads by path.
  const fs::path committed = fs::path(EARTHRED_SOURCE_DIR) / "examples" /
                             "plans" / "bad" / "keystore" /
                             "p0000000000000000-P4-k2-cyclic.plan";
  const core::PlanLoadResult r = core::load_plan_file(committed.string());
  EXPECT_TRUE(r.ok()) << r.error_code << ": " << r.detail;
}

TEST(PlanStore, MissingKeyIsOpenError) {
  ScratchStore scratch;
  const PlanStore store(scratch.dir);
  const auto kernel = make_kernel();
  const core::PlanLoadResult r =
      store.load(make_plan_key(kernel, plan_opts()));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error_code, "E-STORE-OPEN");
}

// Every corruption class must be a distinct coded rejection — never an
// exception, never a plan.
TEST(PlanStore, CorruptionClassesAreCodedRejections) {
  const auto kernel = make_kernel();
  const core::PlanOptions opt = plan_opts();
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, opt);
  ScratchStore scratch;
  const PlanStore store(scratch.dir);
  const PlanKey key = make_plan_key(kernel, opt);
  ASSERT_TRUE(store.save(key, plan));
  const std::string path = store.path_for(key);
  const std::vector<std::byte> good = read_file(path);
  ASSERT_GE(good.size(), core::kPlanHeaderBytes);

  const auto expect_code = [&](const std::string& code) {
    const core::PlanLoadResult r = store.load(key);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error_code, code) << r.detail;
    EXPECT_EQ(r.plan, nullptr);
    write_file(path, good);  // restore for the next case
  };

  // Truncated mid-payload.
  write_file(path, std::span(good).first(good.size() / 2));
  expect_code("E-STORE-TRUNC");

  // Truncated inside the header.
  write_file(path, std::span(good).first(32));
  expect_code("E-STORE-TRUNC");

  // Bad magic.
  {
    auto bad = good;
    bad[0] ^= std::byte{0xff};
    write_file(path, bad);
    expect_code("E-STORE-MAGIC");
  }

  // Unknown format version (offset 8: u32 format_version).
  {
    auto bad = good;
    bad[8] = std::byte{0x7f};
    write_file(path, bad);
    expect_code("E-STORE-VERSION");
  }

  // Foreign endianness (offset 12: u32 endian_tag). A little-endian
  // producer writes 04 03 02 01; a big-endian one writes the reverse.
  {
    auto bad = good;
    bad[12] = std::byte{0x01};
    bad[13] = std::byte{0x02};
    bad[14] = std::byte{0x03};
    bad[15] = std::byte{0x04};
    write_file(path, bad);
    expect_code("E-STORE-ENDIAN");
  }

  // Different verifier fingerprint (offset 16: u64).
  {
    auto bad = good;
    bad[16] ^= std::byte{0x01};
    write_file(path, bad);
    expect_code("E-STORE-VERIFIER");
  }

  // Payload bit-flip -> checksum mismatch (regardless of whether the
  // flipped bit would still parse or verify).
  {
    auto bad = good;
    bad[core::kPlanHeaderBytes + bad.size() / 3] ^= std::byte{0x10};
    write_file(path, bad);
    expect_code("E-STORE-CHECKSUM");
  }

  // Wrong identity: a valid file for a *different* kernel placed at this
  // key's path must be rejected before its payload is even parsed.
  {
    const auto other = make_kernel(99);
    const core::ExecutionPlan other_plan =
        core::build_execution_plan(other, opt);
    const PlanKey other_key = make_plan_key(other, opt);
    ASSERT_NE(other_key.content_hash, key.content_hash);
    write_file(path,
               core::serialize_plan(other_plan, other_key.content_hash));
    expect_code("E-STORE-KEY");
  }

  // After every restoration the original still loads.
  const core::PlanLoadResult ok = store.load(key);
  ASSERT_TRUE(ok.ok()) << ok.error_code;
  EXPECT_TRUE(core::plans_bit_identical(*ok.plan, plan));
}

// The committed corpus: every file under examples/plans/bad/ must be
// rejected with exactly the code its name declares (<code>-*.plan ->
// E-STORE-<CODE>), proving the corpus stays in sync with the decoder.
TEST(PlanStore, CommittedCorruptionCorpusIsRejected) {
  const fs::path dir =
      fs::path(EARTHRED_SOURCE_DIR) / "examples" / "plans" / "bad";
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::size_t seen = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".plan") continue;
    ++seen;
    const std::string stem = entry.path().stem().string();
    std::string code = stem.substr(0, stem.find('-'));
    for (char& c : code) c = static_cast<char>(std::toupper(c));
    const std::string expected = "E-STORE-" + code;
    const core::PlanLoadResult r =
        core::load_plan_file(entry.path().string());
    EXPECT_FALSE(r.ok()) << entry.path();
    EXPECT_EQ(r.error_code, expected) << entry.path() << ": " << r.detail;
    EXPECT_EQ(r.plan, nullptr) << entry.path();
  }
  EXPECT_GE(seen, 5u) << "corpus went missing from " << dir;
}

// The corpus's identity-mismatch case needs the store's key check: the
// keystore/ subdirectory holds a structurally valid plan filed under the
// all-zero content hash it does not have.
TEST(PlanStore, CommittedKeyMismatchCorpusIsRejected) {
  const std::string dir = (fs::path(EARTHRED_SOURCE_DIR) / "examples" /
                           "plans" / "bad" / "keystore")
                              .string();
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  const PlanStore store(dir);
  PlanKey key;
  key.content_hash = 0;
  key.num_procs = 4;
  key.k = 2;
  key.distribution = inspector::Distribution::Cyclic;
  key.block_cyclic_size = 16;
  ASSERT_TRUE(fs::exists(store.path_for(key))) << store.path_for(key);
  const core::PlanLoadResult r = store.load(key);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error_code, "E-STORE-KEY") << r.detail;
}

TEST(PlanCacheStore, WarmProcessServesFromDiskAndFallsBackOnCorruption) {
  const auto kernel = make_kernel();
  const core::PlanOptions opt = plan_opts();
  ScratchStore scratch;

  PlanKey key;
  // Process 1: cold build, persisted on the way out.
  {
    PlanCache::Config cfg;
    cfg.store = std::make_shared<PlanStore>(scratch.dir);
    PlanCache cache(cfg);
    PlanCache::Outcome how{};
    const PlanPtr p = cache.lookup_or_build(kernel, opt, {}, &how);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(how, PlanCache::Outcome::Built);
    EXPECT_EQ(cache.counters().persisted, 1u);
    key = make_plan_key(kernel, opt);
    EXPECT_TRUE(fs::exists(cfg.store->path_for(key)));
  }

  // Process 2 (fresh cache, same store): served by a zero-copy load.
  {
    PlanCache::Config cfg;
    cfg.store = std::make_shared<PlanStore>(scratch.dir);
    PlanCache cache(cfg);
    PlanCache::Outcome how{};
    const PlanPtr p = cache.lookup_or_build(kernel, opt, {}, &how);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(how, PlanCache::Outcome::DiskLoaded);
    EXPECT_EQ(cache.counters().disk_hits, 1u);
    EXPECT_EQ(cache.counters().disk_fallbacks, 0u);
    // Second request hits memory, not disk.
    const PlanPtr p2 = cache.lookup_or_build(kernel, opt, {}, &how);
    EXPECT_EQ(p2.get(), p.get());
    EXPECT_EQ(how, PlanCache::Outcome::Hit);
  }

  // Process 3: the stored file is corrupt -> counted fallback to a
  // rebuild; the client still gets a working plan and no error.
  {
    const PlanStore store(scratch.dir);
    const std::string path = store.path_for(key);
    auto bytes = read_file(path);
    bytes[core::kPlanHeaderBytes + 17] ^= std::byte{0x04};
    write_file(path, bytes);

    PlanCache::Config cfg;
    cfg.store = std::make_shared<PlanStore>(scratch.dir);
    PlanCache cache(cfg);
    PlanCache::Outcome how{};
    const PlanPtr p = cache.lookup_or_build(kernel, opt, {}, &how);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(how, PlanCache::Outcome::Built);
    EXPECT_EQ(cache.counters().disk_fallbacks, 1u);
    EXPECT_NE(cache.last_fallback_reason().find("E-STORE-"),
              std::string::npos)
        << cache.last_fallback_reason();
  }
}

}  // namespace
}  // namespace earthred::service
