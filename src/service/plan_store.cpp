#include "service/plan_store.hpp"

#include <algorithm>
#include <filesystem>

#include "inspector/distribution.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"
#include "support/str.hpp"

namespace earthred::service {

namespace fs = std::filesystem;

PlanStore::PlanStore(std::string directory) : dir_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  ER_EXPECTS_MSG(!ec && fs::is_directory(dir_),
                 "plan store path is not a usable directory: " + dir_);
}

std::string PlanStore::path_for(const PlanKey& key) const {
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(key.content_hash));
  std::string name = "p" + std::string(hash) + "-P" +
                     std::to_string(key.num_procs) + "-k" +
                     std::to_string(key.k) + "-" +
                     inspector::to_string(key.distribution);
  if (key.distribution == inspector::Distribution::BlockCyclic)
    name += "-bc" + std::to_string(key.block_cyclic_size);
  if (key.dedup_buffers) name += "-dedup";
  return dir_ + "/" + name + ".plan";
}

core::PlanLoadResult PlanStore::load(const PlanKey& key) const {
  const std::string path = path_for(key);
  core::PlanLoadResult out;

  // Header-first: the identity check must reject a mismatched file
  // *before* the payload is trusted enough to parse.
  const auto header =
      core::read_plan_header(path, &out.error_code, &out.detail);
  if (!header) return out;
  if (header->content_hash != key.content_hash ||
      header->num_procs != key.num_procs || header->k != key.k ||
      header->distribution !=
          static_cast<std::uint32_t>(key.distribution) ||
      header->block_cyclic_size != key.block_cyclic_size ||
      (header->dedup_buffers != 0) != key.dedup_buffers) {
    out.error_code = "E-STORE-KEY";
    out.detail = "stored plan identity does not match the requested key "
                 "(renamed or aliased file)";
    return out;
  }
  return core::load_plan_file(path);
}

bool PlanStore::save(const PlanKey& key, const core::ExecutionPlan& plan,
                     std::string* error) const {
  try {
    const std::vector<std::byte> bytes =
        core::serialize_plan(plan, key.content_hash);
    return support::write_file_atomic(path_for(key), bytes, error);
  } catch (const std::exception& e) {
    if (error) *error = e.what();
    return false;
  }
}

std::vector<PlanStore::ListEntry> PlanStore::list() const {
  std::vector<ListEntry> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".plan")
      continue;
    ListEntry e;
    e.filename = entry.path().filename().string();
    std::error_code size_ec;
    e.file_bytes = entry.file_size(size_ec);
    std::string detail;
    const auto header = core::read_plan_header(entry.path().string(),
                                               &e.error_code, &detail);
    if (header) e.header = *header;
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const ListEntry& a, const ListEntry& b) {
              return a.filename < b.filename;
            });
  return out;
}

}  // namespace earthred::service
