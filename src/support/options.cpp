#include "support/options.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/check.hpp"
#include "support/str.hpp"

namespace earthred {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      keyed_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      keyed_[arg] = "";
    }
  }
}

bool Options::has(const std::string& key) const {
  return keyed_.count(key) != 0;
}

void Options::reject_unknown(std::string_view command,
                             std::span<const std::string_view> known) const {
  for (const auto& [key, value] : keyed_)
    if (std::find(known.begin(), known.end(), key) == known.end())
      throw check_error("E-CLI-FLAG: unknown flag '--" + key + "' for " +
                        std::string(command));
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = keyed_.find(key);
  return it == keyed_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = keyed_.find(key);
  if (it == keyed_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  ER_CHECK_MSG(end && *end == '\0', "malformed integer for --" + key);
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = keyed_.find(key);
  if (it == keyed_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  ER_CHECK_MSG(end && *end == '\0', "malformed double for --" + key);
  return v;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = keyed_.find(key);
  if (it == keyed_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "no") return false;
  throw check_error("malformed boolean for --" + key);
}

std::vector<std::int64_t> Options::get_int_list(
    const std::string& key, std::vector<std::int64_t> fallback) const {
  const auto it = keyed_.find(key);
  if (it == keyed_.end() || it->second.empty()) return fallback;
  std::vector<std::int64_t> out;
  for (const std::string& part : split(it->second, ',')) {
    char* end = nullptr;
    const long long v = std::strtoll(part.c_str(), &end, 10);
    ER_CHECK_MSG(end && *end == '\0' && !part.empty(),
                 "malformed integer list for --" + key);
    out.push_back(v);
  }
  return out;
}

}  // namespace earthred
