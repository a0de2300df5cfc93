#include "shard/shard_map.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "support/binio.hpp"
#include "support/str.hpp"

namespace earthred::shard {

namespace {

/// Parses `host:port`; false on a malformed port.
bool parse_endpoint(std::string_view spec, std::string* host,
                    std::uint16_t* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= spec.size())
    return false;
  unsigned long p = 0;
  const std::string digits(spec.substr(colon + 1));
  if (digits.find_first_not_of("0123456789") != std::string::npos)
    return false;
  try {
    p = std::stoul(digits);
  } catch (const std::exception&) {
    return false;
  }
  if (p == 0 || p > 65535) return false;
  *host = std::string(spec.substr(0, colon));
  *port = static_cast<std::uint16_t>(p);
  return true;
}

ShardMap build_checked(std::vector<ShardEndpoint> shards,
                       std::string* error) {
  std::set<std::string> names;
  for (const ShardEndpoint& s : shards) {
    if (!names.insert(s.name).second) {
      if (error) *error = "duplicate shard name '" + s.name + "'";
      return {};
    }
  }
  if (error) error->clear();
  return ShardMap(std::move(shards));
}

}  // namespace

ShardMap::ShardMap(std::vector<ShardEndpoint> shards)
    : shards_(std::move(shards)) {}

ShardMap ShardMap::parse(std::string_view text, std::string* error) {
  std::vector<ShardEndpoint> shards;
  std::size_t lineno = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++lineno;
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;
    ShardEndpoint ep;
    const std::size_t space = line.find_first_of(" \t");
    std::string_view spec = line;
    if (space != std::string_view::npos) {
      ep.name = std::string(trim(line.substr(0, space)));
      spec = trim(line.substr(space + 1));
    }
    if (!parse_endpoint(spec, &ep.host, &ep.port)) {
      if (error)
        *error = strformat("shard config line %zu: expected "
                           "[name] host:port, got '%.*s'",
                           lineno, static_cast<int>(line.size()),
                           line.data());
      return {};
    }
    if (ep.name.empty()) ep.name = std::string(spec);
    shards.push_back(std::move(ep));
  }
  return build_checked(std::move(shards), error);
}

ShardMap ShardMap::load(const std::string& path, std::string* error) {
  std::ifstream is(path);
  if (!is.good()) {
    if (error) *error = "cannot open shard config '" + path + "'";
    return {};
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  return parse(buffer.str(), error);
}

ShardMap ShardMap::from_spec(const std::string& spec, std::string* error) {
  std::vector<ShardEndpoint> shards;
  for (const std::string& part : split(spec, ',')) {
    const std::string_view p = trim(part);
    if (p.empty()) continue;
    ShardEndpoint ep;
    if (!parse_endpoint(p, &ep.host, &ep.port)) {
      if (error)
        *error = strformat("--shards: expected host:port, got '%.*s'",
                           static_cast<int>(p.size()), p.data());
      return {};
    }
    ep.name = std::string(p);
    shards.push_back(std::move(ep));
  }
  return build_checked(std::move(shards), error);
}

std::uint64_t ShardMap::weight(std::size_t i, std::uint64_t key) const {
  const std::string& name = shards_[i].name;
  return support::fast_hash64(name.data(), name.size(), key);
}

std::vector<std::uint32_t> ShardMap::rank(std::uint64_t key) const {
  std::vector<std::uint32_t> order(shards_.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint64_t wa = weight(a, key);
              const std::uint64_t wb = weight(b, key);
              if (wa != wb) return wa > wb;
              return a < b;
            });
  return order;
}

std::uint32_t ShardMap::owner(std::uint64_t key) const {
  std::uint32_t best = 0;
  std::uint64_t best_w = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t w = weight(i, key);
    if (i == 0 || w > best_w) {
      best = static_cast<std::uint32_t>(i);
      best_w = w;
    }
  }
  return best;
}

std::uint64_t content_key(std::string_view job_line) {
  // The plan-identity keys, with the JobBuilder defaults. Only these
  // affect where a job routes; sweeps/name/deadline/engine/mutate do not.
  static const std::map<std::string, std::string> kDefaults = {
      {"kernel", "euler"}, {"preset", ""},   {"mesh", ""},
      {"dsl", ""},         {"nodes", "1000"}, {"edges", "5000"},
      {"seed", "42"},      {"procs", "4"},    {"k", "2"},
      {"dist", "cyclic"},  {"bc", "16"},      {"dedup", "0"}};

  std::map<std::string, std::string> values = kDefaults;
  std::string junk;  // unparseable tokens, folded for determinism
  for (const std::string& tok : split(trim(job_line), ' ')) {
    const std::string_view t = trim(tok);
    if (t.empty()) continue;
    const std::size_t eq = t.find('=');
    std::string key(t.substr(0, eq));
    std::string value(eq == std::string_view::npos ? std::string_view("")
                                                   : t.substr(eq + 1));
    const auto it = values.find(key);
    if (it == values.end()) {
      // Known non-routing keys (sweeps=, name=, ...) are skipped; unknown
      // tokens still perturb the hash so distinct-but-invalid lines
      // cannot be confused.
      static const std::set<std::string> kNonRouting = {
          "sweeps", "deadline", "engine", "name",  "batch",
          "no-batch", "pin",    "verify", "mutate", "mutate-seed"};
      if (!kNonRouting.count(key)) {
        junk += std::string(t);
        junk += '\n';
      }
      continue;
    }
    if (key == "dedup") {
      // Bare flag or boolean value, normalized the way Options reads it.
      it->second = (value.empty() || value == "true" || value == "1" ||
                    value == "yes")
                       ? "1"
                       : "0";
      continue;
    }
    // Canonicalize numerics (nodes=01000 == nodes=1000); non-numeric
    // values pass through verbatim.
    if (!value.empty() &&
        value.find_first_not_of("0123456789") == std::string::npos) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
      if (end && *end == '\0') value = std::to_string(n);
    }
    it->second = std::move(value);
  }

  std::string canonical;
  for (const auto& [key, value] : values) {
    canonical += key;
    canonical += '=';
    canonical += value;
    canonical += '|';
  }
  canonical += junk;
  return support::fast_hash64(canonical.data(), canonical.size());
}

}  // namespace earthred::shard
