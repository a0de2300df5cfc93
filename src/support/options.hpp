// Minimal command-line option parsing for examples and benches.
//
// Accepts `--key=value` and bare `--flag` forms; positional arguments are
// collected in order. Unknown keys are retained so callers can reject them
// (reject_unknown) or ignore them explicitly. (The ambiguous `--key value` form is not
// supported: it cannot be distinguished from a flag followed by a
// positional argument.)
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace earthred {

/// Parsed command line. Typical use:
///   Options opt(argc, argv);
///   int procs = opt.get_int("procs", 32);
class Options {
 public:
  Options() = default;
  Options(int argc, const char* const* argv);

  /// True if --key was present (with or without a value).
  bool has(const std::string& key) const;

  /// String value of --key, or `fallback` if absent.
  std::string get(const std::string& key, const std::string& fallback = {}) const;

  /// Integer value of --key; throws check_error on a malformed number.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;

  /// Double value of --key; throws check_error on a malformed number.
  double get_double(const std::string& key, double fallback) const;

  /// Boolean: bare flag or explicit true/false/1/0/yes/no.
  bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated integer list, e.g. --procs=1,2,4,8.
  std::vector<std::int64_t> get_int_list(const std::string& key,
                                         std::vector<std::int64_t> fallback) const;

  /// Throws check_error "E-CLI-FLAG: unknown flag '--key' for <command>"
  /// naming the first key (in sorted order) that is not in `known`, so a
  /// typo or a retired flag fails instead of being silently ignored.
  void reject_unknown(std::string_view command,
                      std::span<const std::string_view> known) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::map<std::string, std::string>& keyed() const { return keyed_; }

 private:
  std::map<std::string, std::string> keyed_;
  std::vector<std::string> positional_;
};

}  // namespace earthred
