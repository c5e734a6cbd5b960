// A minimal command-line flag parser for the lrb tools: accepts
// "--key value" and "--key=value" pairs plus bare positional arguments.
// Unknown keys are collected so tools can reject typos explicitly.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lrb {

/// Parses `text` as a count: a whole base-10 number >= 0 with nothing
/// around it. nullopt for negative, non-numeric or out-of-range text.
[[nodiscard]] std::optional<std::int64_t> parse_count(std::string_view text);

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  /// The value as a count (see parse_count): `fallback` when the flag is
  /// absent, nullopt when its value is negative or not a number.
  [[nodiscard]] std::optional<std::int64_t> get_count(
      const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  /// Keys that were parsed; lets a tool verify every flag was meaningful.
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace lrb
