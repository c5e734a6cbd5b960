#include "util/flags.h"

#include <charconv>
#include <cstdlib>

namespace lrb {

std::optional<std::int64_t> parse_count(std::string_view text) {
  const char* end = text.data() + text.size();
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < 0) return std::nullopt;
  return value;
}

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> Flags::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_or(const std::string& key,
                          const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return std::strtoll(v->c_str(), nullptr, 10);
}

std::optional<std::int64_t> Flags::get_count(const std::string& key,
                                             std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return parse_count(*v);
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return std::strtod(v->c_str(), nullptr);
}

bool Flags::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::vector<std::string> Flags::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

}  // namespace lrb
