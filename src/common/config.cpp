#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace odonn {

namespace {

std::string to_env_name(const std::string& key) {
  std::string name = "ODONN_";
  for (char c : key) {
    if (c == '.' || c == '-') {
      name.push_back('_');
    } else {
      name.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  return name;
}

bool parse_bool(const std::string& raw, const std::string& key) {
  std::string low(raw.size(), '\0');
  std::transform(raw.begin(), raw.end(), low.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (low == "1" || low == "true" || low == "yes" || low == "on") return true;
  if (low == "0" || low == "false" || low == "no" || low == "off") return false;
  throw ConfigError("key '" + key + "': cannot parse '" + raw + "' as bool");
}

long parse_int(const std::string& raw, const std::string& key) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0') {
    throw ConfigError("key '" + key + "': cannot parse '" + raw + "' as int");
  }
  if (errno == ERANGE) {
    throw ConfigError("key '" + key + "': '" + raw + "' is out of range");
  }
  return value;
}

std::string join_with_commas(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

}  // namespace

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t end = std::min(csv.find(',', begin), csv.size());
    out.push_back(csv.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) token = token.substr(2);
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ConfigError("expected key=value argument, got '" +
                        std::string(argv[i]) + "'");
    }
    cfg.set(token.substr(0, eq), token.substr(eq + 1));
  }
  return cfg;
}

std::optional<std::string> Config::env(const std::string& key) {
  if (const char* value = std::getenv(to_env_name(key).c_str())) {
    return std::string(value);
  }
  return std::nullopt;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::has(const std::string& key) const {
  return values_.count(key) > 0 || env(key).has_value();
}

std::optional<std::string> Config::lookup(const std::string& key) const {
  if (auto it = values_.find(key); it != values_.end()) return it->second;
  return env(key);
}

std::string Config::get_string(const std::string& key,
                               const std::string& dflt) const {
  return lookup(key).value_or(dflt);
}

long Config::get_int(const std::string& key, long dflt) const {
  const auto raw = lookup(key);
  return raw ? parse_int(*raw, key) : dflt;
}

std::size_t Config::get_count(const std::string& key,
                              std::size_t dflt) const {
  const auto raw = lookup(key);
  if (!raw) return dflt;
  const long value = parse_int(*raw, key);
  if (value < 0) {
    throw ConfigError("key '" + key + "': count must be >= 0, got " + *raw);
  }
  return static_cast<std::size_t>(value);
}

double Config::get_double(const std::string& key, double dflt) const {
  const auto raw = lookup(key);
  if (!raw) return dflt;
  char* end = nullptr;
  const double value = std::strtod(raw->c_str(), &end);
  if (end == raw->c_str() || *end != '\0') {
    throw ConfigError("key '" + key + "': cannot parse '" + *raw + "' as double");
  }
  if (!std::isfinite(value)) {
    throw ConfigError("key '" + key + "': '" + *raw + "' is not finite");
  }
  return value;
}

bool Config::get_bool(const std::string& key, bool dflt) const {
  const auto raw = lookup(key);
  if (!raw) return dflt;
  return parse_bool(*raw, key);
}

std::string Config::get_enum(const std::string& key, const std::string& dflt,
                             std::initializer_list<const char*> allowed) const {
  const std::string value = get_string(key, dflt);
  for (const char* candidate : allowed) {
    if (value == candidate) return value;
  }
  throw ConfigError(
      "key '" + key + "': invalid value '" + value + "' (expected one of: " +
      join_with_commas({allowed.begin(), allowed.end()}) + ")");
}

void Config::strict(const std::vector<std::string>& allowed) const {
  for (const auto& [key, _] : values_) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw ConfigError("unrecognized key '" + key + "' (accepted keys: " +
                        join_with_commas(allowed) + ")");
    }
  }
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace odonn
