// Key=value configuration used by examples and bench binaries.
//
// Sources, in increasing precedence: built-in defaults, ODONN_* environment
// variables, command-line "key=value" arguments. Typed getters throw
// ConfigError on malformed values so bad invocations fail fast.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace odonn {

/// Splits a comma-separated value into tokens (no trimming; empty tokens
/// preserved so callers can reject them). "" yields one empty token —
/// list-valued config keys share this one splitter.
std::vector<std::string> split_csv(const std::string& csv);

/// Parses a whole token as a finite double (Config::get_double's rule, for
/// list-valued keys); ConfigError names `key` otherwise.
double parse_double(const std::string& raw, const std::string& key);

class Config {
 public:
  Config() = default;

  /// Parses argv entries of the form key=value (a leading "--" is allowed).
  /// Non key=value tokens throw ConfigError.
  static Config from_args(int argc, const char* const* argv);

  /// Reads ODONN_<KEY> (upper-cased, '.'->'_') from the environment.
  static std::optional<std::string> env(const std::string& key);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  /// Typed getters with defaults; environment overrides the default, a
  /// command-line value overrides both. get_int rejects values outside the
  /// range of long, get_double rejects NaN and infinities.
  std::string get_string(const std::string& key, const std::string& dflt) const;
  long get_int(const std::string& key, long dflt) const;
  double get_double(const std::string& key, double dflt) const;
  bool get_bool(const std::string& key, bool dflt) const;

  /// A size or count (samples, grid, batch, epochs, ...): get_int, but a
  /// negative value throws ConfigError instead of wrapping to a huge
  /// std::size_t.
  std::size_t get_count(const std::string& key, std::size_t dflt) const;

  /// String getter restricted to a closed value set: the stored (or
  /// default) value must be one of `allowed`, otherwise ConfigError lists
  /// the alternatives. Matching is exact (values are case-sensitive).
  std::string get_enum(const std::string& key, const std::string& dflt,
                       std::initializer_list<const char*> allowed) const;

  /// Rejects unrecognized keys: every explicitly-set key (command line /
  /// set()) must appear in `allowed`, otherwise ConfigError names the
  /// offending key and the accepted set — so a typo like
  /// `epochs_dens=10` fails fast instead of being silently ignored.
  /// Environment variables are not checked (unrelated ODONN_* vars may
  /// exist legitimately).
  void strict(const std::vector<std::string>& allowed) const;

  /// Keys present on the command line (for echoing configs in bench logs).
  std::vector<std::string> keys() const;

 private:
  std::optional<std::string> lookup(const std::string& key) const;

  std::map<std::string, std::string> values_;
};

}  // namespace odonn
