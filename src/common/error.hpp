// Typed error hierarchy and checked-precondition macros used across odonn.
//
// All library errors derive from odonn::Error so callers can catch the whole
// family; subclasses distinguish configuration, shape, I/O and numerical
// failures for targeted handling in tests and tools.
#pragma once

#include <stdexcept>
#include <string>

namespace odonn {

/// Root of the odonn exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid user-supplied configuration (bad option value, missing key, ...).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error("config: " + what) {}
};

/// Dimension / shape mismatch between tensors, fields or masks.
class ShapeError : public Error {
 public:
  explicit ShapeError(const std::string& what) : Error("shape: " + what) {}
};

/// File-format or filesystem failure (IDX parsing, image writing, ...).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error("io: " + what) {}
};

/// Numerical breakdown (non-finite loss, divergent optimizer, ...).
class NumericsError : public Error {
 public:
  explicit NumericsError(const std::string& what) : Error("numerics: " + what) {}
};

/// Admission-control rejection: the serving queue is at its depth bound.
/// Retryable by the caller — the typed class lets load generators and
/// clients distinguish overload from real failures.
class OverloadError : public Error {
 public:
  explicit OverloadError(const std::string& what)
      : Error("overload: " + what) {}
};

namespace detail {
[[noreturn]] void throw_check_failure(const char* kind, const char* expr,
                                      const char* file, int line,
                                      const std::string& msg);
}  // namespace detail

}  // namespace odonn

/// Precondition check that throws odonn::Error with location info.
#define ODONN_CHECK(cond, msg)                                               \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::odonn::detail::throw_check_failure("check", #cond, __FILE__,         \
                                           __LINE__, (msg));                 \
    }                                                                        \
  } while (false)

/// Shape-specific variant of ODONN_CHECK (throws odonn::ShapeError).
#define ODONN_CHECK_SHAPE(cond, msg)                                         \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::odonn::detail::throw_check_failure("shape", #cond, __FILE__,         \
                                           __LINE__, (msg));                 \
    }                                                                        \
  } while (false)
