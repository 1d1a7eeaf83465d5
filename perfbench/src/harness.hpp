// Shared pieces of the benchmark driver: options, timers, the metric
// report, operation accounting and the digest gate.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Command-line options (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test: every metric is still emitted, in
  /// seconds instead of minutes. Tiny runs are checked against their own
  /// recorded digests.
  bool tiny = false;
  /// Flips one bit of one output before it reaches the digest gate, so the
  /// self-test can prove the gate fires.
  bool corrupt = false;
  /// Prints every computed digest as a "digest ..." line and accepts it
  /// (how digests.txt is regenerated on a trusted commit).
  bool record = false;
};

/// Recorded digests, relative to the checkout root the driver runs from.
inline constexpr const char* kDigestsPath = "perfbench/digests.txt";

/// Digests are recorded for this many input seeds; --seed n selects input
/// set n mod kRecordedSeeds, so every run is checked against a recorded
/// digest.
inline constexpr std::uint64_t kRecordedSeeds = 8;

/// Median and nearest-rank quantile (the repo-wide rule from tensor/stats).
double median(const std::vector<double>& values);
double quantile(const std::vector<double>& values, double q);
double max_of(const std::vector<double>& values);

/// Calls fn() until it has run at least min_reps times and min_seconds
/// have passed (capped at max_reps); returns the median seconds per call
/// and stores the number of calls in *calls when given.
double time_median(const std::function<void()>& fn, std::size_t min_reps,
                   double min_seconds, std::size_t max_reps = 10000,
                   std::size_t* calls = nullptr);

/// One reported figure: value, unit and how many samples it summarizes.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
};

/// Ordered set of metrics, printed as "metric" lines and as the final JSON
/// object's "metrics" member.
class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value,
           std::size_t samples);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Operations attempted and failed. Failures are rejections, errors and
/// digest mismatches.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Compares output digests against the ones recorded from a trusted
/// commit (digests.txt lines: "<workload> <scale> <input_seed> <kind>
/// <16 hex digits>"). A missing entry is a mismatch.
class DigestGate {
 public:
  DigestGate(const Options& options, std::uint64_t input_seed);

  /// True when `digest` equals the recorded one for (workload, kind).
  bool check(const std::string& workload, const std::string& kind,
             std::uint64_t digest);

 private:
  std::string scale_;
  std::uint64_t input_seed_;
  bool record_;
  std::map<std::string, std::uint64_t> recorded_;
  std::map<std::string, bool> announced_;
};

/// FNV-1a over the bits of every value (odonn::fnv1a_mix).
std::uint64_t digest_of(const std::vector<double>& values);

/// `value` with its lowest mantissa bit flipped (the self-test's
/// deliberately corrupted output).
double flip_low_bit(double value);

std::string hex64(std::uint64_t value);

}  // namespace perfbench
