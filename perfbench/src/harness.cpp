#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tensor/stats.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  return odonn::percentile_nearest_rank(values, q);
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double time_median(const std::function<void()>& fn, std::size_t min_reps,
                   double min_seconds, std::size_t max_reps,
                   std::size_t* calls) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < max_reps &&
         (samples.size() < min_reps || seconds_since(start) < min_seconds)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  if (calls != nullptr) *calls = samples.size();
  return median(samples);
}

void Report::add(const std::string& name, const std::string& unit,
                 double value, std::size_t samples) {
  metrics_.push_back(Metric{name, unit, value, samples});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

DigestGate::DigestGate(const Options& options, std::uint64_t input_seed)
    : scale_(options.tiny ? "tiny" : "full"),
      input_seed_(input_seed),
      record_(options.record) {
  if (record_) return;
  std::ifstream in(kDigestsPath);
  if (!in) {
    throw std::runtime_error(std::string("cannot read ") + kDigestsPath);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, scale, kind, hex;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> scale >> seed >> kind >> hex)) continue;
    if (scale != scale_ || seed != input_seed_) continue;
    recorded_[workload + " " + kind] = std::stoull(hex, nullptr, 16);
  }
}

bool DigestGate::check(const std::string& workload, const std::string& kind,
                       std::uint64_t digest) {
  const std::string key = workload + " " + kind;
  if (record_) {
    if (!announced_[key]) {
      std::printf("digest %s %s %llu %s %s\n", workload.c_str(),
                  scale_.c_str(),
                  static_cast<unsigned long long>(input_seed_), kind.c_str(),
                  hex64(digest).c_str());
      announced_[key] = true;
    }
    return true;
  }
  const auto it = recorded_.find(key);
  const bool ok = it != recorded_.end() && it->second == digest;
  if (!ok && !announced_[key]) {
    std::printf("digest-mismatch %s %s seed=%llu got=%s want=%s\n",
                workload.c_str(), kind.c_str(),
                static_cast<unsigned long long>(input_seed_),
                hex64(digest).c_str(),
                it == recorded_.end() ? "(none)" : hex64(it->second).c_str());
    announced_[key] = true;
  }
  return ok;
}

std::uint64_t digest_of(const std::vector<double>& values) {
  std::uint64_t hash = odonn::kFnv1aBasis;
  for (const double v : values) hash = odonn::fnv1a_mix(hash, v);
  return hash;
}

double flip_low_bit(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= 1ULL;
  std::memcpy(&value, &bits, sizeof(bits));
  return value;
}

std::string hex64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench
