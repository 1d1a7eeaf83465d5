#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "tensor/stats.hpp"

namespace odonn::obs {

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  double parsed = std::strtod(buffer, nullptr);
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[64];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, value);
    if (std::strtod(candidate, nullptr) == parsed) {
      return candidate;
    }
  }
  return buffer;
}

namespace {

std::string prometheus_name(const std::string& name) {
  std::string out = "odonn_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      buckets_(bucket_bounds().size(), 0) {
  // Reserved, not filled: the pages of a large window are touched by the
  // observations that use them, not when the instrument is built.
  window_.reserve(capacity_);
}

const std::vector<double>& Histogram::bucket_bounds() {
  // Hand-written literals (not computed in a loop) so every bound is an
  // exact short decimal and the le= labels print exactly.
  static const std::vector<double> bounds = {
      0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,  2.5,
      5.0,   10.0,   25.0,  50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
      10000.0};
  return bounds;
}

void Histogram::observe(double value) {
  MutexLock lock(mutex_);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const auto& bounds = bucket_bounds();
  const auto bucket = std::lower_bound(bounds.begin(), bounds.end(), value);
  if (bucket != bounds.end()) {  // above the top bound: +Inf only
    ++buckets_[static_cast<std::size_t>(bucket - bounds.begin())];
  }
  if (window_.size() < capacity_) {
    window_.push_back(value);
  } else {
    window_[next_] = value;
    next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  const Histogram* const self = this;
  return merged({&self, 1});
}

Histogram::Snapshot Histogram::merged(
    std::span<const Histogram* const> parts) {
  std::vector<double> retained;
  Snapshot snap;
  snap.buckets.assign(bucket_bounds().size(), 0);
  for (const Histogram* part : parts) {
    MutexLock lock(part->mutex_);
    if (part->count_ == 0) continue;
    if (snap.count == 0) {
      snap.sum = part->sum_;
      snap.min = part->min_;
      snap.max = part->max_;
    } else {
      snap.sum += part->sum_;
      snap.min = std::min(snap.min, part->min_);
      snap.max = std::max(snap.max, part->max_);
    }
    snap.count += part->count_;
    for (std::size_t i = 0; i < part->buckets_.size(); ++i) {
      snap.buckets[i] += part->buckets_[i];
    }
    retained.insert(retained.end(), part->window_.begin(),
                    part->window_.end());
  }
  if (snap.count == 0) return snap;
  std::partial_sum(snap.buckets.begin(), snap.buckets.end(),
                   snap.buckets.begin());
  std::sort(retained.begin(), retained.end());
  const auto at = [&retained](double q) {
    return retained[odonn::nearest_rank(q, retained.size()) - 1];
  };
  snap.p50 = at(0.50);
  snap.p90 = at(0.90);
  snap.p99 = at(0.99);
  snap.p999 = at(0.999);
  return snap;
}

void Histogram::reset() {
  MutexLock lock(mutex_);
  window_.clear();
  next_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
}

struct MetricsRegistry::Entry {
  enum class Kind { Counter, Gauge, Histogram };

  explicit Entry(Kind k, std::size_t capacity = Histogram::kDefaultCapacity)
      : kind(k) {
    switch (kind) {
      case Kind::Counter:
        counter = std::make_unique<obs::Counter>();
        break;
      case Kind::Gauge:
        gauge = std::make_unique<obs::Gauge>();
        break;
      case Kind::Histogram:
        histogram = std::make_unique<obs::Histogram>(capacity);
        break;
    }
  }

  Kind kind;
  std::unique_ptr<obs::Counter> counter;
  std::unique_ptr<obs::Gauge> gauge;
  std::unique_ptr<obs::Histogram> histogram;
};

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    // Builtin schema: every instrument the codebase wires up, registered
    // eagerly so exports from any entry point carry the full set (a table
    // run's metrics.json still shows the serve/fft counters, zero-valued).
    r->counter("serve.requests");
    r->counter("serve.batches");
    r->counter("serve.errors");
    r->counter("serve.admitted");
    r->counter("serve.rejected");
    r->histogram("serve.latency_ms");
    r->histogram("serve.batch_size");
    r->gauge("serve.queue_depth");
    // Per-request latency attribution: submit->dequeue (admission queue),
    // dequeue->kernel (batch formation), kernel->done (compute). Summed
    // they equal the end-to-end serve.latency_ms sample for that request.
    r->histogram("serve.attr.queue_wait_ms");
    r->histogram("serve.attr.batch_wait_ms");
    r->histogram("serve.attr.compute_ms");
    r->counter("obs.http.requests");
    r->counter("obs.http.errors");
    r->counter("fft.plan_cache.hits");
    r->counter("fft.plan_cache.misses");
    r->gauge("fft.plan_cache.lengths");
    r->counter("optics.propagations");
    r->counter("train.epochs");
    r->counter("train.robust_realizations");
    r->histogram("train.grad_slice_ms");
    r->counter("fab.realizations");
    r->histogram("fab.realization_ms");
    r->counter("pipeline.stages_run");
    r->counter("pipeline.jobs_run");
    r->counter("pipeline.progress_events");
    r->counter("parallel.tasks");
    r->histogram("parallel.queue_wait_us.depth1");
    r->histogram("parallel.queue_wait_us.depth2");
    r->histogram("parallel.queue_wait_us.depth3");
    r->histogram("parallel.queue_wait_us.depth4");
    return r;
  }();
  return *registry;
}

MetricsRegistry::MetricsRegistry() = default;

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_
             .emplace(name, std::make_unique<Entry>(Entry::Kind::Counter))
             .first;
  } else if (it->second->kind != Entry::Kind::Counter) {
    throw ConfigError("metric '" + name +
                      "' already registered as a different kind");
  }
  return *it->second->counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(name, std::make_unique<Entry>(Entry::Kind::Gauge))
             .first;
  } else if (it->second->kind != Entry::Kind::Gauge) {
    throw ConfigError("metric '" + name +
                      "' already registered as a different kind");
  }
  return *it->second->gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::size_t capacity) {
  MutexLock lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_
             .emplace(name,
                      std::make_unique<Entry>(Entry::Kind::Histogram,
                                              capacity))
             .first;
  } else if (it->second->kind != Entry::Kind::Histogram) {
    throw ConfigError("metric '" + name +
                      "' already registered as a different kind");
  }
  return *it->second->histogram;
}

std::vector<std::string> MetricsRegistry::names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    (void)entry;
    out.push_back(name);
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  // Snapshot entry pointers under the lock, format outside it: instruments
  // are node-stable and internally synchronized, and Histogram::snapshot()
  // takes its own mutex.
  std::vector<std::pair<std::string, const Entry*>> items;
  {
    MutexLock lock(mutex_);
    items.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      items.emplace_back(name, entry.get());
    }
  }
  std::ostringstream counters;
  std::ostringstream gauges;
  std::ostringstream histograms;
  bool first_counter = true;
  bool first_gauge = true;
  bool first_histogram = true;
  for (const auto& [name, entry] : items) {
    switch (entry->kind) {
      case Entry::Kind::Counter:
        counters << (first_counter ? "" : ", ") << "\"" << name
                 << "\": " << entry->counter->value();
        first_counter = false;
        break;
      case Entry::Kind::Gauge:
        gauges << (first_gauge ? "" : ", ") << "\"" << name
               << "\": {\"value\": " << entry->gauge->value()
               << ", \"max\": " << entry->gauge->max_value() << "}";
        first_gauge = false;
        break;
      case Entry::Kind::Histogram: {
        const Histogram::Snapshot snap = entry->histogram->snapshot();
        histograms << (first_histogram ? "" : ", ") << "\"" << name
                   << "\": {\"count\": " << snap.count
                   << ", \"sum\": " << format_double(snap.sum)
                   << ", \"min\": " << format_double(snap.min)
                   << ", \"max\": " << format_double(snap.max)
                   << ", \"p50\": " << format_double(snap.p50)
                   << ", \"p90\": " << format_double(snap.p90)
                   << ", \"p99\": " << format_double(snap.p99)
                   << ", \"p999\": " << format_double(snap.p999) << "}";
        first_histogram = false;
        break;
      }
    }
  }
  std::ostringstream out;
  out << "{\"counters\": {" << counters.str() << "}, \"gauges\": {"
      << gauges.str() << "}, \"histograms\": {" << histograms.str() << "}}";
  return out.str();
}

std::string MetricsRegistry::to_text() const {
  std::vector<std::pair<std::string, const Entry*>> items;
  {
    MutexLock lock(mutex_);
    items.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      items.emplace_back(name, entry.get());
    }
  }
  std::ostringstream out;
  for (const auto& [name, entry] : items) {
    const std::string prom = prometheus_name(name);
    // HELP carries the dotted registry name so a scrape can be mapped back
    // to the instrument without undoing the sanitization.
    out << "# HELP " << prom << " odonn metric '" << name << "'\n";
    switch (entry->kind) {
      case Entry::Kind::Counter:
        out << "# TYPE " << prom << " counter\n"
            << prom << " " << entry->counter->value() << "\n";
        break;
      case Entry::Kind::Gauge:
        out << "# TYPE " << prom << " gauge\n"
            << prom << " " << entry->gauge->value() << "\n"
            << prom << "_max " << entry->gauge->max_value() << "\n";
        break;
      case Entry::Kind::Histogram: {
        const Histogram::Snapshot snap = entry->histogram->snapshot();
        out << "# TYPE " << prom << " summary\n"
            << prom << "{quantile=\"0.5\"} " << format_double(snap.p50)
            << "\n"
            << prom << "{quantile=\"0.9\"} " << format_double(snap.p90)
            << "\n"
            << prom << "{quantile=\"0.99\"} " << format_double(snap.p99)
            << "\n"
            << prom << "{quantile=\"0.999\"} " << format_double(snap.p999)
            << "\n"
            << prom << "_sum " << format_double(snap.sum) << "\n"
            << prom << "_count " << snap.count << "\n";
        // Native-histogram companion family: cumulative le= buckets are
        // mergeable across processes, which the quantile summary is not.
        const std::string hist = prom + "_hist";
        const auto& bounds = Histogram::bucket_bounds();
        out << "# HELP " << hist << " odonn metric '" << name
            << "' (native histogram buckets)\n"
            << "# TYPE " << hist << " histogram\n";
        for (std::size_t i = 0; i < bounds.size(); ++i) {
          // Plain decimal (never scientific) for le= labels: "50", not
          // "5e+01" — the Prometheus bucket-label convention.
          char le[32];
          std::snprintf(le, sizeof(le), "%.10g", bounds[i]);
          out << hist << "_bucket{le=\"" << le << "\"} " << snap.buckets[i]
              << "\n";
        }
        out << hist << "_bucket{le=\"+Inf\"} " << snap.count << "\n"
            << hist << "_sum " << format_double(snap.sum) << "\n"
            << hist << "_count " << snap.count << "\n";
        break;
      }
    }
  }
  return out.str();
}

void MetricsRegistry::reset() {
  std::vector<Entry*> items;
  {
    MutexLock lock(mutex_);
    items.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      (void)name;
      items.push_back(entry.get());
    }
  }
  for (Entry* entry : items) {
    switch (entry->kind) {
      case Entry::Kind::Counter:
        entry->counter->reset();
        break;
      case Entry::Kind::Gauge:
        entry->gauge->reset();
        break;
      case Entry::Kind::Histogram:
        entry->histogram->reset();
        break;
    }
  }
}

namespace {

/// -1 = read ODONN_OBS_DETAIL on first use; 0/1 afterwards.
std::atomic<int> g_detail{-1};

}  // namespace

bool detail_enabled() {
  int state = g_detail.load(std::memory_order_relaxed);
  if (state < 0) {
    const char* env = std::getenv("ODONN_OBS_DETAIL");
    state = (env != nullptr && env[0] == '1') ? 1 : 0;
    g_detail.store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void set_detail(bool enabled) {
  g_detail.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace odonn::obs
