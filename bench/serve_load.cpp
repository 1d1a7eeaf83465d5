// Serve-cluster load bench: closed- and open-loop load generation against
// ServeCluster, sweeping replica counts and offered QPS.
//
// Two phases:
//   1. Closed loop (saturation): for each replica count 1..replicas=, every
//      request is submitted at once and the cluster drains flat out. Each
//      replica pins inner_threads=1 so the kernel runs inline on the drain
//      thread and REPLICATION is the only scaling lever — what the
//      replicas=2 > replicas=1 check measures on multi-core hosts
//      (self-skipped with a logged reason on small containers, same rule as
//      bench/table_parallel). The replica counts take turns over 5 passes,
//      in reverse order on odd passes, and each reports its median pass,
//      so a drift in host speed hits every count alike.
//   2. Open loop (SLO curve): requests arrive on a fixed schedule at
//      offered rates derived from the measured saturation (0.5x / 0.9x /
//      1.3x), submitted the moment their arrival time passes regardless of
//      completions. Rejections (OverloadError under the bounded queue) are
//      counted, never retried.
//
// Latency percentiles (p50/p99/p999) and the attribution rows come from
// ServeCluster::stats(), which merges the replicas' retained windows under
// the repo-wide nearest-rank rule. Predictions are digested FNV-1a over
// the IEEE-754 bits of every detector sum in submit order; the digest must
// be identical across replica counts (checked here) and across
// ODONN_THREADS (checked by scripts/check.sh).
//
// Emits a JSON perf record after the table:
//   { "bench": "serve_load", "grid": ..., "requests": ..., "threads": ...,
//     "digest": "....", "speedup": ..., "closed": [...], "open": [...] }
//
//   ./serve_load [grid=32] [requests=192] [replicas=2] [max_batch=8]
//                [queue_depth=65536] [continuous=1] [seed=7] [format=both]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "donn/model.hpp"
#include "serve/cluster.hpp"
#include "serve/registry.hpp"
#include "tensor/stats.hpp"

using namespace odonn;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Interleaved closed-loop passes per replica count; saturation is the
/// median pass.
constexpr std::size_t kClosedPasses = 5;

using ClusterSnapshot = serve::ServeCluster::ClusterSnapshot;

std::string json_percentiles(const ClusterSnapshot::AttributionSummary& p) {
  return "{\"p50_ms\": " + bench::json_number(p.p50_ms) +
         ", \"p99_ms\": " + bench::json_number(p.p99_ms) +
         ", \"p999_ms\": " + bench::json_number(p.p999_ms) + "}";
}

/// The end-to-end percentiles and the "attr" object of one row.
std::string json_latency(const ClusterSnapshot& s) {
  return "\"p50_ms\": " + bench::json_number(s.p50_ms) +
         ", \"p99_ms\": " + bench::json_number(s.p99_ms) +
         ", \"p999_ms\": " + bench::json_number(s.p999_ms) +
         ", \"attr\": {\"queue_wait\": " + json_percentiles(s.queue_wait) +
         ", \"batch_wait\": " + json_percentiles(s.batch_wait) +
         ", \"compute\": " + json_percentiles(s.compute) + "}";
}

struct ClosedRow {
  std::size_t replicas = 0;
  double saturation_rps = 0.0;
  ClusterSnapshot stats;
  std::uint64_t digest = kFnv1aBasis;
};

struct OpenRow {
  double offered_qps = 0.0;
  double achieved_rps = 0.0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  ClusterSnapshot stats;
};

std::string json_closed(const ClosedRow& r) {
  return "{\"replicas\": " + std::to_string(r.replicas) +
         ", \"saturation_rps\": " + bench::json_number(r.saturation_rps) +
         ", \"mean_batch\": " + bench::json_number(r.stats.mean_batch_size) +
         ", " + json_latency(r.stats) +
         ", \"digest\": \"" + bench::hex64(r.digest) + "\"}";
}

std::string json_open(const OpenRow& r) {
  return "{\"offered_qps\": " + bench::json_number(r.offered_qps) +
         ", \"achieved_rps\": " + bench::json_number(r.achieved_rps) +
         ", \"submitted\": " + std::to_string(r.submitted) +
         ", \"completed\": " + std::to_string(r.completed) +
         ", \"rejected\": " + std::to_string(r.rejected) + ", " +
         json_latency(r.stats) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  cfg.strict({"grid", "requests", "replicas", "max_batch", "queue_depth",
              "continuous", "seed", "format"});
  const auto format = bench::parse_format(cfg);
  const bool print_text = format != bench::OutputFormat::Json;
  const std::size_t grid = cfg.get_count("grid", 32);
  const std::size_t requests = cfg.get_count("requests", 192);
  const std::size_t max_replicas = cfg.get_count("replicas", 2);
  const std::size_t max_batch = cfg.get_count("max_batch", 8);
  const std::size_t queue_depth = cfg.get_count("queue_depth", 1 << 16);
  const bool continuous = cfg.get_bool("continuous", true);
  const std::uint64_t seed = cfg.get_count("seed", 7);
  ODONN_CHECK(requests >= 1 && max_replicas >= 1, "serve_load: empty sweep");

  donn::DonnConfig config = donn::DonnConfig::scaled(grid);
  config.init = donn::PhaseInit::Uniform;
  Rng rng(seed);
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("served", donn::DonnModel(config, rng));

  const std::vector<optics::Field> inputs =
      bench::random_fields(config.grid, requests, seed);

  const unsigned hw = std::thread::hardware_concurrency();
  if (print_text) {
    std::printf("=== serve_load ===\n");
    std::printf(
        "grid=%zu requests=%zu max_batch=%zu continuous=%d threads=%zu "
        "hardware_threads=%u seed=%llu\n\n",
        grid, requests, max_batch, continuous ? 1 : 0, thread_count(), hw,
        static_cast<unsigned long long>(seed));
  }

  const auto make_options = [&](std::size_t replicas) {
    serve::ClusterOptions options;
    options.replicas = replicas;
    options.continuous = continuous;
    options.engine.max_batch = max_batch;
    options.engine.max_queue = queue_depth;
    // Inline kernels: each replica's drain thread does its own compute, so
    // throughput scales with replica count, not with the inner pool split.
    options.engine.inner_threads = 1;
    return options;
  };

  // ---- phase 1: closed-loop saturation sweep over replica counts ---------
  if (print_text) {
    std::printf("closed loop (saturation)\n");
    std::printf("%8s | %14s | %8s | %8s | %8s | %10s\n", "replicas",
                "saturation_rps", "p50 ms", "p99 ms", "p999 ms", "mean batch");
  }
  // One warmed-up cluster per replica count; the counts take turns, pass by
  // pass, and the latency windows accumulate over every pass.
  std::vector<std::unique_ptr<serve::ServeCluster>> clusters;
  for (std::size_t replicas = 1; replicas <= max_replicas; ++replicas) {
    clusters.push_back(std::make_unique<serve::ServeCluster>(
        registry, make_options(replicas)));
    for (std::size_t k = 0; k < std::min<std::size_t>(16, requests); ++k) {
      clusters.back()->submit("served", inputs[k]).get();  // warm-up
    }
    clusters.back()->reset_stats();
  }
  std::vector<ClosedRow> closed(max_replicas);
  std::vector<std::vector<double>> rates(max_replicas);
  bool passes_agree = true;
  for (std::size_t pass = 0; pass < kClosedPasses; ++pass) {
    for (std::size_t k = 0; k < max_replicas; ++k) {
      // Odd passes run the counts in reverse, so a steady drift in host
      // speed within a pass does not always favour the same count.
      const std::size_t i = pass % 2 == 0 ? k : max_replicas - 1 - k;
      std::vector<std::future<serve::PredictResult>> futures;
      futures.reserve(requests);
      const Clock::time_point start = Clock::now();
      for (const auto& input : inputs) {
        futures.push_back(clusters[i]->submit("served", input));
      }
      std::uint64_t digest = kFnv1aBasis;
      for (auto& future : futures) {
        const serve::PredictResult result = future.get();
        for (const double v : result.detector_sums) {
          digest = fnv1a_mix(digest, v);
        }
      }
      rates[i].push_back(static_cast<double>(requests) / seconds_since(start));
      if (pass == 0) closed[i].digest = digest;
      passes_agree = passes_agree && digest == closed[i].digest;
    }
  }
  for (std::size_t i = 0; i < max_replicas; ++i) {
    ClosedRow& row = closed[i];
    row.replicas = i + 1;
    row.saturation_rps = percentile_nearest_rank(rates[i], 0.5);
    row.stats = clusters[i]->stats();
    if (print_text) {
      std::printf("%8zu | %14.1f | %8.3f | %8.3f | %8.3f | %10.1f\n",
                  row.replicas, row.saturation_rps, row.stats.p50_ms,
                  row.stats.p99_ms, row.stats.p999_ms,
                  row.stats.mean_batch_size);
    }
  }
  clusters.clear();

  int failures = 0;
  bool digests_agree = true;
  for (const ClosedRow& row : closed) {
    digests_agree = digests_agree && row.digest == closed.front().digest;
  }
  failures += !bench::shape_check(
      digests_agree && passes_agree,
      "predictions bitwise identical across replica counts and passes");

  // Replication speedup: needs real cores to mean anything. Same self-skip
  // rule as bench/table_parallel — the 1-core container logs the reason.
  double speedup = 0.0;
  if (closed.size() >= 2 && closed.front().saturation_rps > 0.0) {
    speedup = closed[1].saturation_rps / closed.front().saturation_rps;
  }
  if (closed.size() >= 2 && hw >= 4 && thread_count() >= 4) {
    char label[128];
    std::snprintf(label, sizeof(label),
                  "replicas=2 saturation > replicas=1 (%.2fx; medians of %zu "
                  "interleaved passes)",
                  speedup, kClosedPasses);
    failures += !bench::shape_check(speedup > 1.0, label);
  } else if (print_text) {
    std::printf(
        "[check] SKIP replicas=2 speedup: need replicas>=2 and >=4 hardware "
        "threads (replicas=%zu, hardware=%u, threads=%zu)\n",
        max_replicas, hw, thread_count());
  }

  // ---- phase 2: open-loop QPS sweep at the largest replica count ---------
  const double saturation = closed.back().saturation_rps;
  std::vector<OpenRow> open;
  if (saturation > 0.0) {
    if (print_text) {
      std::printf("\nopen loop (replicas=%zu)\n", max_replicas);
      std::printf("%12s | %12s | %9s | %9s | %8s | %8s | %8s\n", "offered_qps",
                  "achieved_rps", "completed", "rejected", "p50 ms", "p99 ms",
                  "p999 ms");
    }
    serve::ServeCluster cluster(registry, make_options(max_replicas));
    for (const double fraction : {0.5, 0.9, 1.3}) {
      const double offered = saturation * fraction;
      cluster.reset_stats();
      std::vector<std::future<serve::PredictResult>> futures;
      futures.reserve(requests);
      OpenRow row;
      row.offered_qps = offered;
      const auto interarrival = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / offered));
      const Clock::time_point start = Clock::now();
      for (std::size_t k = 0; k < requests; ++k) {
        // Open loop: submit at the scheduled arrival time whether or not
        // earlier requests completed; late arrivals fire immediately.
        std::this_thread::sleep_until(
            start + interarrival * static_cast<std::int64_t>(k));
        ++row.submitted;
        try {
          futures.push_back(cluster.submit("served", inputs[k]));
        } catch (const OverloadError&) {
          ++row.rejected;
        }
      }
      for (auto& future : futures) future.get();
      const double elapsed = seconds_since(start);
      row.completed = futures.size();
      row.achieved_rps = static_cast<double>(row.completed) / elapsed;
      row.stats = cluster.stats();
      if (print_text) {
        std::printf("%12.1f | %12.1f | %9zu | %9zu | %8.3f | %8.3f | %8.3f\n",
                    row.offered_qps, row.achieved_rps, row.completed,
                    row.rejected, row.stats.p50_ms, row.stats.p99_ms,
                    row.stats.p999_ms);
      }
      open.push_back(row);
    }
  }
  bool accounted = true;
  for (const OpenRow& row : open) {
    accounted = accounted && row.completed + row.rejected == row.submitted;
  }
  failures += !bench::shape_check(
      accounted, "open loop: every submitted request completed or rejected");

  if (print_text) std::printf("\n");
  if (format != bench::OutputFormat::Text) {
    std::string json =
        "{\"bench\": \"serve_load\", \"grid\": " + std::to_string(grid) +
        ", \"requests\": " + std::to_string(requests) +
        ", \"max_batch\": " + std::to_string(max_batch) +
        ", \"continuous\": " + (continuous ? "true" : "false") +
        ", \"threads\": " + std::to_string(thread_count()) +
        ", \"hardware_threads\": " + std::to_string(hw) +
        ", \"digest\": \"" + bench::hex64(closed.front().digest) + "\"" +
        ", \"speedup\": " + bench::json_number(speedup) + ",\n \"closed\": [\n";
    for (std::size_t i = 0; i < closed.size(); ++i) {
      json += "  " + json_closed(closed[i]) +
              (i + 1 < closed.size() ? ",\n" : "\n");
    }
    json += " ],\n \"open\": [\n";
    for (std::size_t i = 0; i < open.size(); ++i) {
      json += "  " + json_open(open[i]) + (i + 1 < open.size() ? ",\n" : "\n");
    }
    json += " ]}";
    std::printf("%s\n", json.c_str());
  }
  return failures;
}
