// Serve load bench: closed- and open-loop load generation against
// ServeCluster, sweeping replica counts and offered QPS, next to the
// direct-call modes that the cluster is measured against.
//
// Two phases:
//   1. Closed loop (saturation). Every mode answers every request once per
//      pass. The modes take turns over 5 passes, in reverse order on odd
//      passes, and each reports its median pass, so a drift in host speed
//      hits every mode alike. The modes:
//        naive     DonnModel::detector_sums per request from the calling
//                  thread (the pre-serving deployment story; its frame
//                  passes still fan out on the shared pool);
//        batched   serve::BatchedForward::run over windows of b requests,
//                  b in {1, 8, 32, 128}, fanning out over each window's
//                  samples on the shared pool;
//        replicas  a ServeCluster of 1..replicas= replicas, driven by the
//                  closed-loop harness that `odonn_cli serve` also runs
//                  (serve_harness.hpp: every request submitted at once).
//                  Each replica pins inner_threads=1 so the kernel runs
//                  inline on its drain thread and REPLICATION is the only
//                  scaling lever.
//      The direct modes warm up with one untimed pass, the clusters with
//      the harness's one-at-a-time warm-up.
//   2. Open loop (SLO curve): requests arrive on a fixed schedule at
//      offered rates derived from the measured saturation (0.5x / 0.9x /
//      1.3x), submitted the moment their arrival time passes regardless of
//      completions. Rejections (OverloadError under the bounded queue) are
//      counted, never retried.
//
// Gates: every mode, replica count and pass gives the same prediction
// digest (FNV-1a over the IEEE-754 bits of every detector sum in submit
// order; scripts/check.sh also compares it across ODONN_THREADS and with
// `odonn_cli serve`); the best batched mode beats the naive loop; and
// replicas=2 saturation beats replicas=1 (self-skipped with a logged reason
// below 4 hardware threads, same rule as bench/table_parallel).
//
// Every cluster row embeds "stats": the ServeCluster::stats() body that
// GET /snapshot serves (serve::cluster_snapshot_json), whose percentiles
// and attribution merge the replicas' windows under the repo-wide
// nearest-rank rule. A closed-loop cluster's windows accumulate over all
// 5 passes; an open-loop row's cover its own schedule. JSON perf record
// after the table:
//   {"bench": "serve_load", "grid": ..., "requests": ..., "threads": ...,
//    "digest": "....", "speedup": ..., "batched_speedup": ...,
//    "closed": [{"mode": "naive", "rps": ..., "digest": ...},
//               {"mode": "batched", "batch": 8, "rps": ..., ...},
//               {"mode": "replicas", "replicas": 1, "rps": ...,
//                "stats": {...}, "digest": ...}, ...],
//    "open": [{"offered_qps": ..., ..., "stats": {...}}, ...]}
//
//   ./serve_load [grid=32] [requests=192] [replicas=2] [max_batch=8]
//                [queue_depth=65536] [continuous=1] [seed=7] [format=both]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/run_main.hpp"
#include "donn/model.hpp"
#include "serve/batched_forward.hpp"
#include "serve/cluster.hpp"
#include "serve/registry.hpp"
#include "serve_harness.hpp"
#include "tensor/stats.hpp"

using namespace odonn;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Interleaved closed-loop passes per mode; each mode reports its median.
constexpr std::size_t kClosedPasses = 5;

/// Window sizes of the direct batched mode.
constexpr std::size_t kBatchSizes[] = {1, 8, 32, 128};

/// One closed-loop mode: `pass` answers every input once and returns its
/// wall time and digest.
struct ClosedMode {
  std::string label;  ///< table label
  std::string key;    ///< the JSON row's identifying fields
  std::function<bench::Burst()> pass;
  serve::ServeCluster* cluster;  ///< replicas modes only, else null
};

bench::Burst naive_pass(const donn::DonnModel& model,
                        const std::vector<optics::Field>& inputs) {
  const Clock::time_point start = Clock::now();
  bench::Burst burst;
  for (const auto& input : inputs) {
    burst.digest = bench::fold_sums(burst.digest, model.detector_sums(input));
  }
  burst.seconds = seconds_since(start);
  return burst;
}

bench::Burst batched_pass(const serve::BatchedForward& forward,
                          const std::vector<optics::Field>& inputs,
                          std::size_t batch) {
  const Clock::time_point start = Clock::now();
  bench::Burst burst;
  for (std::size_t done = 0; done < inputs.size(); done += batch) {
    const auto first = inputs.begin() + static_cast<std::ptrdiff_t>(done);
    const std::vector<optics::Field> window(
        first, first + static_cast<std::ptrdiff_t>(
                           std::min(batch, inputs.size() - done)));
    for (const auto& sums : forward.run(window).detector_sums) {
      burst.digest = bench::fold_sums(burst.digest, sums);
    }
  }
  burst.seconds = seconds_since(start);
  return burst;
}

struct OpenRow {
  double offered_qps = 0.0;
  double achieved_rps = 0.0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  serve::ServeCluster::ClusterSnapshot stats;
};

int run(int argc, char** argv) {
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
  const auto model = registry->add("served", donn::DonnModel(config, rng));
  const serve::BatchedForward forward(model);

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

  // ---- phase 1: interleaved closed-loop passes over every mode -----------
  std::vector<ClosedMode> modes;
  modes.push_back({"naive", "\"mode\": \"naive\"",
                   [&] { return naive_pass(*model, inputs); }, nullptr});
  for (const std::size_t batch : kBatchSizes) {
    modes.push_back(
        {"batched b=" + std::to_string(batch),
         "\"mode\": \"batched\", \"batch\": " + std::to_string(batch),
         [&, batch] { return batched_pass(forward, inputs, batch); },
         nullptr});
  }
  for (ClosedMode& mode : modes) mode.pass();  // direct modes: warm-up
  const std::size_t first_cluster = modes.size();
  std::vector<std::unique_ptr<serve::ServeCluster>> clusters;
  for (std::size_t replicas = 1; replicas <= max_replicas; ++replicas) {
    clusters.push_back(std::make_unique<serve::ServeCluster>(
        registry, make_options(replicas)));
    serve::ServeCluster* cluster = clusters.back().get();
    bench::warm_up(*cluster, "served", inputs);
    modes.push_back(
        {"replicas=" + std::to_string(replicas),
         "\"mode\": \"replicas\", \"replicas\": " + std::to_string(replicas),
         [cluster, &inputs] {
           return bench::closed_loop_burst(*cluster, "served", inputs);
         },
         cluster});
  }
  std::vector<std::vector<double>> rates(modes.size());
  std::vector<std::uint64_t> digests(modes.size());
  bool digests_agree = true;
  for (std::size_t pass = 0; pass < kClosedPasses; ++pass) {
    for (std::size_t k = 0; k < modes.size(); ++k) {
      // Odd passes run the modes in reverse, so a steady drift in host
      // speed within a pass does not always favour the same mode.
      const std::size_t i = pass % 2 == 0 ? k : modes.size() - 1 - k;
      const bench::Burst burst = modes[i].pass();
      rates[i].push_back(static_cast<double>(requests) / burst.seconds);
      if (pass == 0) digests[i] = burst.digest;
      digests_agree = digests_agree && burst.digest == digests.front();
    }
  }

  if (print_text) {
    std::printf("closed loop (medians of %zu interleaved passes)\n",
                kClosedPasses);
    std::printf("%-13s | %12s | %8s | %8s | %8s | %10s\n", "mode", "rps",
                "p50 ms", "p99 ms", "p999 ms", "mean batch");
  }
  std::vector<double> rps(modes.size());
  std::string closed_json;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ClosedMode& mode = modes[i];
    rps[i] = percentile_nearest_rank(rates[i], 0.5);
    closed_json +=
        "  {" + mode.key + ", \"rps\": " + bench::json_number(rps[i]);
    if (print_text) std::printf("%-13s | %12.1f", mode.label.c_str(), rps[i]);
    if (mode.cluster != nullptr) {
      const auto stats = mode.cluster->stats();
      closed_json += ", \"stats\": " + serve::cluster_snapshot_json(stats);
      if (print_text) {
        std::printf(" | %8.3f | %8.3f | %8.3f | %10.1f", stats.p50_ms,
                    stats.p99_ms, stats.p999_ms, stats.mean_batch_size);
      }
    }
    if (print_text) std::printf("\n");
    closed_json += ", \"digest\": \"" + bench::hex64(digests[i]) + "\"}" +
                   (i + 1 < modes.size() ? ",\n" : "\n");
  }
  const std::uint64_t digest = digests[first_cluster];
  modes.clear();
  clusters.clear();

  int failures = 0;
  failures += !bench::shape_check(
      digests_agree,
      "predictions bitwise identical across modes, replica counts and "
      "passes");

  // Batching: the naive loop and every window run the same per-sample
  // frame runner, so what a window adds is the shared modulation-table
  // snapshot and workspace (detector_sums rebuilds exp(i*phi) and its
  // buffers per call) plus sample parallelism. The gate is only that the
  // best window wins.
  const auto best =
      std::max_element(rps.begin() + 1, rps.begin() + first_cluster);
  const double batched_speedup = rps.front() > 0.0 ? *best / rps.front() : 0.0;
  char label[160];
  std::snprintf(label, sizeof(label),
                "best batched > naive loop (%.2fx: %.1f rps at b=%zu vs "
                "%.1f rps)",
                batched_speedup, *best,
                kBatchSizes[std::distance(rps.begin() + 1, best)],
                rps.front());
  failures += !bench::shape_check(batched_speedup > 1.0, label);

  // Replication speedup: needs real cores to mean anything. Same self-skip
  // rule as bench/table_parallel — the 1-core container logs the reason.
  double speedup = 0.0;
  if (max_replicas >= 2 && rps[first_cluster] > 0.0) {
    speedup = rps[first_cluster + 1] / rps[first_cluster];
  }
  if (max_replicas >= 2 && hw >= 4 && thread_count() >= 4) {
    std::snprintf(label, sizeof(label),
                  "replicas=2 saturation > replicas=1 (%.2fx)", speedup);
    failures += !bench::shape_check(speedup > 1.0, label);
  } else if (print_text) {
    std::printf(
        "[check] SKIP replicas=2 speedup: need replicas>=2 and >=4 hardware "
        "threads (replicas=%zu, hardware=%u, threads=%zu)\n",
        max_replicas, hw, thread_count());
  }

  // ---- phase 2: open-loop QPS sweep at the largest replica count ---------
  const double saturation = rps.back();
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
        ", \"digest\": \"" + bench::hex64(digest) + "\"" +
        ", \"speedup\": " + bench::json_number(speedup) +
        ", \"batched_speedup\": " + bench::json_number(batched_speedup) +
        ",\n \"closed\": [\n" + closed_json + " ],\n \"open\": [\n";
    for (std::size_t i = 0; i < open.size(); ++i) {
      const OpenRow& r = open[i];
      json += "  {\"offered_qps\": " + bench::json_number(r.offered_qps) +
              ", \"achieved_rps\": " + bench::json_number(r.achieved_rps) +
              ", \"submitted\": " + std::to_string(r.submitted) +
              ", \"completed\": " + std::to_string(r.completed) +
              ", \"rejected\": " + std::to_string(r.rejected) +
              ", \"stats\": " + serve::cluster_snapshot_json(r.stats) + "}" +
              (i + 1 < open.size() ? ",\n" : "\n");
    }
    json += " ]}";
    std::printf("%s\n", json.c_str());
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
