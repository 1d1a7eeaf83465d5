// Parallel-table bench: the wall-clock effect of running a paper table's
// recipes concurrently (train::TableRunOptions::jobs over
// pipeline::ParallelTableRunner) and PROOF that parallel execution changes
// nothing but the clock.
//
// One table (MNIST stand-in) runs twice at the same scale/seed:
//   sequential  jobs=1  — the classic loop (the bitwise reference)
//   parallel    jobs=J  — J recipes in flight, inner thread budgets split
// Shape checks:
//   * every row bitwise identical between the two runs — metrics AND the
//     FNV digests of trained + 2*pi-smoothed phase bits (always enforced);
//   * recipes really overlap at >= 4 threads: the parallel leg's rows,
//     each timed from its own start to its own end, add up to >= 1.5x
//     the leg's wall-clock; a runner that ran the recipes one at a time
//     reads 1.0x (skipped, like the smoke accuracy checks, when the host
//     lacks 4 hardware threads — thread parallelism cannot beat the clock
//     on a 1-core runner). The wall-clock speedup over the sequential
//     leg is reported but not gated: a recipe's own training slices and
//     2*pi layers keep the whole pool busy, so at smoke scale the two
//     legs take about the same time;
//   * observability leg: the same parallel table with metric detail AND
//     tracing fully on stays bitwise identical (always enforced) and
//     costs <= 2% wall-clock (best of 3 paired runs, to ride out timing
//     noise on small scales).
//
//   ODONN_THREADS=4 ./table_parallel bench.scale=smoke [jobs=4] [grid=]
//                   [samples=] [seed=] [format=]
//
// Emits the established JSON perf-record convention.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/run_main.hpp"
#include "obs/obs.hpp"
#include "train/recipe.hpp"

using namespace odonn;
using Clock = std::chrono::steady_clock;

namespace {

std::vector<train::RecipeResult> timed_table(
    const train::RecipeOptions& opt, const bench::PreparedData& dataset,
    std::size_t jobs, double& seconds) {
  train::TableRunOptions table;
  table.jobs = jobs;
  const Clock::time_point t0 = Clock::now();
  auto rows = train::run_table(opt, dataset.train, dataset.test, table);
  seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return rows;
}

bool rows_bitwise_equal(const std::vector<train::RecipeResult>& a,
                        const std::vector<train::RecipeResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].accuracy != b[i].accuracy ||
        a[i].roughness_before != b[i].roughness_before ||
        a[i].roughness_after != b[i].roughness_after ||
        a[i].deployed_accuracy != b[i].deployed_accuracy ||
        a[i].deployed_accuracy_after_2pi != b[i].deployed_accuracy_after_2pi ||
        a[i].sparsity != b[i].sparsity ||
        bench::phases_digest(a[i].trained_phases) !=
            bench::phases_digest(b[i].trained_phases) ||
        bench::phases_digest(a[i].smoothed_phases) !=
            bench::phases_digest(b[i].smoothed_phases)) {
      return false;
    }
  }
  return true;
}

int run(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  std::vector<std::string> keys = bench::parallel_bench_config_keys();
  keys.emplace_back("format");
  cli.strict(keys);
  const auto cfg = bench::make_bench_config(cli);
  const auto format = bench::parse_format(cli);
  const bool text = format != bench::OutputFormat::Json;
  // jobs= caps concurrency for the parallel leg; defaults to 4 when not
  // given (enough to show the overlap without a huge pool). An explicit
  // jobs=1 is honored — a degenerate but honest seq-vs-seq record.
  const std::size_t jobs = cli.has("jobs") ? cfg.jobs : 4;

  const bench::TableSpec& spec =
      bench::table_spec(data::SyntheticFamily::Digits);
  const auto opt = bench::recipe_options(cfg, spec.paper_block);
  const auto dataset = bench::prepare_dataset(spec.family, cfg);

  if (text) {
    std::printf("=== table_parallel: %s, sequential vs jobs=%zu ===\n",
                spec.id, jobs);
    std::printf("scale=%s grid=%zu samples=%zu seed=%llu threads=%zu\n\n",
                bench::scale_name(cfg.scale), cfg.grid, cfg.samples,
                static_cast<unsigned long long>(cfg.seed), thread_count());
  }

  // Warm up the one-time process state (thread-pool spawn, FFT-plan and
  // encode caches) before either timed leg, so the sequential leg — which
  // runs first — is not charged for it and the speedup stays unbiased.
  (void)train::run_recipe(train::RecipeKind::Baseline, opt, dataset.train,
                          dataset.test);

  double seq_seconds = 0.0;
  const auto seq_rows = timed_table(opt, dataset, 1, seq_seconds);
  double par_seconds = 0.0;
  const auto par_rows = timed_table(opt, dataset, jobs, par_seconds);
  const double speedup = par_seconds > 0.0 ? seq_seconds / par_seconds : 0.0;
  // Mean number of recipes in flight during the parallel leg.
  double par_row_seconds = 0.0;
  for (const auto& row : par_rows) par_row_seconds += row.seconds;
  const double overlap = par_seconds > 0.0 ? par_row_seconds / par_seconds
                                           : 0.0;
  const bool identical = rows_bitwise_equal(seq_rows, par_rows);

  if (text) {
    std::printf("%-10s | %10s | %10s\n", "model", "seq s", "par s");
    for (std::size_t i = 0; i < seq_rows.size(); ++i) {
      std::printf("%-10s | %10.3f | %10.3f\n", seq_rows[i].name.c_str(),
                  seq_rows[i].seconds, par_rows[i].seconds);
    }
    std::printf("\nwall-clock: sequential %.3fs, jobs=%zu %.3fs (speedup "
                "%.2fx, recipes in flight %.2f)\n\n",
                seq_seconds, jobs, par_seconds, speedup, overlap);
  }

  // Observability-overhead leg: the same parallel table with metric
  // detail and tracing fully enabled. Two guarantees under test here:
  // the rows stay bitwise identical (observation never feeds back into
  // the computation) and the wall-clock cost stays <= 2%. Each attempt
  // pairs an instrumented run with a fresh plain baseline and the check
  // keeps the best of up to 3 attempts — single smoke-scale timings are
  // too noisy for a 2% bound.
  double obs_seconds = 0.0;
  double obs_base_seconds = 0.0;
  double obs_overhead = 0.0;
  bool obs_identical = true;
  for (int attempt = 0; attempt < 3; ++attempt) {
    double base = 0.0;
    (void)timed_table(opt, dataset, jobs, base);
    obs::set_detail(true);
    obs::set_tracing(true);
    obs::clear_trace();
    double traced = 0.0;
    const auto traced_rows = timed_table(opt, dataset, jobs, traced);
    obs::set_detail(false);
    obs::set_tracing(false);
    obs_identical = obs_identical && rows_bitwise_equal(seq_rows, traced_rows);
    const double overhead = base > 0.0 ? traced / base - 1.0 : 0.0;
    if (attempt == 0 || overhead < obs_overhead) {
      obs_overhead = overhead;
      obs_seconds = traced;
      obs_base_seconds = base;
    }
    if (obs_overhead <= 0.02) break;
  }

  if (text) {
    std::printf("observability leg: plain %.3fs, instrumented %.3fs "
                "(overhead %+.2f%%)\n\n",
                obs_base_seconds, obs_seconds, 100.0 * obs_overhead);
  }

  // Shape checks (printed in text mode only, so format=json stays one
  // clean JSON document like the odonn_cli benches).
  int failures = 0;
  const auto check = [text](bool pass, const char* description) {
    if (text) return !bench::shape_check(pass, description) ? 1 : 0;
    return pass ? 0 : 1;
  };
  failures += check(identical,
                    "parallel rows bitwise identical to sequential "
                    "(metrics + phase digests)");
  failures += check(obs_identical,
                    "rows bitwise identical with metric detail + tracing on");
  failures += check(obs_overhead <= 0.02,
                    "observability overhead <= 2% on the parallel table "
                    "(best of 3 paired runs)");
  const unsigned hw = std::thread::hardware_concurrency();
  if (jobs >= 2 && hw >= 4 && thread_count() >= 4) {
    failures += check(overlap >= 1.5,
                      "parallel rows' seconds sum to >= 1.5x the parallel "
                      "wall-clock at >= 4 threads (recipes overlap)");
  } else if (text) {
    std::printf("[check] SKIP  overlap check (needs jobs >= 2 and >= 4 "
                "hardware threads; have jobs=%zu, %u hw, pool %zu)\n",
                jobs, hw, thread_count());
  }
  if (text) std::printf("%d shape-check failure(s)\n", failures);

  if (format != bench::OutputFormat::Text) {
    std::string json =
        "{\"bench\": \"table_parallel\", \"scale\": " +
        bench::json_quote(bench::scale_name(cfg.scale)) +
        ", \"grid\": " + std::to_string(cfg.grid) +
        ", \"samples\": " + std::to_string(cfg.samples) +
        ", \"jobs\": " + std::to_string(jobs) +
        ", \"threads\": " + std::to_string(thread_count()) +
        ", \"seq_seconds\": " + bench::json_number(seq_seconds) +
        ", \"par_seconds\": " + bench::json_number(par_seconds) +
        ", \"speedup\": " + bench::json_number(speedup) +
        ", \"overlap\": " + bench::json_number(overlap) +
        ", \"obs_seconds\": " + bench::json_number(obs_seconds) +
        ", \"obs_base_seconds\": " + bench::json_number(obs_base_seconds) +
        ", \"obs_overhead\": " + bench::json_number(obs_overhead) +
        ", \"rows_identical\": " + (identical ? "true" : "false") +
        ", \"obs_rows_identical\": " + (obs_identical ? "true" : "false") +
        ", \"failures\": " + std::to_string(failures) + ", \"rows\": [\n";
    for (std::size_t i = 0; i < par_rows.size(); ++i) {
      json += "  {\"model\": " + bench::json_quote(par_rows[i].name) +
              ", \"train_digest\": " +
              bench::json_quote(
                  bench::hex64(bench::phases_digest(par_rows[i].trained_phases))) +
              ", \"smoothed_digest\": " +
              bench::json_quote(
                  bench::hex64(bench::phases_digest(par_rows[i].smoothed_phases))) +
              "}" + (i + 1 < par_rows.size() ? ",\n" : "\n");
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
