// Reproduces Fig. 6: hyperparameter exploration on the MNIST stand-in.
//   (a) Pareto frontier of accuracy vs roughness across recipe settings
//   (b) sparsification-ratio sweep vs accuracy / roughness
//   (c) roughness-regularization (p) sweep     — paper: inflection at 0.1
//   (d) intra-block regularization (q) sweep   — paper: inflection at log q=1
// Series are printed and also written to bench_out/fig6/*.csv.
// jobs=N trains N sweep points concurrently (train::run_recipes over the
// parallel executor); series are bitwise independent of jobs=.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "bench_common.hpp"
#include "common/run_main.hpp"
#include "io/csv.hpp"

using namespace odonn;

namespace {

struct SweepPoint {
  double x;
  double accuracy;
  double roughness;
};

/// One sweep: `values` variants of `kind`, each with `set(options, value)`
/// applied, run through the parallel executor (jobs= concurrent) and
/// zipped back into SweepPoints keyed by the swept value.
std::vector<SweepPoint> run_sweep(
    train::RecipeKind kind, const train::RecipeOptions& base,
    const std::vector<double>& values,
    const std::function<void(train::RecipeOptions&, double)>& set,
    const data::Dataset& train_set, const data::Dataset& test_set,
    const train::TableRunOptions& table) {
  std::vector<train::RecipeRequest> requests;
  requests.reserve(values.size());
  for (const double value : values) {
    train::RecipeRequest request{kind, base, ""};
    set(request.options, value);
    requests.push_back(std::move(request));
  }
  const auto rows = train::run_recipes(requests, train_set, test_set, table);
  std::vector<SweepPoint> series;
  series.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    series.push_back({values[i], rows[i].accuracy, rows[i].roughness_before});
  }
  return series;
}

void print_series(const char* title, const char* xlabel,
                  const std::vector<SweepPoint>& points,
                  const std::string& csv_path) {
  std::printf("%s\n%12s %12s %12s\n", title, xlabel, "accuracy", "roughness");
  io::CsvWriter csv(csv_path, {xlabel, "accuracy", "roughness"});
  for (const auto& p : points) {
    std::printf("%12.4f %12.4f %12.2f\n", p.x, p.accuracy, p.roughness);
    csv.row(std::vector<double>{p.x, p.accuracy, p.roughness});
  }
  std::printf("\n");
}

int run(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  cli.strict(bench::parallel_bench_config_keys());
  auto cfg = bench::make_bench_config(cli);
  // Sweeps multiply training runs; shrink each run relative to the tables.
  if (cfg.scale == bench::Scale::Default) {
    cfg.samples = std::min<std::size_t>(cfg.samples, 1200);
    cfg.epochs_dense = std::min<std::size_t>(cfg.epochs_dense, 2);
    cfg.epochs_sparse = 1;
  }
  std::printf("=== Fig. 6: hyperparameter exploration (MNIST stand-in, "
              "scale=%s) ===\n\n", bench::scale_name(cfg.scale));
  std::filesystem::create_directories("bench_out/fig6");

  const auto dataset = bench::prepare_dataset(data::SyntheticFamily::Digits, cfg);
  const auto base_opt = bench::recipe_options(cfg, /*paper_block=*/25);

  int failures = 0;

  // Sweep points are independent training runs: jobs= of them execute
  // concurrently through the parallel executor (results are bitwise
  // independent of jobs=, like the tables).
  train::TableRunOptions table;
  table.jobs = cfg.jobs;

  // (b) sparsification ratio sweep (Ours-B style).
  {
    const auto series = run_sweep(
        train::RecipeKind::OursB, base_opt, {0.05, 0.1, 0.2, 0.3, 0.4, 0.5},
        [](train::RecipeOptions& opt, double ratio) {
          opt.scheme.ratio = ratio;
        },
        dataset.train, dataset.test, table);
    print_series("(b) sparsification ratio sweep", "ratio", series,
                 "bench_out/fig6/b_ratio.csv");
    failures += !bench::shape_check(
        series.back().accuracy <= series.front().accuracy + 0.02,
        "(b) accuracy decreases (or holds) as sparsity grows");
  }

  // (c) roughness regularization sweep (Ours-A style).
  std::vector<SweepPoint> series_c;
  {
    series_c = run_sweep(
        train::RecipeKind::OursA, base_opt, {0.001, 0.01, 0.05, 0.1, 0.3, 1.0},
        [](train::RecipeOptions& opt, double p) { opt.roughness_p = p; },
        dataset.train, dataset.test, table);
    print_series("(c) roughness regularization sweep (paper inflection at "
                 "p=0.1)", "p", series_c, "bench_out/fig6/c_roughness_reg.csv");
    failures += !bench::shape_check(
        series_c.back().roughness < series_c.front().roughness,
        "(c) stronger p gives smoother masks");
    failures += !bench::shape_check(
        series_c.back().accuracy < series_c.front().accuracy + 0.02,
        "(c) very strong p costs accuracy");
  }

  // (d) intra-block regularization sweep (roughness+intra style).
  {
    const auto series = run_sweep(
        train::RecipeKind::OursD, base_opt, {0.003, 0.01, 0.03, 0.1, 0.3, 1.0},
        [](train::RecipeOptions& opt, double q) { opt.intra_q = q; },
        dataset.train, dataset.test, table);
    print_series("(d) intra-block regularization sweep (inflection location "
                 "is scale-dependent; paper reports log q=1 at 200x200)",
                 "q", series, "bench_out/fig6/d_intra_reg.csv");
    failures += !bench::shape_check(
        series.back().roughness < series.front().roughness * 1.2,
        "(d) strong q does not blow up roughness");
  }

  // (a) Pareto frontier assembled from all recipe variants + the sweeps.
  {
    std::vector<SweepPoint> cloud;
    const auto rows =
        train::run_table(base_opt, dataset.train, dataset.test, table);
    for (const auto& row : rows) {
      cloud.push_back({0.0, row.accuracy, row.roughness_after});
    }
    for (const auto& p : series_c) cloud.push_back({0.0, p.accuracy, p.roughness});
    // Extract the frontier: sort by roughness, keep accuracy-maximal prefix.
    std::sort(cloud.begin(), cloud.end(),
              [](const SweepPoint& a, const SweepPoint& b) {
                return a.roughness < b.roughness;
              });
    std::printf("(a) accuracy vs roughness cloud and Pareto frontier\n");
    io::CsvWriter csv("bench_out/fig6/a_pareto.csv",
                      {"roughness", "accuracy", "on_frontier"});
    double best_acc = -1.0;
    std::size_t frontier_count = 0;
    for (const auto& p : cloud) {
      const bool on_frontier = p.accuracy > best_acc;
      if (on_frontier) {
        best_acc = p.accuracy;
        ++frontier_count;
        std::printf("  frontier: R=%8.2f acc=%.4f\n", p.roughness, p.accuracy);
      }
      csv.row(std::vector<double>{p.roughness, p.accuracy,
                                  on_frontier ? 1.0 : 0.0});
    }
    failures += !bench::shape_check(frontier_count >= 2,
                                    "(a) frontier shows an accuracy/"
                                    "roughness trade-off");
  }
  std::printf("%d shape-check failure(s)\n", failures);
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
