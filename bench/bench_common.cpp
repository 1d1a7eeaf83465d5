#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "data/transform.hpp"
#include "obs/obs.hpp"
#include "tensor/stats.hpp"

namespace odonn::bench {

std::size_t BenchConfig::scaled_block(std::size_t paper_block) const {
  const double scaled = static_cast<double>(paper_block) *
                        static_cast<double>(grid) / 200.0;
  return std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(scaled)));
}

const char* scale_name(Scale scale) {
  switch (scale) {
    case Scale::Smoke: return "smoke";
    case Scale::Default: return "default";
    case Scale::Paper: return "paper";
  }
  return "?";
}

std::vector<std::string> bench_config_keys() {
  return {"bench.scale", "grid", "samples", "layers", "detector", "seed"};
}

std::vector<std::string> parallel_bench_config_keys() {
  std::vector<std::string> keys = bench_config_keys();
  keys.emplace_back("jobs");
  return keys;
}

BenchConfig make_bench_config(const Config& cfg) {
  const std::string scale_str =
      cfg.get_enum("bench.scale", "default", {"smoke", "default", "paper"});

  BenchConfig bc;
  if (scale_str == "smoke") {
    bc.scale = Scale::Smoke;
    bc.grid = 32;
    bc.samples = 400;
    bc.epochs_dense = 1;
    bc.epochs_sparse = 1;
    bc.epochs_finetune = 0;
    bc.batch = 50;
    bc.two_pi_iterations = 2000;
  } else if (scale_str == "paper") {
    bc.scale = Scale::Paper;
    bc.grid = 200;
    bc.samples = 12000;
    bc.epochs_dense = 50;
    bc.epochs_sparse = 10;
    bc.epochs_finetune = 2;
    bc.batch = 200;
    bc.two_pi_iterations = 3000;
  } else {
    bc = BenchConfig{};
  }
  bc.grid = cfg.get_count("grid", bc.grid);
  bc.samples = cfg.get_count("samples", bc.samples);
  const long layers = cfg.get_int("layers", static_cast<long>(bc.layers));
  if (layers < 1 || layers > 64) {
    throw ConfigError("layers must be in [1, 64]");
  }
  bc.layers = static_cast<std::size_t>(layers);
  bc.detector = donn::parse_detector_mode(
      cfg.get_enum("detector", "standard", {"standard", "differential"}));
  bc.seed = cfg.get_count("seed", 7);
  const long jobs = cfg.get_int("jobs", 1);
  if (jobs < 1 || jobs > 64) {
    throw ConfigError("jobs must be in [1, 64]");
  }
  bc.jobs = static_cast<std::size_t>(jobs);
  return bc;
}

BenchConfig make_bench_config(int argc, char** argv,
                              const std::vector<std::string>& keys) {
  const Config cfg = Config::from_args(argc, argv);
  cfg.strict(keys);
  return make_bench_config(cfg);
}

train::RecipeOptions recipe_options(const BenchConfig& cfg,
                                    std::size_t paper_block) {
  train::RecipeOptions opt;
  opt.model = donn::DonnConfig::scaled(cfg.grid);
  opt.model.num_layers = cfg.layers;
  opt.model.detector = cfg.detector;
  opt.epochs_dense = cfg.epochs_dense;
  opt.epochs_sparse = cfg.epochs_sparse;
  opt.epochs_finetune = cfg.epochs_finetune;
  opt.batch_size = cfg.batch;
  opt.lr_dense = 0.2;       // §IV-A2
  opt.lr_sparse = 0.001;    // §IV-A2
  opt.roughness_p = 0.1;    // Fig. 6c inflection (per-pixel normalized)
  opt.intra_q = 0.03;       // Ours-D shape at this scale (see recipe.hpp)
  opt.sparsity_ratio = 0.1; // §IV-A2 sparsification ratio
  opt.block_size = cfg.scaled_block(paper_block);
  opt.two_pi_iterations = cfg.two_pi_iterations;
  opt.seed = cfg.seed;
  return opt;
}

PreparedData prepare_dataset(data::SyntheticFamily family,
                             const BenchConfig& cfg) {
  const auto raw = data::make_synthetic(family, cfg.samples, cfg.seed + 1000);
  const auto resized = data::resize_dataset(raw, cfg.grid);
  Rng rng(cfg.seed + 2000);
  auto [train, test] = resized.split(0.8, rng);
  return {std::move(train), std::move(test)};
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

bool shape_check(bool pass, const std::string& description) {
  std::printf("[check] %s  %s\n", pass ? "PASS" : "FAIL", description.c_str());
  return pass;
}

std::uint64_t phases_digest(const std::vector<MatrixD>& phases) {
  std::uint64_t hash = kFnv1aBasis;
  for (const MatrixD& phase : phases) {
    for (const double value : phase) hash = fnv1a_mix(hash, value);
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// ------------------------------------------------------- table registry

const std::vector<TableSpec>& all_table_specs() {
  // Paper-reported numbers from Tables II-V (accuracy %, R_overall before /
  // after the 2*pi optimization; negative after = the paper's "-" cell).
  static const std::vector<TableSpec> specs = {
      {"table2_mnist", "Table II: MNIST (digit stand-in)",
       data::SyntheticFamily::Digits, 25,
       {{"[5,6,8]", 96.67, 466.39, 460.85}, {"Ours-A", 96.18, 416.07, -1.0},
        {"Ours-B", 96.38, 538.78, 400.38},  {"Ours-C", 96.47, 409.41, 299.87},
        {"Ours-D", 95.90, 375.35, 280.32}}},
      {"table3_fmnist", "Table III: FMNIST (fashion stand-in)",
       data::SyntheticFamily::Fashion, 20,
       {{"[5,6,8]", 87.98, 464.78, 461.98}, {"Ours-A", 86.99, 421.49, -1.0},
        {"Ours-B", 87.88, 488.11, 438.53},  {"Ours-C", 86.79, 350.67, 305.86},
        {"Ours-D", 85.76, 450.73, 229.70}}},
      {"table4_kmnist", "Table IV: KMNIST (kana stand-in)",
       data::SyntheticFamily::Kana, 20,
       {{"[5,6,8]", 86.92, 460.61, 445.57}, {"Ours-A", 85.26, 462.70, -1.0},
        {"Ours-B", 86.83, 473.08, 432.26},  {"Ours-C", 85.01, 396.84, 331.22},
        {"Ours-D", 83.19, 327.48, 288.42}}},
      {"table5_emnist", "Table V: EMNIST (letter stand-in)",
       data::SyntheticFamily::Letters, 20,
       {{"[5,6,8]", 92.30, 463.42, 458.48}, {"Ours-A", 91.61, 435.58, -1.0},
        {"Ours-B", 92.36, 465.85, 443.91},  {"Ours-C", 91.16, 349.61, 336.75},
        {"Ours-D", 90.74, 312.17, 298.09}}}};
  return specs;
}

const TableSpec& table_spec(data::SyntheticFamily family) {
  for (const TableSpec& spec : all_table_specs()) {
    if (spec.family == family) return spec;
  }
  throw ConfigError("no paper table registered for this dataset family");
}

OutputFormat parse_format(const Config& cfg) {
  const std::string format =
      cfg.get_enum("format", "both", {"text", "json", "both"});
  if (format == "text") return OutputFormat::Text;
  if (format == "json") return OutputFormat::Json;
  return OutputFormat::Both;
}

// ------------------------------------------------------- table driver

namespace {

int table_shape_checks(const std::vector<train::RecipeResult>& rows,
                       const BenchConfig& cfg, bool print) {
  // Shape checks: the paper's qualitative claims on this table.
  const auto& base = rows[0];
  const auto& a = rows[1];
  const auto& b = rows[2];
  const auto& c = rows[3];
  const auto& d = rows[4];
  struct Check {
    bool pass;
    const char* description;
  };
  std::vector<Check> checks = {
      {a.roughness_before < base.roughness_before,
       "Ours-A (roughness-aware) smoother than baseline"},
      {b.roughness_after < b.roughness_before,
       "2pi optimization reduces Ours-B roughness"},
      {c.roughness_after < base.roughness_before,
       "Ours-C after 2pi smoother than baseline (paper: 28-36% reduction)"},
      {d.roughness_after <= c.roughness_after * 1.05,
       "Ours-D at least as smooth as Ours-C after 2pi"}};
  if (cfg.scale != Scale::Smoke) {
    // Accuracy-ordering claims need more than the smoke scale's single
    // epoch to be meaningful.
    checks.push_back({base.accuracy - d.accuracy < 0.12,
                      "Ours-D accuracy within a few points of baseline"});
    // Paper: Ours-B accuracy is at or above Ours-A. At this reduced scale
    // the SLR schedule gets 2 epochs + 1 mask-frozen epoch (vs the paper's
    // dozens), which can cost a few points on the harder glyph tasks.
    checks.push_back({b.accuracy >= a.accuracy - 0.08,
                      "sparsified model keeps accuracy vs Ours-A "
                      "(reduced-schedule slack)"});
  } else if (print) {
    std::printf("[check] SKIP  accuracy-ordering checks (smoke scale trains "
                "a single epoch)\n");
  }
  int failures = 0;
  for (const Check& check : checks) {
    if (print) {
      failures += !shape_check(check.pass, check.description);
    } else {
      failures += !check.pass;
    }
  }
  return failures;
}

void print_table_text(const TableSpec& spec, const BenchConfig& cfg,
                      const std::vector<train::RecipeResult>& rows) {
  std::printf("=== %s ===\n", spec.title);
  std::printf("scale=%s grid=%zu samples=%zu layers=%zu detector=%s "
              "epochs=%zu+%zu+%zu block=%zu "
              "(paper block %zu on 200) sparsity=0.1 seed=%llu jobs=%zu\n",
              scale_name(cfg.scale), cfg.grid, cfg.samples, cfg.layers,
              donn::detector_mode_name(cfg.detector), cfg.epochs_dense,
              cfg.epochs_sparse, cfg.epochs_finetune,
              cfg.scaled_block(spec.paper_block), spec.paper_block,
              static_cast<unsigned long long>(cfg.seed), cfg.jobs);
  std::printf("note: measured numbers come from a CPU-sized synthetic rerun; "
              "compare SHAPE, not absolutes (DESIGN.md 2).\n\n");

  std::printf("%-10s | %21s | %25s | %25s\n", "model", "accuracy (%)",
              "R_overall before 2pi", "R_overall after 2pi");
  std::printf("%-10s | %10s %10s | %12s %12s | %12s %12s\n", "", "paper",
              "measured", "paper", "measured", "paper", "measured");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& m = rows[i];
    const auto& p = spec.paper[i];
    char after_paper[32];
    if (p.r_after < 0.0) {
      std::snprintf(after_paper, sizeof(after_paper), "%12s", "-");
    } else {
      std::snprintf(after_paper, sizeof(after_paper), "%12.2f", p.r_after);
    }
    std::printf("%-10s | %10.2f %10.2f | %12.2f %12.2f | %s %12.2f\n",
                p.model, p.acc, 100.0 * m.accuracy, p.r_before,
                m.roughness_before, after_paper, m.roughness_after);
  }
}

void print_table_json(const TableSpec& spec, const BenchConfig& cfg,
                      const std::vector<train::RecipeResult>& rows,
                      int failures, double wall_seconds) {
  // The perf-record convention every bench follows: one JSON document on
  // stdout, suitable for diffing a trajectory across PRs.
  // Each row carries FNV digests of the trained and 2*pi-smoothed phase
  // bits: scripts/check.sh compares them across ODONN_THREADS=1 vs 4 and
  // across jobs=1 vs 4 (the run_recipes determinism contract).
  std::printf("{\"bench\": %s, \"scale\": %s, \"grid\": %zu, "
              "\"samples\": %zu, \"layers\": %zu, \"detector\": %s, "
              "\"seed\": %llu, \"block\": %zu, "
              "\"jobs\": %zu, \"wall_seconds\": %s, "
              "\"failures\": %d,\n",
              json_quote(spec.id).c_str(),
              json_quote(scale_name(cfg.scale)).c_str(), cfg.grid,
              cfg.samples, cfg.layers,
              json_quote(donn::detector_mode_name(cfg.detector)).c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.scaled_block(spec.paper_block), cfg.jobs,
              json_number(wall_seconds).c_str(), failures);
  // Metrics snapshot block: the process-wide registry as of this record
  // (counters accumulate across tables in a dataset=all run). Metric
  // names are dotted, so the digest/accuracy greps in scripts/check.sh
  // never match inside this block.
  std::printf(" \"metrics\": %s,\n \"rows\": [\n",
              obs::MetricsRegistry::global().to_json().c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::printf("  {\"model\": %s, \"accuracy\": %s, "
                "\"roughness_before\": %s, \"roughness_after\": %s, "
                "\"deployed_accuracy\": %s, "
                "\"deployed_accuracy_after_2pi\": %s, \"sparsity\": %s, "
                "\"seconds\": %s, \"train_digest\": %s, "
                "\"smoothed_digest\": %s}%s\n",
                json_quote(r.name).c_str(), json_number(r.accuracy).c_str(),
                json_number(r.roughness_before).c_str(),
                json_number(r.roughness_after).c_str(),
                json_number(r.deployed_accuracy).c_str(),
                json_number(r.deployed_accuracy_after_2pi).c_str(),
                json_number(r.sparsity).c_str(),
                json_number(r.seconds).c_str(),
                json_quote(hex64(phases_digest(r.trained_phases))).c_str(),
                json_quote(hex64(phases_digest(r.smoothed_phases))).c_str(),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("]}\n");
}

}  // namespace

int run_table_bench(const TableSpec& spec, const BenchConfig& cfg,
                    OutputFormat format) {
  const bool text = format != OutputFormat::Json;
  const auto opt = recipe_options(cfg, spec.paper_block);
  const auto dataset = prepare_dataset(spec.family, cfg);

  // The five recipes run through train::run_recipes: jobs= of them in
  // flight, each over its own store. Rows (and their digests) are bitwise
  // identical to jobs=1; only wall_seconds moves.
  train::TableRunOptions table;
  table.jobs = cfg.jobs;
  // Live per-stage progress (debug level so default runs stay quiet):
  // events stream out of the concurrent jobs as they happen — run with
  // ODONN_LOG_LEVEL=debug to watch a parallel table make progress.
  table.progress = [](const train::TableProgress& event) {
    if (event.finished) {
      log::debug() << "[table] " << event.label << "/" << event.stage_name
                   << " done " << std::to_string(event.seconds) << "s";
    } else {
      log::debug() << "[table] " << event.label << "/" << event.stage_name
                   << " start";
    }
  };
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  const std::vector<train::RecipeResult> rows =
      train::run_table(opt, dataset.train, dataset.test, table);
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  if (text) print_table_text(spec, cfg, rows);
  const int failures = table_shape_checks(rows, cfg, text);
  if (text) {
    const auto& base = rows[0];
    const auto& c = rows[3];
    const double reduction = 1.0 - c.roughness_after / base.roughness_before;
    std::printf("\nOurs-C roughness reduction vs baseline: %.1f%% "
                "(paper reports 27-36%% across datasets)\n",
                100.0 * reduction);
    std::printf("deployment emulation: baseline %.2f%% -> %.2f%% deployed; "
                "Ours-C %.2f%% -> %.2f%% (after 2pi)\n",
                100.0 * base.accuracy, 100.0 * base.deployed_accuracy,
                100.0 * c.accuracy, 100.0 * c.deployed_accuracy_after_2pi);
    std::printf("table wall-clock: %.3fs (jobs=%zu, threads=%zu)\n",
                wall_seconds, cfg.jobs, thread_count());
    std::printf("%d shape-check failure(s)\n\n", failures);
  }
  if (format != OutputFormat::Text) {
    print_table_json(spec, cfg, rows, failures, wall_seconds);
  }
  return failures;
}

int run_table_bench(const TableSpec& spec, int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  std::vector<std::string> keys = parallel_bench_config_keys();
  keys.emplace_back("format");
  cfg.strict(keys);
  return run_table_bench(spec, make_bench_config(cfg), parse_format(cfg));
}

}  // namespace odonn::bench
