// Shared scaffolding for the experiment benches: scale selection
// (smoke / default / paper via ODONN_BENCH_SCALE or scale=...), dataset
// preparation, recipe-option construction and paper-vs-measured printing.
//
// Bench output convention: every row prints the paper's reported value next
// to the measured one. Absolute numbers are NOT expected to match (CPU-sized
// grids, synthetic data, reduced epochs — see DESIGN.md §2); the SHAPE
// checks printed at the end of each bench assert the qualitative claims.
// Every table bench additionally emits a machine-readable JSON perf record
// (one JSON document on stdout after the text, the convention every bench
// follows) so later PRs can diff a trajectory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "train/recipe.hpp"

namespace odonn::bench {

enum class Scale { Smoke, Default, Paper };

struct BenchConfig {
  Scale scale = Scale::Default;
  std::size_t grid = 64;
  std::size_t samples = 2400;       ///< total (split 80/20 train/test)
  std::size_t epochs_dense = 4;
  std::size_t epochs_sparse = 2;
  std::size_t epochs_finetune = 1;
  std::size_t batch = 100;
  std::size_t two_pi_iterations = 2500;
  /// Diffractive layers in the stack (defaults to the model default, 3;
  /// layers=5 selects the five-layer recipe axis) and the detector readout
  /// strategy ({1,5} x {standard, differential} are the scenario cells).
  std::size_t layers = donn::DonnConfig{}.num_layers;
  donn::DetectorMode detector = donn::DetectorMode::Standard;
  std::uint64_t seed = 7;
  /// Concurrent recipes per table/sweep (train::TableRunOptions::jobs).
  /// Rows are bitwise independent of this — it only moves wall-clock.
  std::size_t jobs = 1;

  /// Scales a paper block size (given on the 200-grid) to this grid.
  std::size_t scaled_block(std::size_t paper_block) const;
};

/// Reads bench.scale= (or ODONN_BENCH_SCALE), seed=, grid=, samples=,
/// layers=, detector=, jobs=.
BenchConfig make_bench_config(const Config& cfg);

/// from_args + Config::strict(keys) + the above: for the mains whose key
/// list is exactly `keys`.
BenchConfig make_bench_config(int argc, char** argv,
                              const std::vector<std::string>& keys);

/// The keys make_bench_config reads apart from jobs=: bench.scale, grid,
/// samples, layers, detector and seed. Each main passes Config::strict the
/// keys it reads, so one that ignores some of these (layers= and detector=
/// where no model comes from recipe_options) removes them, and one that
/// reads more (format=, its own knobs) appends them.
std::vector<std::string> bench_config_keys();

/// bench_config_keys + jobs= — for the benches that actually route work
/// through train::run_recipes (tables, fig6, table_parallel). Benches
/// that run recipes directly keep REJECTING jobs= rather than silently
/// ignoring it (the Config::strict contract).
std::vector<std::string> parallel_bench_config_keys();

const char* scale_name(Scale scale);

/// Recipe options matching the paper's §IV-A2 setup at this bench scale.
train::RecipeOptions recipe_options(const BenchConfig& cfg,
                                    std::size_t paper_block);

/// Synthesizes + resizes + splits one dataset family.
struct PreparedData {
  data::Dataset train;
  data::Dataset test;
};
PreparedData prepare_dataset(data::SyntheticFamily family,
                             const BenchConfig& cfg);

/// One row of a paper table (dash-able paper_after for Ours-A).
struct PaperRow {
  const char* model;
  double acc;
  double r_before;
  double r_after;  ///< < 0 encodes the paper's "-" cell
};

/// Everything that distinguishes one paper table from another: the four
/// near-identical table{2..5} drivers are this struct plus a main().
struct TableSpec {
  const char* id;     ///< JSON record name, e.g. "table2_mnist"
  const char* title;  ///< human heading, e.g. "Table II: MNIST ..."
  data::SyntheticFamily family;
  std::size_t paper_block;  ///< block size on the paper's 200-grid
  std::vector<PaperRow> paper;
};

/// The paper-table registry (Tables II-V keyed by dataset family).
const TableSpec& table_spec(data::SyntheticFamily family);
const std::vector<TableSpec>& all_table_specs();

enum class OutputFormat { Text, Json, Both };

/// Parses format=text|json|both (default both).
OutputFormat parse_format(const Config& cfg);

/// Runs the five recipes of one paper table (via the pipeline-backed
/// train::run_recipe) and prints the paper-vs-measured table, the shape
/// checks and/or the JSON perf record. Returns the number of failed shape
/// checks.
int run_table_bench(const TableSpec& spec, const BenchConfig& cfg,
                    OutputFormat format = OutputFormat::Both);

/// argv wrapper for the thin bench mains: strict-parses the config
/// (parallel_bench_config_keys + format=) and runs at the requested
/// scale/format. Returns the number of failed shape checks.
int run_table_bench(const TableSpec& spec, int argc, char** argv);

/// Prints "[check] PASS/FAIL description"; returns pass.
bool shape_check(bool pass, const std::string& description);

/// Minimal JSON emit helpers for machine-readable bench output.
/// Locale-independent; non-finite numbers become null.
std::string json_quote(const std::string& text);
std::string json_number(double value);

/// FNV-1a over the IEEE-754 bits of every pixel of every layer (the shared
/// odonn::fnv1a_mix fold): two phase stacks are bitwise identical iff the
/// digests match. What the cross-ODONN_THREADS / cross-jobs= table
/// comparisons in scripts/check.sh diff.
std::uint64_t phases_digest(const std::vector<MatrixD>& phases);

/// 16-hex-digit rendering for JSON digest fields.
std::string hex64(std::uint64_t value);

}  // namespace odonn::bench
