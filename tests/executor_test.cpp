// train::run_recipes tests: parallel-vs-sequential bitwise row parity,
// exception propagation from a failing recipe, the jobs >= 1 check and
// live progress streaming from concurrent recipes. The pool is pinned to
// 4 workers at the top of the suite so the concurrent paths are genuinely
// exercised even on a single-core CI runner.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "train/recipe.hpp"

namespace odonn::train {
namespace {

/// Pins the shared pool to 4 workers (no-op when it already runs 4; the
/// pool keeps its size when another suite built it first — the tests only
/// need SOME parallelism, not exactly 4).
void ensure_parallel_pool() {
  try {
    set_thread_count(4);
  } catch (const ConfigError&) {
  }
}

struct TinySetup {
  RecipeOptions options;
  data::Dataset train;
  data::Dataset test;
};

TinySetup tiny_setup(std::uint64_t seed = 133) {
  TinySetup setup;
  setup.options.model = donn::DonnConfig::scaled(20);
  setup.options.model.num_layers = 2;
  setup.options.epochs_dense = 1;
  setup.options.epochs_sparse = 1;
  setup.options.epochs_finetune = 0;
  setup.options.batch_size = 25;
  setup.options.block_size = 4;
  setup.options.two_pi_iterations = 150;
  setup.options.seed = seed;

  const auto full =
      data::make_synthetic(data::SyntheticFamily::Digits, 120, seed + 1);
  const auto resized = data::resize_dataset(full, 20);
  Rng rng(seed + 2);
  auto [train, test] = resized.split(0.75, rng);
  setup.train = std::move(train);
  setup.test = std::move(test);
  return setup;
}

void expect_rows_bit_identical(const std::vector<RecipeResult>& lhs,
                               const std::vector<RecipeResult>& rhs) {
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t r = 0; r < lhs.size(); ++r) {
    EXPECT_EQ(lhs[r].name, rhs[r].name);
    EXPECT_EQ(lhs[r].accuracy, rhs[r].accuracy) << lhs[r].name;
    EXPECT_EQ(lhs[r].roughness_before, rhs[r].roughness_before) << lhs[r].name;
    EXPECT_EQ(lhs[r].roughness_after, rhs[r].roughness_after) << lhs[r].name;
    EXPECT_EQ(lhs[r].deployed_accuracy, rhs[r].deployed_accuracy);
    EXPECT_EQ(lhs[r].deployed_accuracy_after_2pi,
              rhs[r].deployed_accuracy_after_2pi);
    EXPECT_EQ(lhs[r].sparsity, rhs[r].sparsity);
    ASSERT_EQ(lhs[r].trained_phases.size(), rhs[r].trained_phases.size());
    for (std::size_t l = 0; l < lhs[r].trained_phases.size(); ++l) {
      EXPECT_EQ(
          max_abs_diff(lhs[r].trained_phases[l], rhs[r].trained_phases[l]),
          0.0);
      EXPECT_EQ(
          max_abs_diff(lhs[r].smoothed_phases[l], rhs[r].smoothed_phases[l]),
          0.0);
    }
  }
}

TEST(ExecutorParity, ParallelTableRowsAreBitwiseIdenticalToSequential) {
  ensure_parallel_pool();
  const TinySetup setup = tiny_setup();
  const std::vector<RecipeRequest> requests = {
      {RecipeKind::Baseline, setup.options, ""},
      {RecipeKind::OursA, setup.options, ""},
      {RecipeKind::OursD, setup.options, ""},
  };
  const auto sequential = run_recipes(requests, setup.train, setup.test, {});
  ASSERT_EQ(sequential.size(), 3u);
  EXPECT_EQ(sequential[0].name, "baseline");
  EXPECT_GT(sequential[0].seconds, 0.0);

  TableRunOptions parallel;
  parallel.jobs = 3;
  const auto concurrent =
      run_recipes(requests, setup.train, setup.test, parallel);
  expect_rows_bit_identical(sequential, concurrent);

  // An uneven thread-budget split (jobs=2 over the 3 requests) reuses
  // lanes for the trailing request — still bitwise identical.
  TableRunOptions two;
  two.jobs = 2;
  expect_rows_bit_identical(
      sequential, run_recipes(requests, setup.train, setup.test, two));
}

TEST(ExecutorFailure, FailingJobPropagatesItsException) {
  ensure_parallel_pool();
  const TinySetup setup = tiny_setup(137);
  // The middle request's model is built for a grid-24 field while the data
  // is grid 20: its train stage fails on the first sample.
  RecipeOptions wrong_grid = setup.options;
  wrong_grid.model = donn::DonnConfig::scaled(24);
  wrong_grid.model.num_layers = 2;
  const std::vector<RecipeRequest> requests = {
      {RecipeKind::Baseline, setup.options, "job0"},
      {RecipeKind::Baseline, wrong_grid, "job1"},
      {RecipeKind::Baseline, setup.options, "job2"},
  };

  // Parallel: the failing recipe's exception reaches the caller once the
  // recipes in flight finished.
  TableRunOptions parallel;
  parallel.jobs = 3;
  EXPECT_THROW(run_recipes(requests, setup.train, setup.test, parallel),
               ShapeError);

  // Sequential path: the same exception type.
  TableRunOptions sequential;
  sequential.jobs = 1;
  EXPECT_THROW(run_recipes(requests, setup.train, setup.test, sequential),
               ShapeError);
}

TEST(ExecutorFailure, ZeroJobsIsRejected) {
  const TinySetup setup = tiny_setup(139);
  TableRunOptions none;
  none.jobs = 0;
  EXPECT_THROW(run_recipes({{RecipeKind::Baseline, setup.options, ""}},
                           setup.train, setup.test, none),
               Error);
}

TEST(ExecutorProgress, StreamsExactlyOneStartAndEndPerStage) {
  ensure_parallel_pool();
  const TinySetup setup = tiny_setup(143);
  const std::vector<std::string> labels = {"job0", "job1", "job2"};
  std::vector<RecipeRequest> requests;
  for (const std::string& label : labels) {
    requests.push_back({RecipeKind::Baseline, setup.options, label});
  }

  // run_recipes serializes sink calls through its own mutex, so a plain
  // vector is safe even with all three recipes in flight.
  std::vector<TableProgress> events;
  TableRunOptions table;
  table.jobs = 3;
  table.progress = [&events](const TableProgress& event) {
    events.push_back(event);
  };
  const auto rows = run_recipes(requests, setup.train, setup.test, table);
  ASSERT_EQ(rows.size(), 3u);

  // Exactly one start and one end per (label, stage), start before end,
  // nothing skipped, and the stage names follow the baseline stage list.
  const std::vector<std::string> stages = {"train", "report", "smooth",
                                           "eval"};
  ASSERT_EQ(events.size(), labels.size() * stages.size() * 2u);
  for (const std::string& label : labels) {
    for (std::size_t stage = 0; stage < stages.size(); ++stage) {
      int starts = 0;
      int ends = 0;
      std::ptrdiff_t start_at = -1;
      std::ptrdiff_t end_at = -1;
      for (std::size_t i = 0; i < events.size(); ++i) {
        const TableProgress& event = events[i];
        if (event.label != label || event.stage != stage) continue;
        EXPECT_EQ(event.stage_name, stages[stage]);
        if (event.finished) {
          ++ends;
          end_at = static_cast<std::ptrdiff_t>(i);
          EXPECT_GE(event.seconds, 0.0);
          EXPECT_FALSE(event.skipped);
        } else {
          ++starts;
          start_at = static_cast<std::ptrdiff_t>(i);
        }
      }
      EXPECT_EQ(starts, 1) << label << " stage " << stage;
      EXPECT_EQ(ends, 1) << label << " stage " << stage;
      EXPECT_LT(start_at, end_at) << label << " stage " << stage;
    }
  }
}

}  // namespace
}  // namespace odonn::train
