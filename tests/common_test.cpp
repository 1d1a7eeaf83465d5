// Tests for src/common: RNG determinism and distributions, config parsing,
// parallel loops, logging, error machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace odonn {
namespace {

TEST(Error, CheckMacroThrowsWithLocation) {
  try {
    ODONN_CHECK(1 == 2, "numbers disagree");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

TEST(Error, ShapeCheckThrowsShapeError) {
  EXPECT_THROW(ODONN_CHECK_SHAPE(false, "bad shape"), ShapeError);
}

TEST(Error, HierarchyCatchesSubclasses) {
  EXPECT_THROW(throw ConfigError("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw NumericsError("x"), Error);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 5e-3);
  EXPECT_NEAR(var, 1.0 / 12.0, 5e-3);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, GumbelMeanIsEulerGamma) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.gumbel();
  EXPECT_NEAR(sum / n, 0.5772, 0.02);
}

TEST(Rng, FillGumbelMatchesGumbelCalls) {
  Rng batched(19);
  Rng single(19);
  std::vector<double> draws(1001);
  batched.fill_gumbel(draws);
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const double expected = single.gumbel();
    EXPECT_EQ(std::memcmp(&draws[i], &expected, sizeof(double)), 0)
        << "draw " << i;
  }
  EXPECT_EQ(batched.next_u64(), single.next_u64());  // same stream position
}

TEST(Rng, UniformIndexCoversRangeUnbiased) {
  Rng rng(23);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 / 5);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::set<int> seen(v.begin(), v.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(5);
  Rng child = parent.split();
  // The child stream should not reproduce the parent's outputs.
  Rng parent2(5);
  (void)parent2.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Config, ParsesKeyValueArgs) {
  const char* argv[] = {"prog", "grid=64", "--lr=0.5", "name=test"};
  const Config cfg = Config::from_args(4, argv);
  EXPECT_EQ(cfg.get_int("grid", 0), 64);
  EXPECT_DOUBLE_EQ(cfg.get_double("lr", 0.0), 0.5);
  EXPECT_EQ(cfg.get_string("name", ""), "test");
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
}

TEST(Config, RejectsMalformedArgs) {
  const char* argv[] = {"prog", "no-equals"};
  EXPECT_THROW(Config::from_args(2, argv), ConfigError);
}

TEST(Config, RejectsBadTypedValues) {
  const char* argv[] = {"prog", "x=abc"};
  const Config cfg = Config::from_args(2, argv);
  EXPECT_THROW(cfg.get_int("x", 0), ConfigError);
  EXPECT_THROW(cfg.get_double("x", 0.0), ConfigError);
  EXPECT_THROW(cfg.get_bool("x", false), ConfigError);
}

TEST(Config, GetIntRejectsOutOfRangeValues) {
  const char* argv[] = {"prog", "big=99999999999999999999",
                        "small=-99999999999999999999", "neg=-5"};
  const Config cfg = Config::from_args(4, argv);
  EXPECT_THROW(cfg.get_int("big", 0), ConfigError);
  EXPECT_THROW(cfg.get_int("small", 0), ConfigError);
  EXPECT_EQ(cfg.get_int("neg", 0), -5);  // in range: a plain long
}

TEST(Config, GetDoubleRejectsNonFiniteValues) {
  const char* argv[] = {"prog", "a=inf", "b=-inf", "c=nan", "d=1e999",
                        "e=2.5e3"};
  const Config cfg = Config::from_args(6, argv);
  for (const char* key : {"a", "b", "c", "d"}) {
    EXPECT_THROW(cfg.get_double(key, 0.0), ConfigError) << key;
  }
  EXPECT_EQ(cfg.get_double("e", 0.0), 2500.0);
}

TEST(Config, GetCountRejectsNegativeValues) {
  const char* argv[] = {"prog", "samples=48", "zero=0", "neg=-1",
                        "huge=99999999999999999999", "word=many"};
  const Config cfg = Config::from_args(6, argv);
  EXPECT_EQ(cfg.get_count("samples", 7), 48u);
  EXPECT_EQ(cfg.get_count("zero", 7), 0u);
  EXPECT_EQ(cfg.get_count("missing", 7), 7u);
  EXPECT_THROW(cfg.get_count("neg", 7), ConfigError);
  EXPECT_THROW(cfg.get_count("huge", 7), ConfigError);
  EXPECT_THROW(cfg.get_count("word", 7), ConfigError);
}

TEST(Config, ParsesBools) {
  const char* argv[] = {"prog", "a=true", "b=0", "c=YES", "d=off"};
  const Config cfg = Config::from_args(5, argv);
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

TEST(Config, StrictAcceptsKnownAndRejectsUnknownKeys) {
  const char* argv[] = {"prog", "grid=64", "epochs=3"};
  const Config cfg = Config::from_args(3, argv);
  EXPECT_NO_THROW(cfg.strict({"grid", "epochs", "seed"}));
  // A typo'd key must fail fast instead of being silently ignored, and the
  // message must name both the offender and the accepted set.
  try {
    cfg.strict({"grid", "seed"});
    FAIL() << "strict() accepted an unknown key";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("epochs"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("grid"), std::string::npos);
  }
}

TEST(Config, StrictIgnoresEnvironmentOnlyKeys) {
  // strict() validates explicitly-set keys; env-provided values for keys
  // outside the allowed set must not fail a binary that never reads them.
  const Config cfg;
  EXPECT_NO_THROW(cfg.strict({"grid"}));
}

TEST(Config, GetEnumValidatesAgainstAllowedSet) {
  const char* argv[] = {"prog", "format=json", "scale=warp"};
  const Config cfg = Config::from_args(3, argv);
  EXPECT_EQ(cfg.get_enum("format", "text", {"text", "json", "both"}), "json");
  EXPECT_EQ(cfg.get_enum("missing", "both", {"text", "json", "both"}), "both");
  try {
    cfg.get_enum("scale", "default", {"smoke", "default", "paper"});
    FAIL() << "get_enum accepted a value outside the allowed set";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("warp"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("smoke"), std::string::npos);
  }
}

TEST(Parallel, ForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::size_t i) {
                              if (i == 50) throw Error("boom");
                            }),
               Error);
}

TEST(Parallel, NestedCallsRunInline) {
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(Parallel, SetThreadCountSameValueIsNoopAndConflictIsCatchable) {
  // Build the pool at >= 2 workers: request 2 if it is not built yet (on a
  // 1-core host a pool never builds while the budget is 1), then force the
  // build with a fan-out-capable loop.
  try {
    set_thread_count(2);
  } catch (const ConfigError&) {
    // Already built by an earlier test at its own size — equally fine.
  }
  parallel_for(0, 64, [](std::size_t) {});
  const std::size_t current = thread_count();
  ASSERT_GE(current, 2u);

  // Re-stating the current size after the pool exists must be a no-op (the
  // CLI parses threads= after warm-up code may already have fanned out)...
  EXPECT_NO_THROW(set_thread_count(current));
  // ...while a conflicting size is a catchable ConfigError naming both
  // counts, not a bare check failure.
  try {
    set_thread_count(current + 1);
    FAIL() << "conflicting set_thread_count did not throw";
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(std::to_string(current + 1)), std::string::npos);
    EXPECT_NE(what.find(std::to_string(current)), std::string::npos);
  }
  EXPECT_THROW(set_thread_count(0), ConfigError);
}

TEST(Parallel, TasksRunEveryTaskAndNestedLoopsStillFanOut) {
  // After the previous test the pool has >= 2 workers, so this exercises
  // the genuinely concurrent path: 6 tasks, at most 2 in flight, each
  // running an inner parallel_for under its even share of the pool. On a
  // pool of >= 4 workers that share is >= 2 threads, so the inner loops
  // fan out as well.
  static constexpr std::size_t kTasks = 6;
  static constexpr std::size_t kN = 500;
  std::vector<std::vector<int>> hits(kTasks, std::vector<int>(kN, 0));
  std::vector<std::function<void()>> tasks;
  for (std::size_t t = 0; t < kTasks; ++t) {
    tasks.push_back([&hits, t] {
      parallel_for(0, kN, [&hits, t](std::size_t i) { hits[t][i]++; });
    });
  }
  parallel_tasks(std::move(tasks), /*max_concurrent=*/2);
  for (const auto& task_hits : hits) {
    for (const int h : task_hits) EXPECT_EQ(h, 1);
  }
}

TEST(Parallel, TasksSequentialLaneRunsInIndexOrder) {
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < 4; ++t) {
    tasks.push_back([&order, t] { order.push_back(t); });
  }
  parallel_tasks(std::move(tasks), /*max_concurrent=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Parallel, TasksPropagateTheLowestIndexError) {
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw NumericsError("lane exploded"); });
  tasks.push_back([] {});
  try {
    parallel_tasks(std::move(tasks), 2);
    FAIL() << "expected the lane error to propagate to the caller";
  } catch (const NumericsError& error) {
    EXPECT_NE(std::string(error.what()).find("lane exploded"),
              std::string::npos);
  }
}

TEST(Log, ParseLevelAcceptsKnownNames) {
  EXPECT_EQ(log::parse_level("error"), log::Level::Error);
  EXPECT_EQ(log::parse_level("WARN"), log::Level::Warn);
  EXPECT_EQ(log::parse_level("Info"), log::Level::Info);
  EXPECT_EQ(log::parse_level("debug"), log::Level::Debug);
  EXPECT_THROW(log::parse_level("loud"), ConfigError);
}

TEST(Log, SetLevelRoundTrips) {
  const auto old = log::level();
  log::set_level(log::Level::Error);
  EXPECT_EQ(log::level(), log::Level::Error);
  log::set_level(old);
}

}  // namespace
}  // namespace odonn
