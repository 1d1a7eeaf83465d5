// Tests for src/sparsify: the three schemes of Fig. 3, their structural
// guarantees, exact ratios, and failure modes.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparsify/schemes.hpp"
#include "tensor/stats.hpp"

namespace odonn::sparsify {
namespace {

MatrixD random_weights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  MatrixD w(n, n);
  for (auto& v : w) v = rng.uniform(-3.0, 3.0);
  return w;
}

TEST(Mask, RatioAndKeptCount) {
  SparsityMask m = full_mask(4, 4);
  EXPECT_DOUBLE_EQ(sparsity_ratio(m), 0.0);
  EXPECT_EQ(kept_count(m), 16u);
  m(0, 0) = 0;
  m(1, 1) = 0;
  EXPECT_DOUBLE_EQ(sparsity_ratio(m), 2.0 / 16.0);
  EXPECT_EQ(kept_count(m), 14u);
}

TEST(Mask, ApplyZeroesMaskedEntries) {
  MatrixD w(2, 2, 5.0);
  SparsityMask m = full_mask(2, 2);
  m(0, 1) = 0;
  apply_mask(w, m);
  EXPECT_DOUBLE_EQ(w(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(w(0, 0), 5.0);
  MatrixD wrong(3, 3, 1.0);
  EXPECT_THROW(apply_mask(wrong, m), ShapeError);
}

TEST(BlockSparsify, ExactRatioOnDivisibleGrid) {
  const MatrixD w = random_weights(12, 1);
  for (double ratio : {0.0, 0.25, 0.5, 1.0}) {
    const auto mask = block_sparsify(w, {3, ratio});
    EXPECT_NEAR(sparsity_ratio(mask), ratio, 1e-12) << "ratio " << ratio;
  }
}

TEST(BlockSparsify, RemovesSmallestNormBlocks) {
  // Block (0, 0) is tiny.
  const MatrixD w = {{0.01, 0.01, 10.0, 10.0},
                     {0.01, 0.01, 10.0, 10.0},
                     {10.0, 10.0, 10.0, 10.0},
                     {10.0, 10.0, 10.0, 10.0}};
  const auto mask = block_sparsify(w, {2, 0.25});
  EXPECT_EQ(mask(0, 0), 0);
  EXPECT_EQ(mask(1, 1), 0);
  EXPECT_EQ(mask(2, 2), 1);
}

TEST(BlockSparsify, ZeroedAreasAreContiguousBlocks) {
  const MatrixD w = random_weights(12, 2);
  const auto mask = block_sparsify(w, {4, 0.33});
  // Every 4x4 block must be all-zero or all-one.
  for (std::size_t br = 0; br < 3; ++br) {
    for (std::size_t bc = 0; bc < 3; ++bc) {
      const auto first = mask(br * 4, bc * 4);
      for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 4; ++c) {
          EXPECT_EQ(mask(br * 4 + r, bc * 4 + c), first);
        }
      }
    }
  }
}

TEST(BlockSparsify, ThresholdVariant) {
  const MatrixD w = {{1.0, 1.0, 1.0, 1.0},
                     {1.0, 1.0, 1.0, 1.0},
                     {1.0, 1.0, 100.0, 100.0},
                     {1.0, 1.0, 100.0, 100.0}};
  // Block norms: 2.0 for small blocks, 200 for the big one.
  const auto mask = block_sparsify_threshold(w, 2, 3.0);
  EXPECT_EQ(mask(0, 0), 0);
  EXPECT_EQ(mask(3, 3), 1);
}

TEST(BlockSparsify, NormsMatchManualComputation) {
  MatrixD w = {{3.0, 0.0}, {0.0, 4.0}};
  const MatrixD norms = block_l2_norms(w, 2);
  ASSERT_EQ(norms.size(), 1u);
  EXPECT_DOUBLE_EQ(norms(0, 0), 5.0);
}

TEST(BlockSparsify, SelectionMaskValidatesRange) {
  EXPECT_THROW(block_mask_from_selection(6, 6, 2, {{3, 0}}), ShapeError);
  const auto mask = block_mask_from_selection(6, 6, 2, {{0, 0}});
  EXPECT_EQ(mask(0, 0), 0);
  EXPECT_EQ(mask(1, 1), 0);
  EXPECT_EQ(mask(2, 2), 1);
}

TEST(MagnitudeSparsify, ExactRatioAndSmallestRemoved) {
  MatrixD w(4, 4);
  for (std::size_t i = 0; i < 16; ++i) w[i] = static_cast<double>(i) - 8.0;
  const auto mask = magnitude_sparsify(w, {0.25});
  EXPECT_NEAR(sparsity_ratio(mask), 0.25, 1e-12);
  // Values are i-8, so |values| = 8..0..7. The four smallest are 0 (i=8),
  // the two 1s (i=7, i=9) and — by stable tie-break on the two 2s — i=6.
  EXPECT_EQ(mask[6], 0);
  EXPECT_EQ(mask[7], 0);
  EXPECT_EQ(mask[8], 0);
  EXPECT_EQ(mask[9], 0);
  EXPECT_EQ(mask[0], 1);  // -8 survives
}

TEST(MagnitudeSparsify, ThresholdVariantMatchesPercentile) {
  const MatrixD w = random_weights(10, 3);
  const double thr = abs_percentile(w, 30.0);
  const auto by_threshold = magnitude_sparsify_threshold(w, thr);
  // ~30% of entries fall strictly below the 30th |.| percentile.
  const double ratio = sparsity_ratio(by_threshold);
  EXPECT_NEAR(ratio, 0.3, 0.05);
}

TEST(BankBalanced, EveryBankHasIdenticalSparsity) {
  const MatrixD w = random_weights(12, 4);
  const auto mask = bank_balanced_sparsify(w, {4, 0.5});
  for (std::size_t r = 0; r < 12; ++r) {
    for (std::size_t b0 = 0; b0 < 12; b0 += 4) {
      std::size_t zeros = 0;
      for (std::size_t i = 0; i < 4; ++i) {
        if (mask(r, b0 + i) == 0) ++zeros;
      }
      EXPECT_EQ(zeros, 2u) << "row " << r << " bank " << b0;
    }
  }
}

TEST(BankBalanced, RemovesSmallestWithinEachBank) {
  MatrixD w = {{5.0, 0.1, 3.0, 4.0, 0.2, 6.0}};
  const auto mask = bank_balanced_sparsify(w, {3, 1.0 / 3.0});
  EXPECT_EQ(mask(0, 1), 0);  // 0.1 smallest in bank 0
  EXPECT_EQ(mask(0, 4), 0);  // 0.2 smallest in bank 1
  EXPECT_EQ(kept_count(mask), 4u);
}

TEST(BankBalanced, RejectsNonDividingBankSize) {
  const MatrixD w = random_weights(10, 5);
  EXPECT_THROW(bank_balanced_sparsify(w, {3, 0.5}), ShapeError);
}

TEST(Schemes, ParseNamesRoundTrip) {
  EXPECT_EQ(parse_scheme("block"), Scheme::Block);
  EXPECT_EQ(parse_scheme("magnitude"), Scheme::NonStructured);
  EXPECT_EQ(parse_scheme("bank-balanced"), Scheme::BankBalanced);
  EXPECT_THROW(parse_scheme("diagonal"), ConfigError);
  EXPECT_STREQ(scheme_name(Scheme::Block), "block");
}

TEST(Schemes, DispatchProducesRequestedRatio) {
  const MatrixD w = random_weights(12, 6);
  for (Scheme s : {Scheme::Block, Scheme::NonStructured, Scheme::BankBalanced}) {
    SchemeOptions opt;
    opt.scheme = s;
    opt.ratio = 1.0 / 3.0;
    opt.block_size = 2;
    opt.bank_size = 3;
    const auto mask = sparsify(w, opt);
    EXPECT_NEAR(sparsity_ratio(mask), 1.0 / 3.0, 0.02) << scheme_name(s);
  }
}

TEST(Schemes, RatioValidation) {
  const MatrixD w = random_weights(6, 7);
  EXPECT_THROW(block_sparsify(w, {2, -0.1}), Error);
  EXPECT_THROW(block_sparsify(w, {2, 1.1}), Error);
  EXPECT_THROW(magnitude_sparsify(w, {2.0}), Error);
}

TEST(Schemes, DeterministicForSameInput) {
  const MatrixD w = random_weights(12, 8);
  SchemeOptions opt;
  opt.ratio = 0.25;
  opt.block_size = 3;
  EXPECT_EQ(sparsify(w, opt), sparsify(w, opt));
}

}  // namespace
}  // namespace odonn::sparsify
