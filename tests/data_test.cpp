// Tests for src/data: dataset container, synthetic glyph generators
// (determinism, balance, class separability), IDX round trips and failure
// injection, transforms.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "data/dataset.hpp"
#include "data/idx.hpp"
#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "tensor/stats.hpp"

namespace odonn::data {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Dataset, ConstructionValidates) {
  std::vector<MatrixD> images{MatrixD(4, 4, 0.5)};
  EXPECT_THROW(Dataset(images, {1, 2}, 10), Error);    // count mismatch
  EXPECT_THROW(Dataset(images, {11}, 10), Error);      // label out of range
  std::vector<MatrixD> ragged{MatrixD(4, 4), MatrixD(5, 5)};
  EXPECT_THROW(Dataset(ragged, {0, 1}, 10), ShapeError);
}

TEST(Dataset, SubsetAndHistogram) {
  std::vector<MatrixD> images(6, MatrixD(2, 2, 0.0));
  const Dataset ds(images, {0, 1, 0, 2, 1, 0}, 3);
  const auto hist = ds.class_histogram();
  EXPECT_EQ(hist[0], 3u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 1u);
  const Dataset sub = ds.subset(2, 3);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.label(0), 0u);
  EXPECT_THROW(ds.subset(4, 4), Error);
}

TEST(Dataset, SplitPreservesAllSamples) {
  std::vector<MatrixD> images(10, MatrixD(2, 2, 0.0));
  const Dataset ds(images, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10);
  Rng rng(1);
  const auto [train, test] = ds.split(0.7, rng);
  EXPECT_EQ(train.size(), 7u);
  EXPECT_EQ(test.size(), 3u);
  auto hist = train.class_histogram();
  const auto test_hist = test.class_histogram();
  for (std::size_t c = 0; c < 10; ++c) hist[c] += test_hist[c];
  for (std::size_t c = 0; c < 10; ++c) EXPECT_EQ(hist[c], 1u);
}

class Families : public ::testing::TestWithParam<SyntheticFamily> {};

TEST_P(Families, DeterministicForSameSeed) {
  const auto a = make_synthetic(GetParam(), 30, 42);
  const auto b = make_synthetic(GetParam(), 30, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_LT(max_abs_diff(a.image(i), b.image(i)), 1e-15);
  }
}

TEST_P(Families, ClassBalanced) {
  const auto ds = make_synthetic(GetParam(), 200, 7);
  const auto hist = ds.class_histogram();
  for (std::size_t c = 0; c < 10; ++c) EXPECT_EQ(hist[c], 20u);
}

TEST_P(Families, ImagesAreNormalizedAndNonTrivial) {
  const auto ds = make_synthetic(GetParam(), 20, 9);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto& img = ds.image(i);
    EXPECT_EQ(img.rows(), 28u);
    EXPECT_GE(min_value(img), 0.0);
    EXPECT_LE(max_value(img), 1.0);
    EXPECT_GT(img.sum(), 5.0);          // glyph ink present
    EXPECT_LT(img.sum(), 28.0 * 28.0 * 0.8);  // not saturated
  }
}

TEST_P(Families, IntraClassVariationExists) {
  // Two samples of the same class must differ by their jitter: strokes move
  // by whole pixels (a difference near 1.0), while the pixel noise alone
  // moves no pixel by much more than 0.14.
  Rng rng(11);
  const MatrixD a = render_glyph(GetParam(), 3, rng);
  const MatrixD b = render_glyph(GetParam(), 3, rng);
  EXPECT_GT(max_abs_diff(a, b), 0.5);
}

TEST_P(Families, ClassesAreSeparableByTemplateCorrelation) {
  // Build per-class mean templates; each sample should correlate best with
  // its own class template for a clear majority of samples.
  const auto family = GetParam();
  const auto train = make_synthetic(family, 300, 5);
  std::vector<MatrixD> templates(10, MatrixD(28, 28, 0.0));
  std::vector<std::size_t> counts(10, 0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    templates[train.label(i)] += train.image(i);
    ++counts[train.label(i)];
  }
  for (std::size_t c = 0; c < 10; ++c) {
    templates[c] *= 1.0 / static_cast<double>(counts[c]);
  }
  const auto test = make_synthetic(family, 100, 77);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    double best = -1e300;
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < 10; ++c) {
      double dot = 0.0, norm = 1e-12;
      for (std::size_t p = 0; p < templates[c].size(); ++p) {
        dot += templates[c][p] * test.image(i)[p];
        norm += templates[c][p] * templates[c][p];
      }
      const double score = dot / std::sqrt(norm);
      if (score > best) {
        best = score;
        best_c = c;
      }
    }
    if (best_c == test.label(i)) ++correct;
  }
  // Template correlation is a weak classifier; 60% on a 10-class task is
  // far above the 10% chance floor and confirms the labels carry signal.
  EXPECT_GT(correct, 60u) << family_name(family);
}

INSTANTIATE_TEST_SUITE_P(All, Families,
                         ::testing::Values(SyntheticFamily::Digits,
                                           SyntheticFamily::Fashion,
                                           SyntheticFamily::Kana,
                                           SyntheticFamily::Letters));

TEST(Synthetic, FamiliesAreDistinct) {
  Rng r1(5), r2(5);
  const MatrixD digit = render_glyph(SyntheticFamily::Digits, 0, r1);
  const MatrixD fashion = render_glyph(SyntheticFamily::Fashion, 0, r2);
  EXPECT_GT(max_abs_diff(digit, fashion), 0.5);
}

// The pin below holds the generators' bits: a change to any draw, the
// order the stream is consumed in or a glyph's arithmetic moves it.
TEST(Synthetic, BitsArePinned) {
  std::uint64_t digest = kFnv1aBasis;
  for (const SyntheticFamily family :
       {SyntheticFamily::Digits, SyntheticFamily::Fashion,
        SyntheticFamily::Kana, SyntheticFamily::Letters}) {
    const auto ds = make_synthetic(family, 20, 3);
    for (std::size_t i = 0; i < ds.size(); ++i) {
      digest = fnv1a_mix(digest, static_cast<double>(ds.label(i)));
      for (const double v : ds.image(i)) digest = fnv1a_mix(digest, v);
    }
  }
  EXPECT_EQ(digest, 0xedddd929076eb34cULL) << std::hex << digest;
}

TEST(Synthetic, ParseFamilyAcceptsPaperNames) {
  EXPECT_EQ(parse_family("mnist"), SyntheticFamily::Digits);
  EXPECT_EQ(parse_family("FMNIST"), SyntheticFamily::Fashion);
  EXPECT_EQ(parse_family("kmnist"), SyntheticFamily::Kana);
  EXPECT_EQ(parse_family("emnist"), SyntheticFamily::Letters);
  EXPECT_THROW(parse_family("cifar"), ConfigError);
}

TEST(Synthetic, InvalidClassThrows) {
  Rng rng(1);
  EXPECT_THROW(render_glyph(SyntheticFamily::Digits, 10, rng), Error);
}

TEST(Idx, RoundTripPreservesData) {
  const auto ds = make_synthetic(SyntheticFamily::Digits, 12, 3);
  const auto img_path = temp_path("idx_images.bin");
  const auto lbl_path = temp_path("idx_labels.bin");
  write_idx(ds, img_path, lbl_path);
  const auto loaded = load_idx(img_path, lbl_path);
  ASSERT_EQ(loaded.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(loaded.label(i), ds.label(i));
    // u8 quantization bound.
    EXPECT_LT(max_abs_diff(loaded.image(i), ds.image(i)), 1.0 / 255.0 + 1e-9);
  }
}

TEST(Idx, MissingFileThrowsIoError) {
  EXPECT_THROW(load_idx("/nonexistent/images", "/nonexistent/labels"), IoError);
}

TEST(Idx, BadMagicRejected) {
  const auto img_path = temp_path("bad_magic.bin");
  std::ofstream out(img_path, std::ios::binary);
  const char junk[16] = {0x12, 0x34, 0x56, 0x78, 0, 0, 0, 1, 0, 0, 0, 2,
                         0, 0, 0, 2};
  out.write(junk, sizeof(junk));
  out.close();
  const auto ds = make_synthetic(SyntheticFamily::Digits, 1, 1);
  const auto lbl_path = temp_path("good_labels.bin");
  write_idx(ds, temp_path("good_images.bin"), lbl_path);
  EXPECT_THROW(load_idx(img_path, lbl_path), IoError);
}

TEST(Idx, TruncatedImageDataRejected) {
  const auto ds = make_synthetic(SyntheticFamily::Digits, 4, 2);
  const auto img_path = temp_path("trunc_images.bin");
  const auto lbl_path = temp_path("trunc_labels.bin");
  write_idx(ds, img_path, lbl_path);
  // Chop the images file.
  std::ifstream in(img_path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(img_path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size() / 2));
  out.close();
  EXPECT_THROW(load_idx(img_path, lbl_path), IoError);
}

TEST(Idx, CountMismatchRejected) {
  const auto a = make_synthetic(SyntheticFamily::Digits, 4, 2);
  const auto b = make_synthetic(SyntheticFamily::Digits, 6, 2);
  const auto img_a = temp_path("mismatch_images.bin");
  const auto lbl_a = temp_path("mismatch_labels_a.bin");
  const auto img_b = temp_path("mismatch_images_b.bin");
  const auto lbl_b = temp_path("mismatch_labels_b.bin");
  write_idx(a, img_a, lbl_a);
  write_idx(b, img_b, lbl_b);
  EXPECT_THROW(load_idx(img_a, lbl_b), IoError);
}

/// A hand-written IDX pair whose headers promise more than the files hold.
struct HostileIdxCase {
  const char* name;
  std::uint32_t count, rows, cols;  ///< images header
  std::size_t image_bytes;          ///< payload actually present
  std::uint32_t label_count;        ///< labels header
  std::size_t label_bytes;
  bool blames_labels;  ///< the error must name the labels file, not images
};

void PrintTo(const HostileIdxCase& c, std::ostream* os) { *os << c.name; }

void write_u32_be(std::ofstream& out, std::uint32_t value) {
  const char bytes[4] = {static_cast<char>(value >> 24),
                         static_cast<char>(value >> 16),
                         static_cast<char>(value >> 8),
                         static_cast<char>(value)};
  out.write(bytes, 4);
}

class HostileIdx : public ::testing::TestWithParam<HostileIdxCase> {};

TEST_P(HostileIdx, IsAnIoErrorNamingTheFileBeforeAllocating) {
  // Sizes come from the header, so the loader must check them against the
  // bytes left in each file before allocating: otherwise these headers
  // escape as std::bad_alloc / std::length_error, or reserve gigabytes
  // before a short read reports truncation.
  const HostileIdxCase& c = GetParam();
  const std::string img_path =
      temp_path(std::string("hostile_") + c.name + "_images.bin");
  const std::string lbl_path =
      temp_path(std::string("hostile_") + c.name + "_labels.bin");
  {
    std::ofstream img(img_path, std::ios::binary);
    write_u32_be(img, 0x00000803);
    write_u32_be(img, c.count);
    write_u32_be(img, c.rows);
    write_u32_be(img, c.cols);
    const std::string pixels(c.image_bytes, '\x7f');
    img.write(pixels.data(), static_cast<std::streamsize>(pixels.size()));
    std::ofstream lbl(lbl_path, std::ios::binary);
    write_u32_be(lbl, 0x00000801);
    write_u32_be(lbl, c.label_count);
    const std::string labels(c.label_bytes, '\x01');
    lbl.write(labels.data(), static_cast<std::streamsize>(labels.size()));
  }
  try {
    load_idx(img_path, lbl_path);
    FAIL() << "hostile IDX header accepted";
  } catch (const IoError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(c.blames_labels ? lbl_path : img_path),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("header"), std::string::npos) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Idx, HostileIdx,
    ::testing::Values(
        HostileIdxCase{"huge_count", 0xFFFFFFFFu, 28, 28, 16, 0xFFFFFFFFu, 16,
                       false},
        HostileIdxCase{"huge_shape", 1, 0xFFFFFFFFu, 0xFFFFFFFFu, 16, 1, 1,
                       false},
        HostileIdxCase{"payload_overflows_64_bits", 0xFFFFFFFFu, 0xFFFFFFFFu,
                       0xFFFFFFFFu, 16, 0xFFFFFFFFu, 16, false},
        HostileIdxCase{"large_shape_short_payload", 1, 65536, 65536, 16, 1, 1,
                       false},
        HostileIdxCase{"no_images_huge_shape", 0, 0xFFFFFFFFu, 0xFFFFFFFFu, 0,
                       0, 0, false},
        HostileIdxCase{"short_label_payload", 4, 2, 2, 16, 4, 1, true}),
    [](const ::testing::TestParamInfo<HostileIdxCase>& info) {
      return std::string(info.param.name);
    });

TEST(Transform, AffineIdentityIsExact) {
  Rng rng(4);
  MatrixD img(12, 12);
  for (auto& v : img) v = rng.uniform();
  const MatrixD warped = affine_warp(img, 0.0, 1.0, 0.0, 0.0);
  EXPECT_LT(max_abs_diff(warped, img), 1e-12);
}

TEST(Transform, AffineShiftMovesContent) {
  MatrixD img(12, 12, 0.0);
  img(6, 6) = 1.0;
  const MatrixD shifted = affine_warp(img, 0.0, 1.0, 2.0, 1.0);
  EXPECT_NEAR(shifted(7, 8), 1.0, 1e-9);
  EXPECT_NEAR(shifted(6, 6), 0.0, 1e-9);
}

TEST(Transform, ResizeDatasetChangesShapeOnly) {
  const auto ds = make_synthetic(SyntheticFamily::Digits, 5, 6);
  const auto resized = resize_dataset(ds, 56);
  ASSERT_EQ(resized.size(), ds.size());
  EXPECT_EQ(resized.image(0).rows(), 56u);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(resized.label(i), ds.label(i));
  }
}

}  // namespace
}  // namespace odonn::data
