// Procedural stand-ins for the paper's four datasets (§IV-A1).
//
// Real MNIST/FMNIST/KMNIST/EMNIST are loaded via data/idx.hpp when present;
// in a fully offline environment these generators produce four *distinct*
// 10-class 28x28 grayscale tasks that exercise exactly the same DONN code
// paths (see DESIGN.md §2):
//   * Digits  — stroke-rendered digits 0-9                  (MNIST stand-in)
//   * Fashion — filled apparel silhouettes                  (FMNIST stand-in)
//   * Kana    — cursive multi-stroke glyphs                 (KMNIST stand-in)
//   * Letters — stroke-rendered letters A-J                 (EMNIST stand-in)
// Every sample is drawn with randomized affine jitter (shift / rotation /
// scale), stroke-thickness jitter and additive pixel noise, so classes have
// genuine intra-class variation and the tasks are not trivially separable.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.hpp"

namespace odonn::data {

enum class SyntheticFamily { Digits, Fashion, Kana, Letters };

/// Accepts family names and the paper's dataset names:
/// "digits"/"mnist", "fashion"/"fmnist", "kana"/"kmnist",
/// "letters"/"emnist".
SyntheticFamily parse_family(const std::string& name);
const char* family_name(SyntheticFamily family);

/// Renders a single jittered 28x28 glyph for class `cls` (0-9).
MatrixD render_glyph(SyntheticFamily family, std::size_t cls, Rng& rng);

/// Builds a class-balanced dataset of `count` samples (labels shuffled).
Dataset make_synthetic(SyntheticFamily family, std::size_t count,
                       std::uint64_t seed);

}  // namespace odonn::data
