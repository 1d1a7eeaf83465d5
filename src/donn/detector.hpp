// Detector plane with per-class readout regions (§III-A, §IV-A1): the class
// whose region accumulates the highest total intensity is the prediction.
// The paper places ten 20x20 regions evenly on a 200x200 plane; the layout
// here generalizes to any class count / grid and scales region placement
// proportionally.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace odonn::donn {

struct DetectorRegion {
  std::size_t r0 = 0, c0 = 0;  ///< top-left corner
  std::size_t size = 0;        ///< square side length
};

class DetectorLayout {
 public:
  /// Arranges `num_classes` square regions of side `region_size` on an
  /// n x n plane in an r x c grid (r*c >= num_classes, r chosen near
  /// sqrt(num_classes)), with centers evenly spaced. Throws ConfigError if
  /// the regions cannot fit without overlapping.
  static DetectorLayout evenly_spaced(std::size_t grid_n,
                                      std::size_t num_classes,
                                      std::size_t region_size);

  /// Custom layout; validates that regions are inside the plane and
  /// pairwise disjoint.
  DetectorLayout(std::size_t grid_n, std::vector<DetectorRegion> regions);

  std::size_t grid_n() const { return grid_n_; }
  std::size_t num_classes() const { return regions_.size(); }
  const std::vector<DetectorRegion>& regions() const { return regions_; }

  /// Per-class intensity sums (the DONN's raw output vector).
  std::vector<double> readout(const MatrixD& intensity) const;

  /// Adjoint of readout: scatters per-class gradients uniformly over their
  /// regions; entries outside any region are zero.
  MatrixD scatter(const std::vector<double>& grad_sums) const;

  /// argmax of readout (ties broken toward the lower class index).
  std::size_t predict(const MatrixD& intensity) const;

 private:
  std::size_t grid_n_;
  std::vector<DetectorRegion> regions_;
};

/// How detector regions map to class scores.
enum class DetectorMode {
  /// One region per class; the score is the region's intensity sum.
  Standard,
  /// Two regions per class (Li et al., arXiv:1906.03417): class k is scored
  /// by the *difference* of a +/- region pair, sums[2k] - sums[2k+1], so
  /// scores are signed and training can push energy away from the minus pad.
  Differential,
};

const char* detector_mode_name(DetectorMode mode);

/// Parses "standard" / "differential"; throws ConfigError otherwise.
DetectorMode parse_detector_mode(const std::string& name);

/// Readout strategy: composes a DetectorLayout with a DetectorMode and maps
/// region intensity sums to per-class scores (and score gradients back to
/// region gradients, the exact adjoint). Standard mode is the identity over
/// the layout and is arithmetically unchanged from reading the layout
/// directly, keeping pre-strategy digests bitwise identical.
class ReadoutStrategy {
 public:
  ReadoutStrategy(DetectorMode mode, DetectorLayout layout);

  /// Builds the evenly spaced layout for `num_classes` classes: one region
  /// per class in Standard mode, a +/- pair (2*num_classes regions, pairs
  /// adjacent in layout order) in Differential mode.
  static ReadoutStrategy evenly_spaced(DetectorMode mode, std::size_t grid_n,
                                       std::size_t num_classes,
                                       std::size_t region_size);

  DetectorMode mode() const { return mode_; }
  const DetectorLayout& layout() const { return layout_; }
  std::size_t num_classes() const { return num_classes_; }
  std::size_t num_regions() const { return layout_.regions().size(); }

  /// Maps per-region intensity sums to per-class scores (identity move in
  /// Standard mode, pair differences in Differential mode).
  std::vector<double> scores_from_region_sums(
      std::vector<double> region_sums) const;

  /// Adjoint of scores_from_region_sums: +g[k] on the plus region, -g[k] on
  /// the minus region (Standard: identity copy).
  std::vector<double> region_grads_from_score_grads(
      const std::vector<double>& score_grads) const;

  /// Per-class scores from an intensity image.
  std::vector<double> readout(const MatrixD& intensity) const;

  /// Adjoint of readout: scatters per-class score gradients to the plane.
  /// DonnModel's backward forms the same factors from the region list
  /// without this plane; the detector tests keep it as the adjoint
  /// reference.
  MatrixD scatter(const std::vector<double>& grad_scores) const;

  /// argmax of readout (ties broken toward the lower class index).
  std::size_t predict(const MatrixD& intensity) const;

 private:
  DetectorMode mode_;
  DetectorLayout layout_;
  std::size_t num_classes_;
};

}  // namespace odonn::donn
