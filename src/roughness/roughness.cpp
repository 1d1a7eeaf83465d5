#include "roughness/roughness.hpp"

#include <array>
#include <cmath>

#include "common/error.hpp"

namespace odonn::roughness {

namespace {

struct Offset {
  int dr;
  int dc;
};

constexpr std::array<Offset, 4> kFour = {{{-1, 0}, {0, -1}, {0, 1}, {1, 0}}};
constexpr std::array<Offset, 8> kEight = {{{-1, -1}, {-1, 0}, {-1, 1},
                                           {0, -1}, {0, 1},
                                           {1, -1}, {1, 0}, {1, 1}}};

/// Smoothing inside the gradient's sqrt, so identical neighbors never hit
/// the kink of the norm.
constexpr double kGradEps = 1e-12;

/// R(p)'s divisor 2k (the Fig. 3 normalization, see roughness.hpp).
double divisor(Neighborhood nb) { return static_cast<double>(nb) * 2.0; }

/// Value at (r, c) with one-pixel zero padding outside the mask.
inline double padded(const MatrixD& m, long r, long c) {
  if (r < 0 || c < 0 || r >= static_cast<long>(m.rows()) ||
      c >= static_cast<long>(m.cols())) {
    return 0.0;
  }
  return m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
}

/// Neighbor access around one pixel. On the one-pixel border every read
/// and write is bounds-checked against the zero padding; inside it
/// (Interior) every neighbor exists, so the checks drop out. Either way a
/// neighbor read yields the same value, so per-pixel arithmetic is
/// unchanged.
template <bool Interior>
struct Around {
  const MatrixD& mask;
  long r;
  long c;

  double value(const Offset& o) const {
    if constexpr (Interior) {
      return mask.data()[(r + o.dr) * static_cast<long>(mask.cols()) + c +
                         o.dc];
    } else {
      return padded(mask, r + o.dr, c + o.dc);
    }
  }

  /// The neighbor's gradient cell, or nullptr when it is padding.
  double* grad_cell(MatrixD& grad, const Offset& o) const {
    const long nr = r + o.dr;
    const long nc = c + o.dc;
    if constexpr (!Interior) {
      if (nr < 0 || nc < 0 || nr >= static_cast<long>(mask.rows()) ||
          nc >= static_cast<long>(mask.cols())) {
        return nullptr;
      }
    }
    return grad.data() + nr * static_cast<long>(mask.cols()) + nc;
  }
};

/// Calls fn(Around<interior>) for every pixel in raster order, choosing the
/// unchecked accessor for pixels inside the one-pixel border.
template <typename Fn>
void for_each_pixel(const MatrixD& mask, Fn&& fn) {
  const long rows = static_cast<long>(mask.rows());
  const long cols = static_cast<long>(mask.cols());
  for (long r = 0; r < rows; ++r) {
    if (r == 0 || r == rows - 1 || cols < 3) {
      for (long c = 0; c < cols; ++c) fn(Around<false>{mask, r, c});
      continue;
    }
    fn(Around<false>{mask, r, 0});
    for (long c = 1; c < cols - 1; ++c) fn(Around<true>{mask, r, c});
    fn(Around<false>{mask, r, cols - 1});
  }
}

/// Calls fn with the neighborhood's offset table (a compile-time size, so
/// the neighbor loops unroll).
template <typename Fn>
void with_offsets(Neighborhood nb, Fn&& fn) {
  if (nb == Neighborhood::Four) {
    fn(kFour);
  } else {
    fn(kEight);
  }
}

}  // namespace

MatrixD roughness_map(const MatrixD& mask, const RoughnessOptions& options) {
  ODONN_CHECK(!mask.empty(), "roughness_map: empty mask");
  const double k = divisor(options.neighborhood);
  MatrixD out(mask.rows(), mask.cols());
  with_offsets(options.neighborhood, [&](const auto& offsets) {
    for_each_pixel(mask, [&](const auto& at) {
      const double center = mask(static_cast<std::size_t>(at.r),
                                 static_cast<std::size_t>(at.c));
      double acc = 0.0;
      for (const Offset& o : offsets) {
        const double d = at.value(o) - center;
        acc += d * d;
      }
      out(static_cast<std::size_t>(at.r), static_cast<std::size_t>(at.c)) =
          std::sqrt(acc) / k;
    });
  });
  return out;
}

double mask_roughness(const MatrixD& mask, const RoughnessOptions& options) {
  return roughness_map(mask, options).sum();
}

double roughness_with_grad(const MatrixD& mask, MatrixD& grad, double scale,
                           const RoughnessOptions& options) {
  ODONN_CHECK(!mask.empty(), "roughness_with_grad: empty mask");
  ODONN_CHECK_SHAPE(grad.same_shape(mask),
                    "roughness_with_grad: gradient shape mismatch");
  const double k = divisor(options.neighborhood);
  double total = 0.0;

  // R(p) = (1/k) sqrt(sum_q d_q^2 + eps), d_q = w_q - w_p.
  // dR(p)/dw_p = -(1/k) sum_q d_q / sqrt(.), dR(p)/dw_q = (1/k) d_q / sqrt(.)
  with_offsets(options.neighborhood, [&](const auto& offsets) {
    for_each_pixel(mask, [&](const auto& at) {
      const double center = mask(static_cast<std::size_t>(at.r),
                                 static_cast<std::size_t>(at.c));
      double sum_sq = kGradEps;
      for (const Offset& o : offsets) {
        const double d = at.value(o) - center;
        sum_sq += d * d;
      }
      const double root = std::sqrt(sum_sq);
      total += root / k;
      const double inv = scale / (k * root);
      double center_grad = 0.0;
      for (const Offset& o : offsets) {
        const double d = at.value(o) - center;
        center_grad -= d * inv;
        if (double* cell = at.grad_cell(grad, o)) *cell += d * inv;
      }
      grad(static_cast<std::size_t>(at.r), static_cast<std::size_t>(at.c)) +=
          center_grad;
    });
  });
  return total;
}

}  // namespace odonn::roughness
