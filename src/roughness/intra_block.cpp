#include "roughness/intra_block.hpp"

#include "common/error.hpp"

namespace odonn::roughness {

namespace {

struct TileRange {
  std::size_t r0, r1, c0, c1;
  std::size_t count() const { return (r1 - r0) * (c1 - c0); }
};

template <typename Fn>
void for_each_tile(const MatrixD& mask, std::size_t b, Fn&& fn) {
  for (std::size_t r0 = 0; r0 < mask.rows(); r0 += b) {
    const std::size_t r1 = std::min(mask.rows(), r0 + b);
    for (std::size_t c0 = 0; c0 < mask.cols(); c0 += b) {
      const std::size_t c1 = std::min(mask.cols(), c0 + b);
      fn(TileRange{r0, r1, c0, c1});
    }
  }
}

/// Sample variance (denominator m-1) of one tile.
double tile_variance(const MatrixD& mask, const TileRange& t) {
  const double m = static_cast<double>(t.count());
  if (t.count() < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t r = t.r0; r < t.r1; ++r) {
    for (std::size_t c = t.c0; c < t.c1; ++c) sum += mask(r, c);
  }
  const double mu = sum / m;
  double acc = 0.0;
  for (std::size_t r = t.r0; r < t.r1; ++r) {
    for (std::size_t c = t.c0; c < t.c1; ++c) {
      const double d = mask(r, c) - mu;
      acc += d * d;
    }
  }
  return acc / (m - 1.0);
}

void check_options(const MatrixD& mask, const IntraBlockOptions& options) {
  ODONN_CHECK(!mask.empty(), "intra_block: empty mask");
  ODONN_CHECK(options.block_size >= 1, "intra_block: block_size must be >= 1");
}

}  // namespace

MatrixD block_variance_map(const MatrixD& mask,
                           const IntraBlockOptions& options) {
  check_options(mask, options);
  const std::size_t b = options.block_size;
  const std::size_t tr = (mask.rows() + b - 1) / b;
  const std::size_t tc = (mask.cols() + b - 1) / b;
  MatrixD out(tr, tc);
  for_each_tile(mask, b, [&](const TileRange& t) {
    out(t.r0 / b, t.c0 / b) = tile_variance(mask, t);
  });
  return out;
}

double intra_block_variance_sum(const MatrixD& mask,
                                const IntraBlockOptions& options) {
  return block_variance_map(mask, options).sum();
}

double intra_block_variance_mean(const MatrixD& mask,
                                 const IntraBlockOptions& options) {
  const MatrixD map = block_variance_map(mask, options);
  return map.sum() / static_cast<double>(map.size());
}

double intra_block_variance_with_grad(const MatrixD& mask, MatrixD& grad,
                                      double scale,
                                      const IntraBlockOptions& options) {
  check_options(mask, options);
  ODONN_CHECK_SHAPE(grad.same_shape(mask),
                    "intra_block: gradient shape mismatch");
  double total = 0.0;
  for_each_tile(mask, options.block_size, [&](const TileRange& t) {
    const double m = static_cast<double>(t.count());
    if (t.count() < 2) return;
    double sum = 0.0;
    for (std::size_t r = t.r0; r < t.r1; ++r) {
      for (std::size_t c = t.c0; c < t.c1; ++c) sum += mask(r, c);
    }
    const double mu = sum / m;
    const double denom = m - 1.0;
    double acc = 0.0;
    for (std::size_t r = t.r0; r < t.r1; ++r) {
      for (std::size_t c = t.c0; c < t.c1; ++c) {
        const double d = mask(r, c) - mu;
        acc += d * d;
        // dVar/dx_j = 2 (x_j - mu) / denom  (the -mu chain term cancels
        // because sum_j (x_j - mu) = 0).
        grad(r, c) += scale * 2.0 * d / denom;
      }
    }
    total += acc / denom;
  });
  return total;
}

}  // namespace odonn::roughness
