#include "donn/discrete.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace odonn::donn {

namespace {

constexpr double kTwoPi = 2.0 * M_PI;

double wrap_value(double v) {
  double w = std::fmod(v, kTwoPi);
  if (w < 0.0) w += kTwoPi;
  return w;
}

void check(const QuantizeOptions& options) {
  ODONN_CHECK(options.levels >= 2, "quantize: need at least 2 levels");
}

}  // namespace

MatrixD quantize_phase(const MatrixD& phase, const QuantizeOptions& options) {
  check(options);
  ODONN_CHECK(!phase.empty(), "quantize_phase: empty mask");
  const double step = kTwoPi / static_cast<double>(options.levels);
  MatrixD out(phase.rows(), phase.cols());
  for (std::size_t i = 0; i < phase.size(); ++i) {
    const double v = wrap_value(phase[i]);
    // Round to the nearest level; level `levels` wraps back to 0.
    long k = std::lround(v / step);
    k %= static_cast<long>(options.levels);
    if (k < 0) k += static_cast<long>(options.levels);
    out[i] = static_cast<double>(k) * step;
  }
  return out;
}

Matrix<std::size_t> quantize_indices(const MatrixD& phase,
                                     const QuantizeOptions& options) {
  check(options);
  const MatrixD q = quantize_phase(phase, options);
  const double step = kTwoPi / static_cast<double>(options.levels);
  Matrix<std::size_t> idx(phase.rows(), phase.cols());
  for (std::size_t i = 0; i < q.size(); ++i) {
    idx[i] = static_cast<std::size_t>(std::lround(q[i] / step)) %
             options.levels;
  }
  return idx;
}

double quantization_error(const MatrixD& phase,
                          const QuantizeOptions& options) {
  check(options);
  ODONN_CHECK(!phase.empty(), "quantization_error: empty mask");
  const MatrixD q = quantize_phase(phase, options);
  double acc = 0.0;
  for (std::size_t i = 0; i < phase.size(); ++i) {
    const double w = wrap_value(phase[i]);
    double d = std::abs(q[i] - w);
    d = std::min(d, kTwoPi - d);  // wrapped distance
    acc += d;
  }
  return acc / static_cast<double>(phase.size());
}

StePhaseQuantizer::StePhaseQuantizer(const QuantizeOptions& options)
    : options_(options) {
  check(options);
}

std::vector<MatrixD> StePhaseQuantizer::forward(
    const std::vector<MatrixD>& latent) const {
  std::vector<MatrixD> out;
  out.reserve(latent.size());
  for (const auto& phi : latent) out.push_back(quantize_phase(phi, options_));
  return out;
}

GumbelLevelSample gumbel_level_sample(const std::vector<MatrixD>& logits,
                                      double tau, Rng& rng, bool stochastic) {
  ODONN_CHECK(logits.size() >= 2, "gumbel_level_sample: need >= 2 levels");
  ODONN_CHECK(tau > 0.0, "gumbel_level_sample: tau must be positive");
  const std::size_t levels = logits.size();
  const std::size_t rows = logits[0].rows();
  const std::size_t cols = logits[0].cols();
  for (const auto& l : logits) {
    ODONN_CHECK_SHAPE(l.rows() == rows && l.cols() == cols,
                      "gumbel_level_sample: logit shape mismatch");
  }

  GumbelLevelSample result;
  result.soft_phase = MatrixD(rows, cols, 0.0);
  result.probs.assign(levels, MatrixD(rows, cols, 0.0));
  const double step = kTwoPi / static_cast<double>(levels);

  std::vector<double> z(levels);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    double peak = -1e300;
    for (std::size_t k = 0; k < levels; ++k) {
      z[k] = logits[k][i] + (stochastic ? rng.gumbel() : 0.0);
      z[k] /= tau;
      peak = std::max(peak, z[k]);
    }
    double total = 0.0;
    for (std::size_t k = 0; k < levels; ++k) {
      z[k] = std::exp(z[k] - peak);
      total += z[k];
    }
    double expectation = 0.0;
    for (std::size_t k = 0; k < levels; ++k) {
      const double p = z[k] / total;
      result.probs[k][i] = p;
      expectation += p * static_cast<double>(k) * step;
    }
    result.soft_phase[i] = expectation;
  }
  return result;
}

}  // namespace odonn::donn
