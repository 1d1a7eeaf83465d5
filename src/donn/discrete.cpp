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

}  // namespace odonn::donn
