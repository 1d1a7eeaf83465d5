#include "smooth2pi/gumbel.hpp"

#include <cmath>

#include "common/error.hpp"

namespace odonn::smooth2pi {

double sigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

void gumbel_sigmoid_samples(std::span<const double> theta, double tau,
                            Rng& rng, std::vector<double>& gumbels,
                            std::span<double> soft) {
  ODONN_CHECK(tau > 0.0, "gumbel_sigmoid_samples: tau must be positive");
  ODONN_CHECK_SHAPE(soft.size() == theta.size(),
                    "gumbel_sigmoid_samples: soft and theta differ in size");
  gumbels.resize(2 * theta.size());
  rng.fill_gumbel(gumbels);
  for (std::size_t i = 0; i < theta.size(); ++i) {
    const double noise = gumbels[2 * i] - gumbels[2 * i + 1];  // Logistic(0,1)
    soft[i] = sigmoid((theta[i] + noise) / tau);
  }
}

double anneal_tau(double tau_start, double tau_end, std::size_t step,
                  std::size_t iterations) {
  ODONN_CHECK(tau_start > 0.0 && tau_end > 0.0, "anneal_tau: tau must be > 0");
  if (iterations <= 1) return tau_end;
  const double t = static_cast<double>(step) /
                   static_cast<double>(iterations - 1);
  return tau_start + (tau_end - tau_start) * t;
}

}  // namespace odonn::smooth2pi
