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

double gumbel_sigmoid_sample(double theta, double tau, Rng& rng) {
  ODONN_CHECK(tau > 0.0, "gumbel_sigmoid_sample: tau must be positive");
  const double noise = rng.gumbel() - rng.gumbel();  // Logistic(0,1)
  return sigmoid((theta + noise) / tau);
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
