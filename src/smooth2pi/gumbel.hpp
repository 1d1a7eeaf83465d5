// Gumbel-Softmax / Gumbel-sigmoid relaxation utilities (Jang et al. 2016),
// used by the 2*pi combinatorial smoother (§III-D2). For the binary
// 0-vs-2*pi choice the two-logit softmax reduces to a sigmoid over the
// logit difference with a Logistic(0,1) perturbation (difference of two
// independent Gumbels).
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"

namespace odonn::smooth2pi {

/// sigmoid(x) with overflow protection.
double sigmoid(double x);

/// Soft binary Gumbel-Softmax samples for a whole logit array:
/// soft[i] = sigmoid((theta[i] + noise_i) / tau) with noise_i = G[2i] -
/// G[2i+1] ~ Logistic(0, 1), where G are 2 * theta.size() standard Gumbels
/// drawn with rng.fill_gumbel into `gumbels` (caller-owned scratch, resized
/// as needed). soft.size() must equal theta.size(); tau > 0 is the
/// temperature.
void gumbel_sigmoid_samples(std::span<const double> theta, double tau,
                            Rng& rng, std::vector<double>& gumbels,
                            std::span<double> soft);

/// Linear temperature annealing from tau_start to tau_end across
/// `iterations` steps (step in [0, iterations-1]).
double anneal_tau(double tau_start, double tau_end, std::size_t step,
                  std::size_t iterations);

}  // namespace odonn::smooth2pi
