// Gumbel-Softmax / Gumbel-sigmoid relaxation utilities (Jang et al. 2016),
// used by the 2*pi combinatorial smoother (§III-D2). For the binary
// 0-vs-2*pi choice the two-logit softmax reduces to a sigmoid over the
// logit difference with a Logistic(0,1) perturbation (difference of two
// independent Gumbels).
#pragma once

#include <vector>

#include "common/rng.hpp"

namespace odonn::smooth2pi {

/// sigmoid(x) with overflow protection.
double sigmoid(double x);

/// Soft binary Gumbel-Softmax sample: sigmoid((theta + G1 - G2)/tau).
/// G1 - G2 ~ Logistic(0, 1). tau > 0 is the temperature.
double gumbel_sigmoid_sample(double theta, double tau, Rng& rng);

/// Linear temperature annealing from tau_start to tau_end across
/// `iterations` steps (step in [0, iterations-1]).
double anneal_tau(double tau_start, double tau_end, std::size_t step,
                  std::size_t iterations);

}  // namespace odonn::smooth2pi
