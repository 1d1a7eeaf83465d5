// Simulated-annealing reference solver for the 2*pi selection problem.
// Slower than Gumbel-Softmax but derivative-free; used by the ablation
// bench and as a third independent check on solution quality (GS and greedy
// should land within a few percent of annealing on DONN-sized masks).
#pragma once

#include <cstdint>

#include "smooth2pi/two_pi_opt.hpp"

namespace odonn::smooth2pi {

struct AnnealOptions {
  std::size_t iterations = 20000;   ///< proposed single-pixel flips
  double t_start = 1.0;             ///< initial temperature (roughness units)
  double t_end = 1e-3;              ///< final temperature (geometric schedule)
  std::uint64_t seed = 0x5ca1e;
  roughness::RoughnessOptions roughness = {};
};

/// Metropolis annealing over per-pixel 0/2*pi flips. Never returns a
/// selection worse than the identity.
TwoPiResult anneal_2pi(const MatrixD& mask, const AnnealOptions& options = {});

}  // namespace odonn::smooth2pi
