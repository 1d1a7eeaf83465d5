#include "smooth2pi/two_pi_opt.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "smooth2pi/gumbel.hpp"

namespace odonn::smooth2pi {

namespace {

constexpr double kTwoPi = 2.0 * M_PI;

/// Roughness of the single pixel (r, c) under the mask's current values,
/// with the usual zero padding. Mirrors roughness_map for one pixel.
double pixel_roughness(const MatrixD& m, long r, long c,
                       const roughness::RoughnessOptions& opt) {
  static const std::array<std::array<int, 2>, 8> kOff = {{{-1, -1}, {-1, 0},
                                                          {-1, 1}, {0, -1},
                                                          {0, 1}, {1, -1},
                                                          {1, 0}, {1, 1}}};
  const bool eight = opt.neighborhood == roughness::Neighborhood::Eight;
  const long rows = static_cast<long>(m.rows());
  const long cols = static_cast<long>(m.cols());
  const double center = m(static_cast<std::size_t>(r),
                          static_cast<std::size_t>(c));
  double acc = 0.0;
  for (const auto& o : kOff) {
    if (!eight && o[0] != 0 && o[1] != 0) continue;  // skip diagonals
    const long nr = r + o[0];
    const long nc = c + o[1];
    const double v = (nr < 0 || nc < 0 || nr >= rows || nc >= cols)
                         ? 0.0
                         : m(static_cast<std::size_t>(nr),
                             static_cast<std::size_t>(nc));
    const double d = v - center;
    acc += d * d;
  }
  const double k = static_cast<double>(opt.neighborhood) * 2.0;
  return std::sqrt(acc) / k;
}

/// Sum of pixel roughness over the 3x3 window around (r, c) — everything a
/// single flip at (r, c) can affect.
double window_roughness(const MatrixD& m, long r, long c,
                        const roughness::RoughnessOptions& opt) {
  const long rows = static_cast<long>(m.rows());
  const long cols = static_cast<long>(m.cols());
  double acc = 0.0;
  for (long dr = -1; dr <= 1; ++dr) {
    for (long dc = -1; dc <= 1; ++dc) {
      const long nr = r + dr;
      const long nc = c + dc;
      if (nr < 0 || nc < 0 || nr >= rows || nc >= cols) continue;
      acc += pixel_roughness(m, nr, nc, opt);
    }
  }
  return acc;
}

TwoPiResult finalize(const MatrixD& original, MatrixU8 selection,
                     const roughness::RoughnessOptions& ropt) {
  TwoPiResult result;
  result.roughness_before = roughness::mask_roughness(original, ropt);
  MatrixD candidate = original;
  std::size_t added = 0;
  for (std::size_t i = 0; i < candidate.size(); ++i) {
    if (selection[i] != 0) {
      candidate[i] += kTwoPi;
      ++added;
    }
  }
  const double after = roughness::mask_roughness(candidate, ropt);
  if (after <= result.roughness_before) {
    result.optimized = std::move(candidate);
    result.selection = std::move(selection);
    result.roughness_after = after;
    result.added_count = added;
  } else {
    // Never return a worse mask than the identity selection.
    result.optimized = original;
    result.selection = MatrixU8(original.rows(), original.cols(), 0);
    result.roughness_after = result.roughness_before;
    result.added_count = 0;
  }
  return result;
}

}  // namespace

TwoPiResult optimize_2pi(const MatrixD& mask, const TwoPiOptions& options) {
  ODONN_CHECK(!mask.empty(), "optimize_2pi: empty mask");
  ODONN_CHECK(options.iterations >= 1, "optimize_2pi: need >= 1 iteration");
  const std::size_t size = mask.size();

  // Warm start: sparsified pixels are exact zeros sitting far below their
  // "high positive" neighbors (§III-D2) — bias their logits toward the
  // +2*pi choice. The hard-decode guard in finalize() keeps the result
  // never worse than identity, and the gradient updates pull back any pixel
  // the bias got wrong.
  MatrixD theta(mask.rows(), mask.cols(), 0.0);
  for (std::size_t i = 0; i < size; ++i) {
    if (mask[i] == 0.0) theta[i] = 2.0;
  }
  MatrixD adam_m(mask.rows(), mask.cols(), 0.0);
  MatrixD adam_v(mask.rows(), mask.cols(), 0.0);
  const double beta1 = 0.9, beta2 = 0.999, adam_eps = 1e-8;
  const double lr = 0.3;  // Adam step size on the selection logits

  Rng rng(options.seed);
  std::vector<double> gumbels;
  MatrixD soft(mask.rows(), mask.cols(), 0.0);
  MatrixD relaxed(mask.rows(), mask.cols(), 0.0);
  MatrixD grad_relaxed(mask.rows(), mask.cols(), 0.0);

  MatrixU8 best_selection(mask.rows(), mask.cols(), 0);
  double best_roughness = roughness::mask_roughness(mask, options.roughness);

  MatrixU8 hard_selection(mask.rows(), mask.cols(), 0);
  MatrixD hard(mask.rows(), mask.cols(), 0.0);
  const auto evaluate_hard = [&]() {
    for (std::size_t i = 0; i < size; ++i) {
      const bool lift = theta[i] > 0.0;
      hard_selection[i] = lift ? 1 : 0;
      hard[i] = lift ? mask[i] + kTwoPi : mask[i];
    }
    const double r = roughness::mask_roughness(hard, options.roughness);
    if (r < best_roughness) {
      best_roughness = r;
      best_selection = hard_selection;
    }
  };

  // Score the warm start itself before any noisy update — on sparsified
  // masks "lift every zero" is already a strong candidate.
  evaluate_hard();

  for (std::size_t it = 0; it < options.iterations; ++it) {
    // Gumbel-Softmax temperature, annealed linearly from 2.0 to 0.2.
    const double tau = anneal_tau(2.0, 0.2, it, options.iterations);

    // Forward: noisy soft selection and relaxed mask.
    gumbel_sigmoid_samples({theta.data(), size}, tau, rng, gumbels,
                           {soft.data(), size});
    for (std::size_t i = 0; i < size; ++i) {
      relaxed[i] = mask[i] + kTwoPi * soft[i];
    }

    // Backward: dR/d(relaxed) -> dR/dtheta via the sigmoid chain.
    grad_relaxed.fill(0.0);
    roughness::roughness_with_grad(relaxed, grad_relaxed, 1.0,
                                   options.roughness);
    const double step_count = static_cast<double>(it + 1);
    const double bc1 = 1.0 - std::pow(beta1, step_count);
    const double bc2 = 1.0 - std::pow(beta2, step_count);
    for (std::size_t i = 0; i < size; ++i) {
      const double g = grad_relaxed[i] * kTwoPi * soft[i] * (1.0 - soft[i]) / tau;
      adam_m[i] = beta1 * adam_m[i] + (1.0 - beta1) * g;
      adam_v[i] = beta2 * adam_v[i] + (1.0 - beta2) * g * g;
      theta[i] -= lr * (adam_m[i] / bc1) /
                  (std::sqrt(adam_v[i] / bc2) + adam_eps);
    }

    if ((it + 1) % 10 == 0 || it + 1 == options.iterations) evaluate_hard();
  }
  return finalize(mask, std::move(best_selection), options.roughness);
}

TwoPiResult greedy_2pi(const MatrixD& mask,
                       const roughness::RoughnessOptions& ropt,
                       std::size_t max_passes) {
  ODONN_CHECK(!mask.empty(), "greedy_2pi: empty mask");
  const long rows = static_cast<long>(mask.rows());
  const long cols = static_cast<long>(mask.cols());

  MatrixD current = mask;
  MatrixU8 selection(mask.rows(), mask.cols(), 0);
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    bool flipped = false;
    for (long r = 0; r < rows; ++r) {
      for (long c = 0; c < cols; ++c) {
        const double before = window_roughness(current, r, c, ropt);
        const std::size_t ri = static_cast<std::size_t>(r);
        const std::size_t ci = static_cast<std::size_t>(c);
        const double delta = (selection(ri, ci) != 0) ? -kTwoPi : kTwoPi;
        current(ri, ci) += delta;
        const double after = window_roughness(current, r, c, ropt);
        if (after + 1e-12 < before) {
          selection(ri, ci) = selection(ri, ci) != 0 ? 0 : 1;
          flipped = true;
        } else {
          current(ri, ci) -= delta;  // revert
        }
      }
    }
    if (!flipped) break;
  }
  return finalize(mask, std::move(selection), ropt);
}

std::vector<std::uint8_t> exact_1d_selection(
    const std::vector<double>& values,
    const roughness::RoughnessOptions& ropt) {
  const std::size_t n = values.size();
  ODONN_CHECK(n >= 1, "exact_1d_selection: empty input");
  const bool eight = ropt.neighborhood == roughness::Neighborhood::Eight;
  // A 1 x n mask: the left/right neighbors are real, everything else is
  // zero padding — 2 pad terms for 4-neighborhood, 6 for 8-neighborhood.
  const double pad_terms = eight ? 6.0 : 2.0;
  const double k = static_cast<double>(ropt.neighborhood) * 2.0;

  const auto value_of = [&](std::size_t i, int s) {
    return values[i] + (s != 0 ? kTwoPi : 0.0);
  };
  // cost of pixel i given selections of (i-1, i, i+1); out-of-range
  // neighbors use the zero padding.
  const auto cost = [&](std::size_t i, int sl, int sc, int sr) {
    const double wc = value_of(i, sc);
    const double dl = (i == 0 ? 0.0 : value_of(i - 1, sl)) - wc;
    const double dr = (i + 1 >= n ? 0.0 : value_of(i + 1, sr)) - wc;
    return std::sqrt(dl * dl + dr * dr + pad_terms * wc * wc) / k;
  };

  if (n == 1) {
    return {cost(0, 0, 1, 0) < cost(0, 0, 0, 0) ? std::uint8_t{1}
                                                : std::uint8_t{0}};
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // g[b][c] = best cost of pixels 0..i-1 with (s_{i-1}, s_i) = (b, c).
  std::array<std::array<double, 2>, 2> g{};
  std::vector<std::array<std::array<std::uint8_t, 2>, 2>> parent(n);
  for (int b = 0; b < 2; ++b) {
    for (int c = 0; c < 2; ++c) g[b][c] = cost(0, 0, b, c);
  }
  for (std::size_t i = 1; i + 1 <= n - 1; ++i) {
    std::array<std::array<double, 2>, 2> next{{{kInf, kInf}, {kInf, kInf}}};
    for (int c = 0; c < 2; ++c) {
      for (int d = 0; d < 2; ++d) {
        for (int b = 0; b < 2; ++b) {
          const double cand = g[b][c] + cost(i, b, c, d);
          if (cand < next[c][d]) {
            next[c][d] = cand;
            parent[i][c][d] = static_cast<std::uint8_t>(b);
          }
        }
      }
    }
    g = next;
  }
  // Close with the last pixel's cost (right neighbor is padding).
  double best = kInf;
  int best_b = 0, best_c = 0;
  for (int b = 0; b < 2; ++b) {
    for (int c = 0; c < 2; ++c) {
      const double cand = g[b][c] + cost(n - 1, b, c, 0);
      if (cand < best) {
        best = cand;
        best_b = b;
        best_c = c;
      }
    }
  }
  std::vector<std::uint8_t> sel(n);
  sel[n - 1] = static_cast<std::uint8_t>(best_c);
  // n >= 2 past the n == 1 early return, but gcc's range analysis cannot
  // carry that bound across the DP under sanitizer instrumentation and
  // flags sel[n - 2] as a potential overflow; the guard restates the
  // invariant where the optimizer can see it.
  if (n >= 2) {
    sel[n - 2] = static_cast<std::uint8_t>(best_b);
    for (std::size_t i = n - 2; i >= 1; --i) {
      const std::uint8_t b = parent[i][sel[i]][sel[i + 1]];
      sel[i - 1] = b;
    }
  }
  return sel;
}

std::vector<TwoPiResult> optimize_2pi_all(const std::vector<MatrixD>& masks,
                                          const TwoPiOptions& options) {
  // Layers are independent solves with their own seeds, each writing only
  // its own slot, so the results do not depend on the thread count.
  std::vector<TwoPiResult> results(masks.size());
  parallel_for(0, masks.size(), [&](std::size_t i) {
    TwoPiOptions opt = options;
    opt.seed = options.seed + i * 0x9e3779b9ULL;  // independent noise per layer
    results[i] = optimize_2pi(masks[i], opt);
  });
  return results;
}

}  // namespace odonn::smooth2pi
