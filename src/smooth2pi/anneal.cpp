#include "smooth2pi/anneal.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace odonn::smooth2pi {

namespace {

constexpr double kTwoPi = 2.0 * M_PI;

/// Sum of per-pixel roughness over the 3x3 window around (r, c) — the part
/// of R(W) a flip at (r, c) can change. Mirrors the greedy solver's local
/// evaluation (two_pi_opt.cpp).
double window_roughness(const MatrixD& m, long r, long c,
                        const roughness::RoughnessOptions& opt) {
  const long rows = static_cast<long>(m.rows());
  const long cols = static_cast<long>(m.cols());
  const bool eight = opt.neighborhood == roughness::Neighborhood::Eight;
  const double k = static_cast<double>(opt.neighborhood) * 2.0;
  double acc = 0.0;
  for (long pr = r - 1; pr <= r + 1; ++pr) {
    for (long pc = c - 1; pc <= c + 1; ++pc) {
      if (pr < 0 || pc < 0 || pr >= rows || pc >= cols) continue;
      const double center = m(static_cast<std::size_t>(pr),
                              static_cast<std::size_t>(pc));
      double sum = 0.0;
      for (long dr = -1; dr <= 1; ++dr) {
        for (long dc = -1; dc <= 1; ++dc) {
          if (dr == 0 && dc == 0) continue;
          if (!eight && dr != 0 && dc != 0) continue;
          const long nr = pr + dr;
          const long nc = pc + dc;
          const double v = (nr < 0 || nc < 0 || nr >= rows || nc >= cols)
                               ? 0.0
                               : m(static_cast<std::size_t>(nr),
                                   static_cast<std::size_t>(nc));
          const double d = v - center;
          sum += d * d;
        }
      }
      acc += std::sqrt(sum) / k;
    }
  }
  return acc;
}

}  // namespace

TwoPiResult anneal_2pi(const MatrixD& mask, const AnnealOptions& options) {
  ODONN_CHECK(!mask.empty(), "anneal_2pi: empty mask");
  ODONN_CHECK(options.iterations >= 1, "anneal_2pi: need >= 1 iteration");
  ODONN_CHECK(options.t_start >= options.t_end && options.t_end > 0.0,
              "anneal_2pi: temperatures must satisfy t_start >= t_end > 0");

  Rng rng(options.seed);
  MatrixD current = mask;
  MatrixU8 selection(mask.rows(), mask.cols(), 0);
  MatrixU8 best_selection = selection;
  double current_roughness = roughness::mask_roughness(current, options.roughness);
  const double initial_roughness = current_roughness;
  double best_roughness = current_roughness;

  const double decay =
      std::pow(options.t_end / options.t_start,
               1.0 / static_cast<double>(options.iterations));
  double temperature = options.t_start;

  for (std::size_t it = 0; it < options.iterations; ++it, temperature *= decay) {
    const std::size_t idx = static_cast<std::size_t>(
        rng.uniform_index(mask.size()));
    const long r = static_cast<long>(idx / mask.cols());
    const long c = static_cast<long>(idx % mask.cols());

    const double before = window_roughness(current, r, c, options.roughness);
    const double delta_phase = (selection[idx] != 0) ? -kTwoPi : kTwoPi;
    current[idx] += delta_phase;
    const double after = window_roughness(current, r, c, options.roughness);
    const double delta = after - before;

    const bool accept =
        delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature);
    if (accept) {
      selection[idx] = selection[idx] != 0 ? 0 : 1;
      current_roughness += delta;
      if (current_roughness < best_roughness) {
        best_roughness = current_roughness;
        best_selection = selection;
      }
    } else {
      current[idx] -= delta_phase;  // reject: revert
    }
  }

  TwoPiResult result;
  result.roughness_before = initial_roughness;
  if (best_roughness < initial_roughness) {
    result.selection = std::move(best_selection);
    result.optimized = mask;
    std::size_t added = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (result.selection[i] != 0) {
        result.optimized[i] += kTwoPi;
        ++added;
      }
    }
    result.added_count = added;
    // Recompute exactly (incremental tracking accumulates fp drift).
    result.roughness_after =
        roughness::mask_roughness(result.optimized, options.roughness);
  } else {
    result.optimized = mask;
    result.selection = MatrixU8(mask.rows(), mask.cols(), 0);
    result.roughness_after = initial_roughness;
    result.added_count = 0;
  }
  return result;
}

}  // namespace odonn::smooth2pi
