// Known-bad corpus: partial-sum layout derived from the worker count. The
// summation tree then depends on ODONN_THREADS, so results stop being
// bitwise reproducible across thread counts — the exact failure mode the
// trainer's fixed kGradientSlices layout exists to prevent.
#include <cstddef>
#include <vector>

namespace odonn { std::size_t thread_count(); }

double racy_layout_sum(const std::vector<double>& xs) {
  std::vector<double> partials(odonn::thread_count(), 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    partials[i % partials.size()] += xs[i];
  }
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}
