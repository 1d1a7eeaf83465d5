// Known-bad corpus: a serving pass that packs four samples side by side
// and runs its own lane FFTs. It re-implements propagation, modulation and
// readout next to DonnModel's frame runner, so every change to the optics
// would have to land twice and a parity test keep the copies bitwise equal.
#include <cstddef>
#include <memory>
#include <vector>

namespace fft {
struct Plan {
  void execute_lanes(double* re, double* im, int dir) const;
};
}  // namespace fft

void sample_lane_rows(const std::shared_ptr<const fft::Plan>& plan,
                      std::vector<double>& re, std::vector<double>& im,
                      std::size_t n) {
  constexpr std::size_t kLanes = 4;
  for (std::size_t r = 0; r < n; ++r) {
    plan->execute_lanes(re.data() + r * n * kLanes,
                        im.data() + r * n * kLanes, -1);
  }
}
