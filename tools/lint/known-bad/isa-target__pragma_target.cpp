// Known-bad corpus: a file-scope target pragma ahead of the includes
// compiles every inline function of those headers for AVX2 (and with FMA
// here, fusing a*b + c), and the linker may keep those copies for baseline
// callers. ISA-specific code belongs in the lane-kernel dispatch owner only.
#pragma GCC target("avx2,fma")
#include <vector>

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}
