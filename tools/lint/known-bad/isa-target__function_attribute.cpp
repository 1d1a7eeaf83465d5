// Known-bad corpus: a per-function target outside the dispatch owner is
// ISA-specific code no two-variant test covers, picked by a runtime check
// nothing else audits.
#include <immintrin.h>

__attribute__((target("avx2"))) void scale(double* x, double s, int n) {
  for (int i = 0; i < n; ++i) x[i] *= s;
}

bool has_avx2() { return __builtin_cpu_supports("avx2"); }
