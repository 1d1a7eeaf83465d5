#include "fft/fft2d.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace odonn::fft {

namespace {

constexpr std::size_t L = Plan::kLanes;

/// Transforms `lanes` (1..L) strided sequences of plan.size() values as one
/// lane group: element j of sequence s is base[j * step + s * lane_step].
/// Idle lanes carry a copy of sequence 0 and their results are dropped.
void transform_group(const Plan& plan, Cplx* base, std::size_t step,
                     std::size_t lane_step, std::size_t lanes, Direction dir) {
  const std::size_t n = plan.size();
  thread_local std::vector<double> re, im;
  if (re.size() < n * L) {
    re.resize(n * L);
    im.resize(n * L);
  }
  for (std::size_t j = 0; j < n; ++j) {
    const Cplx* src = base + j * step;
    for (std::size_t s = 0; s < L; ++s) {
      const Cplx v = src[(s < lanes ? s : 0) * lane_step];
      re[j * L + s] = v.real();
      im[j * L + s] = v.imag();
    }
  }
  plan.execute_lanes(re.data(), im.data(), dir);
  for (std::size_t j = 0; j < n; ++j) {
    Cplx* dst = base + j * step;
    for (std::size_t s = 0; s < lanes; ++s) {
      dst[s * lane_step] = Cplx(re[j * L + s], im[j * L + s]);
    }
  }
}

}  // namespace

void transform_2d(Cplx* data, std::size_t rows, std::size_t cols,
                  Direction dir) {
  ODONN_CHECK(rows >= 1 && cols >= 1, "transform_2d requires non-empty shape");
  const auto row_plan = plan_for(cols);
  const auto col_plan = plan_for(rows);

  // Group g packs rows [g*L, g*L + L), then columns [g*L, g*L + L): the
  // grouping is a function of the index alone, never of the thread count.
  parallel_for(
      0, (rows + L - 1) / L,
      [&](std::size_t g) {
        transform_group(*row_plan, data + g * L * cols, 1, cols,
                        std::min(L, rows - g * L), dir);
      });
  parallel_for(
      0, (cols + L - 1) / L,
      [&](std::size_t g) {
        transform_group(*col_plan, data + g * L, cols, 1,
                        std::min(L, cols - g * L), dir);
      });
}

namespace {

/// Circularly shifts each row left by `shift` columns and each column up by
/// `row_shift` rows (i.e. out[r][c] = in[(r+row_shift)%rows][(c+shift)%cols]).
void circular_shift(Cplx* data, std::size_t rows, std::size_t cols,
                    std::size_t row_shift, std::size_t col_shift) {
  if (row_shift == 0 && col_shift == 0) return;
  std::vector<Cplx> tmp(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t src_r = (r + row_shift) % rows;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t src_c = (c + col_shift) % cols;
      tmp[r * cols + c] = data[src_r * cols + src_c];
    }
  }
  std::copy(tmp.begin(), tmp.end(), data);
}

}  // namespace

void fftshift_2d(Cplx* data, std::size_t rows, std::size_t cols) {
  // fftshift moves bin 0 to the center: shift by ceil(n/2) sources forward,
  // equivalently out[i] = in[(i + n - n/2) % n] with n/2 = floor.
  circular_shift(data, rows, cols, rows - rows / 2, cols - cols / 2);
}

void ifftshift_2d(Cplx* data, std::size_t rows, std::size_t cols) {
  circular_shift(data, rows, cols, rows / 2, cols / 2);
}

std::vector<double> fft_freqs(std::size_t n, double spacing) {
  ODONN_CHECK(n >= 1, "fft_freqs requires n >= 1");
  ODONN_CHECK(spacing > 0.0, "fft_freqs requires positive spacing");
  std::vector<double> freqs(n);
  const double denom = static_cast<double>(n) * spacing;
  const std::size_t half = (n + 1) / 2;  // count of non-negative bins
  for (std::size_t i = 0; i < half; ++i) {
    freqs[i] = static_cast<double>(i) / denom;
  }
  for (std::size_t i = half; i < n; ++i) {
    freqs[i] = -static_cast<double>(n - i) / denom;
  }
  return freqs;
}

}  // namespace odonn::fft
