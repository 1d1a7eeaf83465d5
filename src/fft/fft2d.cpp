#include "fft/fft2d.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace odonn::fft {

namespace {

constexpr std::size_t L = Plan::kLanes;

}  // namespace

void Frame::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  re_.resize(plane_size());
  im_.resize(plane_size());
}

void Frame::load(const Cplx* src) {
  for (std::size_t g = 0; g < groups(); ++g) {
    double* re = re_.data() + g * cols_ * L;
    double* im = im_.data() + g * cols_ * L;
    for (std::size_t u = 0; u < L; ++u) {
      const std::size_t r = g * L + u;
      if (r >= rows_) {
        for (std::size_t c = 0; c < cols_; ++c) {
          re[c * L + u] = 0.0;
          im[c * L + u] = 0.0;
        }
        continue;
      }
      const Cplx* row = src + r * cols_;
      for (std::size_t c = 0; c < cols_; ++c) {
        re[c * L + u] = row[c].real();
        im[c * L + u] = row[c].imag();
      }
    }
  }
}

void Frame::store(Cplx* dst) const {
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t base = (r / L) * cols_ * L + r % L;
    Cplx* row = dst + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) {
      row[c] = Cplx(re_[base + c * L], im_[base + c * L]);
    }
  }
}

void Frame::fill_zero() {
  std::fill(re_.begin(), re_.end(), 0.0);
  std::fill(im_.begin(), im_.end(), 0.0);
}

void column_lane_planes(const Cplx* table, std::size_t rows, std::size_t cols,
                        Plane& re, Plane& im) {
  const std::size_t col_groups = (cols + L - 1) / L;
  re.assign(col_groups * rows * L, 0.0);
  im.assign(col_groups * rows * L, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = ((c / L) * rows + r) * L + c % L;
      re[i] = table[r * cols + c].real();
      im[i] = table[r * cols + c].imag();
    }
  }
}

void frame_rows(Frame& frame, const Plan& row_plan, Direction dir,
                LaneIsa isa) {
  ODONN_CHECK_SHAPE(row_plan.size() == frame.cols(),
                    "frame_rows: plan length does not match frame width");
  // The loop body captures one pointer to this context, so its
  // std::function fits the small-object buffer and the call allocates
  // nothing (six captured references would not).
  const struct {
    const Plan* plan;
    double* re;
    double* im;
    std::size_t step;
    Direction dir;
    LaneIsa isa;
  } pass{&row_plan, frame.re(), frame.im(), frame.cols() * L, dir, isa};
  parallel_for(0, frame.groups(), [&pass](std::size_t g) {
    pass.plan->execute_lanes(pass.re + g * pass.step, pass.im + g * pass.step,
                             pass.dir, pass.isa);
  });
}

void transform_2d(Frame& frame, Direction dir, LaneIsa isa) {
  ODONN_CHECK(frame.rows() >= 1 && frame.cols() >= 1,
              "transform_2d requires non-empty shape");
  frame_rows(frame, *plan_for(frame.cols()), dir, isa);
  frame_columns(frame, *plan_for(frame.rows()), dir, nullptr, isa);
}

void transform_2d(Cplx* data, std::size_t rows, std::size_t cols,
                  Direction dir) {
  ODONN_CHECK(rows >= 1 && cols >= 1, "transform_2d requires non-empty shape");
  Frame frame(rows, cols);
  frame.load(data);
  transform_2d(frame, dir);
  frame.store(data);
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
