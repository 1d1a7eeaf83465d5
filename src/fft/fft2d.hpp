// 2-D complex FFT over row-lane frames, plus frequency coordinates.
// Operates on raw pointers and its own plane type so the FFT layer stays
// independent of the tensor module; optics wraps it for Field objects.
//
// Row-lane frames
// ---------------
// A Frame holds a rows x cols complex matrix as two split planes (re, im)
// in which rows 4g..4g+3 form lane group g: element (r, c) sits at
//   [(g * cols + c) * 4 + r % 4],   g = r / 4,
// so each group is exactly the lane-major layout Plan::execute_lanes reads
// (element c of lane r % 4). A 2-D transform is then
//  * a row pass: execute_lanes on every group, in place, no copies;
//  * a column pass: per group of four columns, the 4x4 tiles at those
//    columns are transposed into one column-lane scratch (element r of lane
//    c % 4), transformed, optionally multiplied by a transfer function
//    (Propagator's H), and transposed back.
// When rows % 4 != 0 the last group is partial: its idle lanes are zero
// after load(), are carried through the row passes (lanes never interact)
// and are never read as matrix elements. Both passes parallelize over lane
// groups when called from a non-worker thread; the grouping depends on the
// index alone, never on the thread count. Each pass runs the lane kernels
// of fft_plan.hpp's ISA dispatch (no FMA; see there) on the plan's engine,
// radix-2 or mixed radix. The column pass folds the plan's bit or digit
// reversal into the tile gather; a mixed-radix row pass moves each group's
// elements to their digit-reversed slots through a per-thread copy.
//
// Bitwise contract: transform_2d equals Plan::execute on every row, then on
// every column, bit for bit, in every lane-kernel variant; the interleaved
// transform_2d(Cplx*) is a converter (load, transform, store) over it.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <new>
#include <vector>

#include "fft/fft_plan.hpp"

namespace odonn::fft {

/// Allocator for lane planes: 64-byte aligned storage, so every lane group
/// (four doubles) starts on a 32-byte boundary and no AVX2 load or store
/// of one straddles a cache line.
template <typename T>
struct PlaneAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  PlaneAllocator() = default;
  template <typename U>
  PlaneAllocator(const PlaneAllocator<U>&) {}

  T* allocate(std::size_t count) {
    return static_cast<T*>(::operator new(count * sizeof(T), kAlignment));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlignment); }

  template <typename U>
  bool operator==(const PlaneAllocator<U>&) const {
    return true;
  }
};

/// One split re or im plane of lane groups.
using Plane = std::vector<double, PlaneAllocator<double>>;

class Frame {
 public:
  static constexpr std::size_t kLanes = Plan::kLanes;

  Frame() = default;

  /// A zeroed rows x cols frame.
  Frame(std::size_t rows, std::size_t cols) { reshape(rows, cols); }

  /// Sets the shape, keeping the plane storage when it is large enough.
  /// Element values are unspecified afterwards until load() / fill().
  void reshape(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Lane groups: ceil(rows / 4).
  std::size_t groups() const { return (rows_ + kLanes - 1) / kLanes; }
  /// Doubles per plane: groups() * cols * 4.
  std::size_t plane_size() const { return groups() * cols_ * kLanes; }

  /// Plane offset of element (r, c).
  std::size_t index(std::size_t r, std::size_t c) const {
    return ((r / kLanes) * cols_ + c) * kLanes + r % kLanes;
  }

  double* re() { return re_.data(); }
  double* im() { return im_.data(); }
  const double* re() const { return re_.data(); }
  const double* im() const { return im_.data(); }

  /// Copies a row-major rows x cols complex buffer in; idle lanes become 0.
  void load(const Cplx* src);
  /// Copies the matrix out to a row-major rows x cols complex buffer.
  void store(Cplx* dst) const;
  /// Sets every element, idle lanes included, to +0.
  void fill_zero();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Plane re_, im_;
};

/// Calls fn(f, i) for every element of lane groups [g0, g1) of a
/// rows x cols frame, group by group and column by column: f is the
/// element's plane offset, i its row-major index. Idle lanes of a partial
/// last group are skipped. The one loop that converts between the frame
/// layout and row-major buffers element by element.
template <typename Fn>
void for_each_element(std::size_t rows, std::size_t cols, std::size_t g0,
                      std::size_t g1, Fn&& fn) {
  constexpr std::size_t L = Frame::kLanes;
  for (std::size_t g = g0; g < g1; ++g) {
    const std::size_t lanes = std::min(L, rows - g * L);
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t f = (g * cols + c) * L;
      const std::size_t i = g * L * cols + c;
      for (std::size_t u = 0; u < lanes; ++u) fn(f + u, i + u * cols);
    }
  }
}

/// A transfer function for the column pass, in column-lane order: the
/// value for element (r, c) sits at [((c / 4) * rows + r) * 4 + c % 4], i.e.
/// the frame layout of the transposed matrix (column_lane_planes builds it).
struct ColumnTransfer {
  const double* re = nullptr;
  const double* im = nullptr;
  bool conjugate = false;  ///< multiply by conj(H) instead of H
};

/// Builds ColumnTransfer planes from a row-major rows x cols table. Idle
/// lanes of a partial last column group hold 0.
void column_lane_planes(const Cplx* table, std::size_t rows, std::size_t cols,
                        Plane& re, Plane& im);

/// Row pass: `row_plan` (length cols) on every lane group, in place.
void frame_rows(Frame& frame, const Plan& row_plan, Direction dir,
                LaneIsa isa = active_lane_isa());

/// Column pass: `col_plan` (length rows) on every column; with a transfer,
/// each transformed element is multiplied by it — the product
/// (ac - bd, ad + bc) of std::complex's operator*= — before it is written
/// back. Defined with the lane kernels in fft/lane_kernels.cpp.
void frame_columns(Frame& frame, const Plan& col_plan, Direction dir,
                   const ColumnTransfer* transfer = nullptr,
                   LaneIsa isa = active_lane_isa());

/// In-place 2-D FFT of a frame: the row pass, then the column pass, with
/// plans from the shared plan_for cache.
void transform_2d(Frame& frame, Direction dir, LaneIsa isa = active_lane_isa());

/// In-place 2-D FFT of a rows x cols row-major buffer, through a frame —
/// bitwise identical to Plan::execute on each row, then each column.
void transform_2d(Cplx* data, std::size_t rows, std::size_t cols,
                  Direction dir);

/// FFT sample frequencies in cycles per unit, matching numpy.fft.fftfreq:
/// [0, 1, ..., n/2-1, -n/2, ..., -1] / (n * spacing).
std::vector<double> fft_freqs(std::size_t n, double spacing);

}  // namespace odonn::fft
