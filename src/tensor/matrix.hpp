// Dense row-major 2-D array used everywhere in odonn (phase masks, fields,
// images, gradients). Value-semantic, bounds-checked in at(), unchecked in
// operator() for hot loops. Deliberately small: no expression templates, no
// views that outlive their parent — the paper's pipeline only needs whole-
// matrix elementwise work.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace odonn {

template <typename T>
class Matrix {
 public:
  using value_type = T;

  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  /// Builds from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
      ODONN_CHECK_SHAPE(row.size() == cols_,
                        "initializer rows must have equal length");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  T& at(std::size_t r, std::size_t c) {
    ODONN_CHECK_SHAPE(r < rows_ && c < cols_, "Matrix::at out of range");
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    ODONN_CHECK_SHAPE(r < rows_ && c < cols_, "Matrix::at out of range");
    return data_[r * cols_ + c];
  }

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Elementwise in-place map.
  template <typename Fn>
  void transform(Fn&& fn) {
    for (auto& v : data_) v = fn(v);
  }

  /// Elementwise out-of-place map (possibly changing element type).
  template <typename Fn>
  auto map(Fn&& fn) const {
    using U = decltype(fn(std::declval<T>()));
    Matrix<U> out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) out[i] = fn(data_[i]);
    return out;
  }

  T sum() const {
    T acc{};
    for (const auto& v : data_) acc += v;
    return acc;
  }

  Matrix& operator+=(const Matrix& other) {
    ODONN_CHECK_SHAPE(same_shape(other), "operator+= shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other[i];
    return *this;
  }

  Matrix& operator-=(const Matrix& other) {
    ODONN_CHECK_SHAPE(same_shape(other), "operator-= shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other[i];
    return *this;
  }

  Matrix& operator*=(T scalar) {
    for (auto& v : data_) v *= scalar;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, T scalar) { return a *= scalar; }
  friend Matrix operator*(T scalar, Matrix a) { return a *= scalar; }

  /// Elementwise (Hadamard) product.
  friend Matrix hadamard(const Matrix& a, const Matrix& b) {
    ODONN_CHECK_SHAPE(a.same_shape(b), "hadamard shape mismatch");
    Matrix out(a.rows_, a.cols_);
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
    return out;
  }

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatrixD = Matrix<double>;
using MatrixC = Matrix<std::complex<double>>;
using MatrixU8 = Matrix<std::uint8_t>;

/// "RxC" shape string for error messages.
std::string shape_string(std::size_t rows, std::size_t cols);

/// Max |a-b| over all elements; shapes must match.
double max_abs_diff(const MatrixD& a, const MatrixD& b);
double max_abs_diff(const MatrixC& a, const MatrixC& b);

/// Frobenius norm.
double frobenius_norm(const MatrixD& m);
double frobenius_norm(const MatrixC& m);

}  // namespace odonn
