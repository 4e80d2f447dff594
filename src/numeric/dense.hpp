// Dense vector and matrix containers with the arithmetic the rest of the
// library needs. Only two element types are used in practice: Real and
// Complex; explicit instantiations of the heavier algorithms live in the
// corresponding .cpp files.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common.hpp"

namespace rfic::numeric {

/// Dense column vector of element type T.
template <class T>
class Vec {
 public:
  Vec() = default;
  explicit Vec(std::size_t n, T value = T{}) : d_(n, value) {}
  Vec(std::initializer_list<T> init) : d_(init) {}

  std::size_t size() const { return d_.size(); }
  bool empty() const { return d_.empty(); }
  void resize(std::size_t n, T value = T{}) { d_.resize(n, value); }
  void assign(std::size_t n, T value) { d_.assign(n, value); }
  void setZero() { std::fill(d_.begin(), d_.end(), T{}); }

  T& operator[](std::size_t i) { return d_[i]; }
  const T& operator[](std::size_t i) const { return d_[i]; }
  T* data() { return d_.data(); }
  const T* data() const { return d_.data(); }
  auto begin() { return d_.begin(); }
  auto end() { return d_.end(); }
  auto begin() const { return d_.begin(); }
  auto end() const { return d_.end(); }

  Vec& operator+=(const Vec& o) {
    RFIC_REQUIRE(o.size() == size(), "Vec += size mismatch");
    for (std::size_t i = 0; i < size(); ++i) d_[i] += o.d_[i];
    return *this;
  }
  Vec& operator-=(const Vec& o) {
    RFIC_REQUIRE(o.size() == size(), "Vec -= size mismatch");
    for (std::size_t i = 0; i < size(); ++i) d_[i] -= o.d_[i];
    return *this;
  }
  Vec& operator*=(T s) {
    for (auto& v : d_) v *= s;
    return *this;
  }

  friend Vec operator+(Vec a, const Vec& b) { return a += b; }
  friend Vec operator-(Vec a, const Vec& b) { return a -= b; }
  friend Vec operator*(T s, Vec a) { return a *= s; }
  friend Vec operator*(Vec a, T s) { return a *= s; }

 private:
  std::vector<T> d_;
};

using RVec = Vec<Real>;
using CVec = Vec<Complex>;

/// y += alpha * x
template <class T>
void axpy(T alpha, const Vec<T>& x, Vec<T>& y) {
  RFIC_REQUIRE(x.size() == y.size(), "axpy size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// Euclidean inner product; for complex T this is the sesquilinear form
/// conj(a)·b (conjugate on the first argument).
inline Real dot(const RVec& a, const RVec& b) {
  RFIC_REQUIRE(a.size() == b.size(), "dot size mismatch");
  Real s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}
inline Complex dot(const CVec& a, const CVec& b) {
  RFIC_REQUIRE(a.size() == b.size(), "dot size mismatch");
  Complex s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += std::conj(a[i]) * b[i];
  return s;
}
/// Bilinear (unconjugated) product aᵀb — needed by nonsymmetric Lanczos.
inline Complex dotu(const CVec& a, const CVec& b) {
  RFIC_REQUIRE(a.size() == b.size(), "dotu size mismatch");
  Complex s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

template <class T>
Real norm2(const Vec<T>& v) {
  Real s = 0;
  for (std::size_t i = 0; i < v.size(); ++i) s += std::norm(Complex(v[i]));
  return std::sqrt(s);
}
inline Real norm2(const RVec& v) {
  Real s = 0;
  for (std::size_t i = 0; i < v.size(); ++i) s += v[i] * v[i];
  return std::sqrt(s);
}
/// Largest |entry|; NaN when any entry is NaN (a plain std::max fold would
/// drop it), so a poisoned vector never measures as small.
template <class T>
Real normInf(const Vec<T>& v) {
  Real m = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const Real a = std::abs(v[i]);
    if (std::isnan(a)) return a;
    m = std::max(m, a);
  }
  return m;
}

/// Dense row-major matrix of element type T.
template <class T>
class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols, T value = T{})
      : rows_(rows), cols_(cols), d_(rows * cols, value) {}

  static Mat identity(std::size_t n) {
    Mat m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  void setZero() { std::fill(d_.begin(), d_.end(), T{}); }

  /// Reshape to rows×cols, reusing the existing storage when it is large
  /// enough (element values are unspecified afterwards — this is a buffer
  /// primitive for workspace reuse, not a content-preserving reshape).
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    d_.resize(rows * cols);
  }

  T& operator()(std::size_t i, std::size_t j) { return d_[i * cols_ + j]; }
  const T& operator()(std::size_t i, std::size_t j) const {
    return d_[i * cols_ + j];
  }
  T* rowPtr(std::size_t i) { return d_.data() + i * cols_; }
  const T* rowPtr(std::size_t i) const { return d_.data() + i * cols_; }
  T* data() { return d_.data(); }
  const T* data() const { return d_.data(); }

  Mat& operator+=(const Mat& o) {
    RFIC_REQUIRE(o.rows_ == rows_ && o.cols_ == cols_, "Mat += size mismatch");
    for (std::size_t i = 0; i < d_.size(); ++i) d_[i] += o.d_[i];
    return *this;
  }
  Mat& operator-=(const Mat& o) {
    RFIC_REQUIRE(o.rows_ == rows_ && o.cols_ == cols_, "Mat -= size mismatch");
    for (std::size_t i = 0; i < d_.size(); ++i) d_[i] -= o.d_[i];
    return *this;
  }
  Mat& operator*=(T s) {
    for (auto& v : d_) v *= s;
    return *this;
  }
  friend Mat operator+(Mat a, const Mat& b) { return a += b; }
  friend Mat operator-(Mat a, const Mat& b) { return a -= b; }
  friend Mat operator*(T s, Mat a) { return a *= s; }

  /// y = A x
  Vec<T> operator*(const Vec<T>& x) const {
    RFIC_REQUIRE(x.size() == cols_, "matvec size mismatch");
    Vec<T> y(rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
      T s{};
      const T* row = rowPtr(i);
      for (std::size_t j = 0; j < cols_; ++j) s += row[j] * x[j];
      y[i] = s;
    }
    return y;
  }

  /// C = A B
  Mat operator*(const Mat& b) const {
    RFIC_REQUIRE(cols_ == b.rows_, "matmul size mismatch");
    Mat c(rows_, b.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const T aik = (*this)(i, k);
        if (aik == T{}) continue;
        const T* brow = b.rowPtr(k);
        T* crow = c.rowPtr(i);
        for (std::size_t j = 0; j < b.cols_; ++j) crow[j] += aik * brow[j];
      }
    }
    return c;
  }

  Mat transposed() const {
    Mat t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<T> d_;
};

using RMat = Mat<Real>;
using CMat = Mat<Complex>;

/// y = Aᵀ x (without forming the transpose).
template <class T>
Vec<T> transposeMatvec(const Mat<T>& a, const Vec<T>& x) {
  RFIC_REQUIRE(x.size() == a.rows(), "transposeMatvec size mismatch");
  Vec<T> y(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const T* row = a.rowPtr(i);
    const T xi = x[i];
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += row[j] * xi;
  }
  return y;
}

/// Frobenius norm.
template <class T>
Real normFro(const Mat<T>& a) {
  Real s = 0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      s += std::norm(Complex(a(i, j)));
  return std::sqrt(s);
}

/// Promote a real matrix to complex.
CMat toComplex(const RMat& a);

}  // namespace rfic::numeric
