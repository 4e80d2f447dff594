#include "numeric/lu.hpp"

#include "diag/contracts.hpp"

#include <cmath>

namespace rfic::numeric {

template <class T>
LU<T>::LU(Mat<T> a) : lu_(std::move(a)) {
  RFIC_REQUIRE(lu_.rows() == lu_.cols(), "LU: matrix must be square");
  const std::size_t n = lu_.rows();
  piv_.resize(n);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest magnitude in column k at or below row k.
    std::size_t p = k;
    Real pmax = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const Real v = std::abs(lu_(i, k));
      if (v > pmax) {
        pmax = v;
        p = i;
      }
    }
    if (diag::exactlyZero(pmax)) failNumerical("LU: matrix is singular");
    piv_[k] = static_cast<int>(p);
    if (p != k) {
      pivSign_ = -pivSign_;
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(p, j));
    }
    const T pivot = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const T m = lu_(i, k) / pivot;
      lu_(i, k) = m;
      if (diag::exactlyZero(m)) continue;
      const T* rowk = lu_.rowPtr(k);
      T* rowi = lu_.rowPtr(i);
      for (std::size_t j = k + 1; j < n; ++j) rowi[j] -= m * rowk[j];
    }
  }
}

template <class T>
void LU<T>::solveInPlace(T* x) const {
  const std::size_t n = size();
  for (std::size_t k = 0; k < n; ++k) {
    const auto p = static_cast<std::size_t>(piv_[k]);
    if (p != k) std::swap(x[k], x[p]);
    // Forward substitution fold into the sweep.
  }
  for (std::size_t k = 0; k < n; ++k) {
    const T xk = x[k];
    if (xk == T{}) continue;
    for (std::size_t i = k + 1; i < n; ++i) x[i] -= lu_(i, k) * xk;
  }
  for (std::size_t k = n; k-- > 0;) {
    T s = x[k];
    const T* row = lu_.rowPtr(k);
    for (std::size_t j = k + 1; j < n; ++j) s -= row[j] * x[j];
    x[k] = s / row[k];
  }
}

template <class T>
Vec<T> LU<T>::solve(const Vec<T>& b) const {
  RFIC_REQUIRE(b.size() == size(), "LU::solve size mismatch");
  Vec<T> x = b;
  solveInPlace(x.data());
  return x;
}

template <class T>
Vec<T> LU<T>::solveTransposed(const Vec<T>& b) const {
  // Aᵀ = (P⁻¹ L U)ᵀ = Uᵀ Lᵀ P, so solve Uᵀ y = b, Lᵀ z = y, x = Pᵀ z.
  const std::size_t n = size();
  RFIC_REQUIRE(b.size() == n, "LU::solveTransposed size mismatch");
  Vec<T> x = b;
  for (std::size_t k = 0; k < n; ++k) {
    T s = x[k];
    for (std::size_t i = 0; i < k; ++i) s -= lu_(i, k) * x[i];
    x[k] = s / lu_(k, k);
  }
  for (std::size_t k = n; k-- > 0;) {
    T s = x[k];
    for (std::size_t i = k + 1; i < n; ++i) s -= lu_(i, k) * x[i];
    x[k] = s;
  }
  for (std::size_t k = n; k-- > 0;) {
    const auto p = static_cast<std::size_t>(piv_[k]);
    if (p != k) std::swap(x[k], x[p]);
  }
  return x;
}

template <class T>
Mat<T> LU<T>::solve(const Mat<T>& b) const {
  RFIC_REQUIRE(b.rows() == size(), "LU::solve(Mat) size mismatch");
  Mat<T> x(b.rows(), b.cols());
  Vec<T> col(b.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    solveInPlace(col.data());
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = col[i];
  }
  return x;
}

template <class T>
T LU<T>::determinant() const {
  T d = static_cast<T>(pivSign_);
  for (std::size_t k = 0; k < size(); ++k) d *= lu_(k, k);
  return d;
}

template class LU<Real>;
template class LU<Complex>;

}  // namespace rfic::numeric
