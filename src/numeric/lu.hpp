// Dense LU factorization with partial pivoting, for Real and Complex
// matrices. Used for small dense systems throughout the library: HB
// preconditioner blocks, monodromy-based shooting updates, reduced-order
// models, and reference solutions in tests.
#pragma once

#include <vector>

#include "numeric/dense.hpp"

namespace rfic::numeric {

/// LU factorization P·A = L·U held in packed form.
template <class T>
class LU {
 public:
  LU() = default;
  /// Factor a square matrix. Throws NumericalError if singular to working
  /// precision.
  explicit LU(Mat<T> a);

  std::size_t size() const { return lu_.rows(); }

  /// Solve A x = b.
  Vec<T> solve(const Vec<T>& b) const;
  /// Solve A x = b overwriting x (length size()) — no allocations, the
  /// hot path for preconditioner segment solves.
  void solveInPlace(T* x) const;
  /// Solve Aᵀ x = b (plain transpose, no conjugation).
  Vec<T> solveTransposed(const Vec<T>& b) const;
  /// Solve A X = B, all columns against the one factorization.
  Mat<T> solve(const Mat<T>& b) const;

  /// Determinant (product of pivots with sign of the permutation).
  T determinant() const;

 private:
  Mat<T> lu_;
  std::vector<int> piv_;
  int pivSign_ = 1;
};

using RLU = LU<Real>;
using CLU = LU<Complex>;

extern template class LU<Real>;
extern template class LU<Complex>;

/// Convenience: solve A x = b with a one-shot factorization.
template <class T>
Vec<T> solveDense(Mat<T> a, const Vec<T>& b) {
  return LU<T>(std::move(a)).solve(b);
}

/// Inverse via LU — only used on small matrices (reduced models, tests).
template <class T>
Mat<T> inverse(Mat<T> a) {
  const std::size_t n = a.rows();
  return LU<T>(std::move(a)).solve(Mat<T>::identity(n));
}

}  // namespace rfic::numeric
