// Sparse matrix storage: a triplet (COO) builder that accumulates duplicate
// entries — the natural target of MNA device stamping — and a compressed
// sparse row (CSR) form for matrix-vector products in Krylov solvers.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "numeric/dense.hpp"

namespace rfic::sparse {

using numeric::Vec;
using numeric::Mat;

/// Coordinate-format builder. add() may be called repeatedly for the same
/// (row, col); entries sum on compression, matching MNA stamping semantics.
template <class T>
class Triplets {
 public:
  Triplets() = default;
  Triplets(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  void add(std::size_t r, std::size_t c, T v) {
    RFIC_REQUIRE(r < rows_ && c < cols_, "Triplets::add out of range");
    entries_.push_back({r, c, v});
  }
  void clear() { entries_.clear(); }
  /// Re-dimension and empty, keeping the entry buffer's capacity — for
  /// callers that rebuild the same-sized system every iteration.
  void reset(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    entries_.clear();
  }

  struct Entry {
    std::size_t row, col;
    T value;
  };
  const std::vector<Entry>& entries() const { return entries_; }

  /// Dense materialization (small systems, tests).
  Mat<T> toDense() const {
    Mat<T> m(rows_, cols_);
    for (const auto& e : entries_) m(e.row, e.col) += e.value;
    return m;
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<Entry> entries_;
};

/// Compressed sparse row matrix with summed duplicates.
template <class T>
class CSR {
 public:
  CSR() = default;
  explicit CSR(const Triplets<T>& t);
  /// The structure of `pattern` (any element type) carrying `values`, one
  /// per position in its order.
  template <class U>
  CSR(const CSR<U>& pattern, std::vector<T> values)
      : rows_(pattern.rows()),
        cols_(pattern.cols()),
        rowPtr_(pattern.rowPtr()),
        colIdx_(pattern.colIdx()),
        val_(std::move(values)) {
    RFIC_REQUIRE(val_.size() == colIdx_.size(), "CSR: value count mismatch");
  }

  /// A structure laid out by the caller (columns ascending and distinct
  /// within each row), all values zero.
  CSR(std::size_t rows, std::size_t cols, std::vector<std::size_t> rowPtr,
      std::vector<std::size_t> colIdx)
      : rows_(rows),
        cols_(cols),
        rowPtr_(std::move(rowPtr)),
        colIdx_(std::move(colIdx)),
        val_(colIdx_.size()) {
    RFIC_REQUIRE(rowPtr_.size() == rows_ + 1 && rowPtr_.back() == nnz(),
                 "CSR: row pointer mismatch");
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return val_.size(); }

  const std::vector<std::size_t>& rowPtr() const { return rowPtr_; }
  const std::vector<std::size_t>& colIdx() const { return colIdx_; }
  const std::vector<T>& values() const { return val_; }
  std::vector<T>& values() { return val_; }

  /// y = A x
  void multiply(const Vec<T>& x, Vec<T>& y) const;
  Vec<T> operator*(const Vec<T>& x) const {
    Vec<T> y(rows_);
    multiply(x, y);
    return y;
  }
  /// y = Aᵀ x (no conjugation)
  Vec<T> transposeMultiply(const Vec<T>& x) const;

  /// y = A x with this pattern but an external value array — lets many
  /// matrices share one CSR structure (e.g. per-sample HB Jacobians that
  /// all stamp the same circuit topology).
  void multiplyWith(const std::vector<T>& vals, const Vec<T>& x,
                    Vec<T>& y) const;

  Mat<T> toDense() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::size_t> rowPtr_, colIdx_;
  std::vector<T> val_;
};

using RTriplets = Triplets<Real>;
using CTriplets = Triplets<Complex>;
using RCSR = CSR<Real>;
using CCSR = CSR<Complex>;

extern template class CSR<Real>;
extern template class CSR<Complex>;

}  // namespace rfic::sparse
