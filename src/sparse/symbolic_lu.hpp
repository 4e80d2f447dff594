// The sparse LU factorization: threshold row pivoting inside a
// fill-reducing column order (MNA matrices are structurally symmetric,
// extremely sparse, and benefit enormously from a fill-minimizing pivot
// order), split into a symbolic analysis and a numeric replay. It is the
// one sparse factorizer: Newton loops (DC, transient, HB blocks, MPDE)
// factor once and refactor per iteration, and so do the AC and noise
// sweeps per frequency; one-shot users (S-parameters, the ROM expansion
// operator) call factor() and solve()/solveTransposed().
//
// factor() chooses the pivots by a left-looking, column-at-a-time
// elimination (Gilbert–Peierls) over a dense work vector and keeps only the
// result: the pivots, the L factor by step (column), the U factor by step
// (row), and a row-wise index of L (each row's L entries in ascending
// step). Step k scatters the k-th column of the order, applies the earlier
// steps whose pivot row lies in its pattern in ascending step (a bitset over
// steps: every step reached from step j is later than j), picks the pivot
// row from the finished column and records L(k); the U entries it meets are
// put in their rows' stored order at the end. Steps come in supernodes:
// step j joins step j-1 when step j-1 updated column j and
// |L(j)| + 1 = |L(j-1)|, which proves L(j) ∪ {pivot row of j} = L(j-1). A
// column that takes step j-1 then already holds every row of L(j), so it
// takes step j next as a plain x_i -= l·u over L(j), with no fill, reach or
// origin bookkeeping (supernodeWork() counts these steps). The stored L
// keeps its order: joined columns seldom list their rows in the same
// order, and solveTransposed() accumulates in stored order. The factors,
// their stored orders and every rounding are those of a right-looking
// elimination over the active submatrix with the same pivots (the
// differential test in tests/test_symbolic_lu_oracle.cpp keeps that
// elimination as its reference). A factorization stores O(factor nnz + n).
//
// refactor(values) then recomputes the factors on new numeric values — no
// ordering, no search, no allocation — by a row-by-row ("up-looking", row
// Doolittle) pass: row s is scattered into an n-entry accumulator, takes
// its L entries in ascending step (m = acc[pivot column] / pivot, then
// acc -= m·that step's U row), and leaves its pivot and U values for the
// rows after it, zeroing every entry it read. Its time is proportional to
// the flop count of the original factorization. Every factor entry
// receives the same updates in the same order as in the analysis, so the
// replay is bit-for-bit the arithmetic a fresh factorization with the same
// pivots would perform.
//
// Options::ordering selects the column order (see DESIGN.md §13). Amd, the
// default, computes an approximate-minimum-degree order on the symmetrized
// pattern up front (sparse/ordering.hpp); Natural is the identity order.
// Either way there is one pivot search: step k eliminates the k-th column
// of that order and picks its row numerically — the diagonal if it passes
// the relative threshold, else the shortest active row that does, ties to
// the larger magnitude. Ordering quality is a pattern property, so the
// analysis costs its flops plus O(factor nnz) rather than the O(n²) of a
// full Markowitz search, which is what makes ≥50k-node meshes tractable.
// Row lengths are the one thing a left-looking elimination lacks. They are
// needed only where the diagonal fails (a voltage-source branch row), and
// are then counted from each row's structural pattern, kept and extended as
// the elimination proceeds. The replay is one serial pass over the stored
// factors.
//
// Replay is guarded: a pivot falling below `pivotFloor · max|A|`, element
// growth beyond `growthLimit · max|A|`, or any non-finite value aborts the
// replay and triggers a fresh full factorization with new pivots (keeping
// the pre-ordered column sequence but re-choosing rows — the numeric-
// stability backstop under any ordering). The caller learns which path ran
// through the returned diag::SolverStatus (Converged = cheap replay,
// Repivoted = fallback).
//
// Refactor skip: the LU keeps a copy of the input values its current
// factors were computed from. refactor() on values bitwise equal to that
// copy (std::memcmp, so -0.0 and 0.0 differ) returns at once — a replay
// would recompute the very same factors. A linear circuit at a fixed step
// therefore factors once per transient, not once per step. The copy is
// written after a successful factor() or replay and invalidated at the start
// of every factor()/refactor(), so a throw leaves it invalid, and so does the
// Repivoted fallback: its fresh pivots have not passed the replay guards, so
// the next call with the same values replays once to check them. The skip
// sits after the factor-repivot fault point, which therefore still fires.
//
// Memory: the analysis charges the stored factorization (storedBytes())
// grow-only to the calling thread's diag::MemAccount, like the workspace
// that owns it, so a job's memory budget sees it.
//
// The factorizer counts its own work on perf::global(), so no caller times
// or counts it: factor() bumps one factorization (its wall time includes
// the AMD ordering, which is also reported alone as orderingNs) and the
// factor fill; refactor() bumps one refactorization (a replay ran), one
// refactor skip (it returned at once), or one factorization when it
// repivots. Solves are counted by the callers that own them.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "diag/convergence.hpp"
#include "diag/thread_annotations.hpp"
#include "sparse/ordering.hpp"
#include "sparse/sparse_matrix.hpp"

namespace rfic::sparse {

struct SymbolicLUTestPeer;  ///< defined by the tests; reads the factors

namespace detail {

/// The replay guards' magnitudes. For a real value they are std::abs. A
/// complex |z| is a hypot, so these first try the bounds
/// 0.7·(|re|+|im|) ≤ |z| ≤ 1.001·(|re|+|im|) (|z| ≥ (|re|+|im|)/√2, with
/// margin for rounding) and take the hypot only where the bounds cannot
/// decide. The results are exactly those of std::abs, NaN, ±inf and
/// near-overflow entries included.

/// The fold m = std::max(m, std::abs(v[p])) from m = 0: the largest
/// magnitude, a NaN magnitude ignored.
Real maxMagnitude(const Real* v, std::size_t n);
Real maxMagnitude(const Complex* v, std::size_t n);
/// std::abs(z) > bound.
inline bool magnitudeAbove(Real z, Real bound) { return std::abs(z) > bound; }
bool magnitudeAbove(const Complex& z, Real bound);

}  // namespace detail

template <class T>
class SymbolicLU {
 public:
  struct Options {
    Real pivotThreshold = 1e-3;  ///< relative threshold vs column max (analysis)
    Real pivotFloor = 1e-12;     ///< replay aborts if |pivot| ≤ floor·max|A|
    Real growthLimit = 1e10;     ///< replay aborts if max|U| > limit·max|A|
    /// Pivot pre-ordering (Auto resolves to the process default / per-job
    /// override at factor() time; see sparse/ordering.hpp).
    Ordering ordering = Ordering::Auto;
  };

  SymbolicLU() = default;
  explicit SymbolicLU(const CSR<T>& a, const Options& opts = {});

  /// Full analysis: pivot ordering + fill discovery + numeric values, and
  /// the row-wise L index the replay walks. Throws NumericalError on
  /// singularity.
  void factor(const CSR<T>& a, const Options& opts = {});

  /// Cheap numeric pass on new values over the analyzed pattern. `values`
  /// must follow the CSR position order of the matrix passed to factor().
  /// Returns SolverStatus::Converged when the replay succeeded, or
  /// SolverStatus::Repivoted when pivot growth forced a fresh full
  /// factorization (with new pivots) from the same values. Values bitwise
  /// equal to the ones the current factors came from skip the replay
  /// (Converged). The replay path is allocation-free; only the Repivoted
  /// fallback allocates.
  RFIC_REALTIME diag::SolverStatus refactor(const std::vector<T>& values);

  bool analyzed() const { return analyzed_; }
  /// Stored factor entries, fill-in included.
  std::size_t factorNnz() const { return n_ + lVal_.size() + uVal_.size(); }
  /// Fill-in ratio: factor entries per input pattern entry (≥ 1 in
  /// practice; the figure of merit the ordering stage minimizes).
  Real fillRatio() const {
    return nnz_ == 0 ? Real(0)
                     : static_cast<Real>(factorNnz()) / static_cast<Real>(nnz_);
  }
  /// Multiply-subtract updates per refactor, Σ_k |L(k)|·|U(k)| (zero
  /// multipliers included).
  std::size_t programFlops() const;
  /// Bytes of the stored factorization (pattern, order, factors, L index,
  /// accumulator, factored-value copy): what the analysis charges.
  std::size_t storedBytes() const;
  /// Bytes the analyses charged to the memory budget so far (grow-only).
  std::size_t chargedBytes() const { return chargedBytes_; }
  /// Original row index of each step's pivot. The column sequence is a
  /// pattern property; these are the numeric choices.
  const std::vector<std::uint32_t>& pivotRows() const { return pivRow_; }
  /// The ordering the last factor() resolved to (Natural or Amd).
  Ordering orderingUsed() const { return resolved_; }
  /// What the last analysis applied through the supernode path: steps
  /// taken by a column without fill bookkeeping, and their multiply-
  /// subtracts (zero multipliers included). A pattern and pivot property.
  struct SupernodeWork {
    std::size_t steps = 0;
    std::size_t flops = 0;
  };
  const SupernodeWork& supernodeWork() const { return snWork_; }

  Vec<T> solve(const Vec<T>& b) const;
  /// Solve Aᵀ·x = b (no conjugation) with the same factors: a Uᵀ pass, then
  /// an Lᵀ pass. Serves adjoint noise and two-sided Lanczos without a
  /// second factorization.
  Vec<T> solveTransposed(const Vec<T>& b) const;

  /// Allocation-free solve for hot loops: writes the solution into `x` and
  /// uses the caller's scratch vectors (all three grow to the system size
  /// on first use and are reused untouched afterwards). `b` must not alias
  /// them.
  RFIC_REALTIME void solve(const Vec<T>& b, Vec<T>& x, Vec<T>& scratchY,
                           Vec<T>& scratchZ) const;

 private:
  friend struct SymbolicLUTestPeer;

  void analyzeFromValues(const T* vals);
  bool replay(const T* vals);

  Options opts_;
  Ordering resolved_ = Ordering::Natural;
  bool analyzed_ = false;
  std::size_t n_ = 0;
  std::size_t nnz_ = 0;  ///< input pattern positions (= workspace prefix)

  // Input pattern, kept so the repivot fallback can rebuild rows from a
  // bare value array.
  std::vector<std::size_t> aRowPtr_;
  std::vector<std::uint32_t> aColIdx_;

  // Column elimination order (AMD, or the identity under Natural).
  // Survives the repivot fallback: re-analysis keeps the column sequence
  // and re-chooses rows from the new values.
  std::vector<std::uint32_t> colOrder_;
  // Entries below the diagonal of the factor if every pivot is diagonal
  // (the Cholesky factor of the symmetrized pattern in colOrder_): the
  // analysis sizes its arrays from it.
  std::size_t diagonalLowerNnz_ = 0;

  // Factorization in flat form. Step k owns L entries [lPtr_[k], lPtr_[k+1])
  // and U entries [uPtr_[k], uPtr_[k+1]); pivRow_/pivCol_ are original
  // indices, lRow_/uCol_ likewise. A step's U entries follow the pivot
  // row's stored order (input CSR position, then fill in creation order).
  std::vector<std::uint32_t> pivRow_, pivCol_;
  std::vector<T> pivVal_;
  std::vector<std::size_t> lPtr_, uPtr_;
  std::vector<std::uint32_t> lRow_, uCol_;
  std::vector<T> lVal_, uVal_;

  // Row-wise L index: the L entries of the row pivoted at step s are
  // rowL_[rowLPtr_[s], rowLPtr_[s+1]), in ascending step. Each holds its
  // step's pivot column and step, and its position in lVal_.
  struct RowL {
    std::uint32_t col;
    std::uint32_t step;
    std::uint32_t l;
  };
  std::vector<std::size_t> rowLPtr_;
  std::vector<RowL> rowL_;

  std::vector<T> acc_;  ///< replay row accumulator (n entries, all-zero
                        ///< between replays)
  std::size_t chargedBytes_ = 0;  ///< storedBytes() charged so far
  SupernodeWork snWork_;

  // Input values the current factors were computed from (nnz_ entries,
  // sized by factor()); refactor() skips the replay on a bitwise match.
  std::vector<T> factoredVals_;
  bool factoredValid_ = false;
};

using RSymbolicLU = SymbolicLU<Real>;
using CSymbolicLU = SymbolicLU<Complex>;

extern template class SymbolicLU<Real>;
extern template class SymbolicLU<Complex>;

}  // namespace rfic::sparse
