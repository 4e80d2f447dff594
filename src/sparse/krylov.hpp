// Krylov-subspace iterative solvers over a matrix-free operator interface.
//
// These are the "iterative linear algebra techniques" the paper's Section
// 2.1 credits with making harmonic balance viable for full RF ICs: the HB
// Jacobian is never formed — only its action on a vector (computed with
// FFTs) is supplied, and GMRES with a block-diagonal preconditioner solves
// the Newton update. The same machinery serves the IES³-compressed MoM
// systems of Section 4.
#pragma once

#include <cstddef>
#include <functional>

#include "diag/convergence.hpp"
#include "diag/resilience.hpp"
#include "numeric/dense.hpp"
#include "sparse/sparse_matrix.hpp"

namespace rfic::sparse {

using numeric::Vec;

/// Abstract linear operator y = A·x of dimension dim()×dim().
template <class T>
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  virtual std::size_t dim() const = 0;
  virtual void apply(const Vec<T>& x, Vec<T>& y) const = 0;
};

/// Wrap a callable as a LinearOperator.
template <class T>
class FunctionOperator final : public LinearOperator<T> {
 public:
  using Fn = std::function<void(const Vec<T>&, Vec<T>&)>;
  FunctionOperator(std::size_t n, Fn fn) : n_(n), fn_(std::move(fn)) {}
  std::size_t dim() const override { return n_; }
  void apply(const Vec<T>& x, Vec<T>& y) const override { fn_(x, y); }

 private:
  std::size_t n_;
  Fn fn_;
};

/// View a CSR matrix as a LinearOperator (no copy; the matrix must outlive
/// the operator).
template <class T>
class CSROperator final : public LinearOperator<T> {
 public:
  explicit CSROperator(const CSR<T>& a) : a_(a) {}
  std::size_t dim() const override { return a_.rows(); }
  void apply(const Vec<T>& x, Vec<T>& y) const override { a_.multiply(x, y); }

 private:
  const CSR<T>& a_;
};

/// Iteration report shared by all solvers. `status` classifies *why* the
/// solver stopped (converged / iteration cap / breakdown / stagnation /
/// divergence); `converged` is kept as the common fast-path query.
struct IterativeResult {
  bool converged = false;
  std::size_t iterations = 0;
  Real residualNorm = 0;
  diag::SolverStatus status = diag::SolverStatus::NotRun;

  /// Stable name of `status` for logs and error messages.
  const char* statusName() const { return diag::toString(status); }
};

struct IterativeOptions {
  Real tolerance = 1e-10;      ///< relative residual target ‖r‖/‖b‖
  std::size_t maxIterations = 500;
  std::size_t restart = 60;    ///< GMRES restart length
  /// CG stagnation window: iterations without any best-residual
  /// improvement before the solver reports SolverStatus::Stagnated instead
  /// of burning the rest of the iteration cap. 0 = auto,
  /// max(50, maxIterations/10). (GMRES detects stagnation per restart
  /// cycle: a cycle with no residual reduction means the reachable Krylov
  /// space is exhausted.)
  std::size_t stagnationWindow = 0;
  /// Optional cooperative budget: every iteration is charged, and the
  /// solver returns SolverStatus::BudgetExceeded with the current partial
  /// iterate when the budget trips.
  diag::RunBudget* budget = nullptr;
};

/// Reusable GMRES state: every buffer a solve needs (Arnoldi basis,
/// Hessenberg factor, Givens rotations, projected rhs, work vectors).
/// Buffers grow to the problem/restart size on first use and are reused
/// verbatim afterwards, so a caller that keeps one workspace across Newton
/// iterations pays no heap allocation in steady state — the discipline the
/// HB matrix-implicit inner loop depends on. Not thread-safe: one
/// workspace per concurrent solve.
template <class T>
struct GmresWorkspace {
  std::vector<Vec<T>> v;        ///< Arnoldi basis (restart+1 vectors)
  numeric::Mat<T> h;            ///< projected Hessenberg factor
  std::vector<T> cs, sn, g, y;  ///< rotations, projected rhs, small solve
  Vec<T> w, tmp, r, du;         ///< length-n work vectors
};

/// Restarted GMRES(m) with optional right preconditioner M⁻¹ (pass nullptr
/// for none): solves A·M⁻¹·u = b, x = M⁻¹·u. Pass a GmresWorkspace kept
/// across calls to make repeated solves allocation-free; with ws == nullptr
/// a transient workspace is used.
template <class T>
IterativeResult gmres(const LinearOperator<T>& a, const Vec<T>& b, Vec<T>& x,
                      const LinearOperator<T>* rightPrec = nullptr,
                      const IterativeOptions& opts = {},
                      GmresWorkspace<T>* ws = nullptr);

/// Unpreconditioned convenience (avoids nullptr template-deduction
/// friction at call sites).
template <class T>
IterativeResult gmres(const LinearOperator<T>& a, const Vec<T>& b, Vec<T>& x,
                      const IterativeOptions& opts) {
  return gmres<T>(a, b, x, nullptr, opts);
}

/// Conjugate gradients for symmetric positive definite A (real only).
IterativeResult conjugateGradient(const LinearOperator<Real>& a,
                                  const Vec<Real>& b, Vec<Real>& x,
                                  const IterativeOptions& opts = {});

/// Jacobi (diagonal) preconditioner built from a CSR matrix.
template <class T>
class JacobiPreconditioner final : public LinearOperator<T> {
 public:
  explicit JacobiPreconditioner(const CSR<T>& a);
  std::size_t dim() const override { return invDiag_.size(); }
  void apply(const Vec<T>& x, Vec<T>& y) const override;

 private:
  Vec<T> invDiag_;
};

extern template IterativeResult gmres<Real>(const LinearOperator<Real>&,
                                            const Vec<Real>&, Vec<Real>&,
                                            const LinearOperator<Real>*,
                                            const IterativeOptions&,
                                            GmresWorkspace<Real>*);
extern template IterativeResult gmres<Complex>(const LinearOperator<Complex>&,
                                               const Vec<Complex>&,
                                               Vec<Complex>&,
                                               const LinearOperator<Complex>*,
                                               const IterativeOptions&,
                                               GmresWorkspace<Complex>*);
extern template class JacobiPreconditioner<Real>;
extern template class JacobiPreconditioner<Complex>;

}  // namespace rfic::sparse
