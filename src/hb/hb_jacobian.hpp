// Matrix-implicit HB Jacobian operator and its block-diagonal
// preconditioner.
//
// The Jacobian of the HB residual at the current spectrum X is
//   J = Ω·Γ C(t) Γ⁻¹ + Γ G(t) Γ⁻¹
// where Γ is the (multi-dimensional) DFT and G(t), C(t) are the per-sample
// device Jacobians along the current waveform. J is dense in the harmonic
// blocks of nonlinear circuits and is never formed; apply() computes J·y by
// inverse FFT → per-sample sparse multiplies → FFT. All samples share one
// CSR sparsity pattern (the circuit topology does not change along the
// waveform), so the operator holds one pattern plus per-sample value
// arrays.
//
// The preconditioner uses the time-averaged Ḡ, C̄, for which the same
// expression is exactly block-diagonal: one complex factorization
// Ḡ + jω_κ·C̄ per retained harmonic κ. This pairing is the "iterative
// linear algebra" enabler of full-chip HB cited in Section 2.1 [10, 31].
// The blocks persist across Newton iterations: after the first build each
// update() is a numeric refactorization on the recorded pivot order, and
// the independent per-harmonic factorizations run on the process thread
// pool.
#pragma once

#include <vector>

#include "diag/thread_annotations.hpp"
#include "numeric/dense.hpp"
#include "perf/perf.hpp"
#include "sparse/krylov.hpp"
#include "sparse/sparse_matrix.hpp"
#include "sparse/symbolic_lu.hpp"

namespace rfic::hb {

class HarmonicBalance;

/// Matrix-free HB Jacobian (real-vector view of the complex spectra).
/// Holds references to the caller's shared pattern and per-sample value
/// arrays — construction is free, so a fresh operator per Newton iteration
/// costs nothing.
class HBOperator final : public sparse::LinearOperator<Real> {
 public:
  HBOperator(const HarmonicBalance& engine, const sparse::RCSR& pattern,
             const std::vector<std::vector<Real>>& gSampleVals,
             const std::vector<std::vector<Real>>& cSampleVals);
  std::size_t dim() const override;
  /// J·y — the inner loop of every HB GMRES iteration; allocation-free in
  /// steady state (engine workspace + cached plans).
  RFIC_REALTIME void apply(const numeric::RVec& y,
                           numeric::RVec& out) const override;

 private:
  const HarmonicBalance& eng_;
  const sparse::RCSR& pat_;
  const std::vector<std::vector<Real>>& g_, c_;
};

/// Block-diagonal preconditioner: M⁻¹ r solves (Ḡ + jω_κ C̄) z_κ = r_κ for
/// every retained harmonic independently.
class HBBlockPreconditioner final : public sparse::LinearOperator<Real> {
 public:
  /// Persistent form: construct once, update() every Newton iteration.
  explicit HBBlockPreconditioner(const HarmonicBalance& engine);

  /// (Re)factor every harmonic block from new time averages. While the
  /// union pattern of Ḡ and C̄ is unchanged, each block is a cheap numeric
  /// refactorization; the independent blocks run in parallel on
  /// perf::ThreadPool::global().
  void update(const sparse::RTriplets& gAvg, const sparse::RTriplets& cAvg);

  std::size_t dim() const override;
  /// M⁻¹·r — per-harmonic block solves; allocation-free in steady state.
  RFIC_REALTIME void apply(const numeric::RVec& r,
                           numeric::RVec& z) const override;

 private:
  const HarmonicBalance& eng_;
  // Union pattern of Ḡ and C̄; packed.values() carries (g, c) as the real
  // and imaginary parts, so block κ's values are Complex(g_p, ω_κ·c_p).
  sparse::CCSR packed_;
  bool havePattern_ = false;
  std::vector<sparse::CSymbolicLU> blocks_;
  /// Persistent per-block value arrays: update() overwrites them in place,
  /// so refactorization sweeps after the first allocate nothing.
  std::vector<std::vector<Complex>> blockVals_;
};

}  // namespace rfic::hb
