// Linear descriptor systems for reduced-order modeling (Section 5).
//
// The large linear sub-blocks of RF ICs — extracted interconnect, package,
// substrate networks — are represented as
//     (G + s·C)·x = b·u,    y = lᵀ·x,
// with transfer function H(s) = lᵀ(G + sC)⁻¹b. Expanded about s0, the
// moments are m_k = lᵀ·A^k·r with A = (G + s0·C)⁻¹C, r = (G + s0·C)⁻¹b:
//     H(s0 + σ) = Σ_k (−σ)^k·m_k.
#pragma once

#include <memory>

#include "numeric/dense.hpp"
#include "sparse/sparse_matrix.hpp"
#include "sparse/symbolic_lu.hpp"

namespace rfic::rom {

using numeric::CVec;
using numeric::RVec;

/// SISO descriptor system with sparse G and C.
struct DescriptorSystem {
  std::size_t n = 0;
  sparse::RTriplets G, C;
  RVec b;  ///< input vector
  RVec l;  ///< output vector

  /// Exact transfer function by one sparse complex solve.
  Complex transferFunction(Complex s) const;
};

/// Krylov workhorse shared by PVL/Arnoldi/PRIMA: applies A = K⁻¹C and
/// computes r = K⁻¹b with a single factorization of K = G + s0·C.
class ExpansionOperator {
 public:
  ExpansionOperator(const DescriptorSystem& sys, Real s0);
  std::size_t dim() const { return sys_.n; }
  const RVec& r() const { return r_; }
  /// y = A·x = K⁻¹·C·x
  RVec apply(const RVec& x) const;
  /// y = Aᵀ·x = Cᵀ·K⁻ᵀ·x — required by the two-sided Lanczos process.
  RVec applyTransposed(const RVec& x) const;

 private:
  const DescriptorSystem& sys_;
  sparse::RCSR c_;
  sparse::RSymbolicLU k_;  // K; Kᵀ solves reuse its factors
  RVec r_;
};

/// Exact moments m_0..m_{count−1} about s0 (reference for the
/// moment-matching claims: PVL matches 2q, Arnoldi matches q).
std::vector<Real> exactMoments(const DescriptorSystem& sys, Real s0,
                               std::size_t count);

/// --- Benchmark-system generators ----------------------------------------

/// Uniform RC transmission line: `segments` sections of series R and shunt
/// C, driven by a current source at node 0, output voltage at the far end.
DescriptorSystem makeRCLine(std::size_t segments, Real rTotal, Real cTotal);

/// RLC line with series R-L and shunt C per segment (adds resonant poles).
DescriptorSystem makeRLCLine(std::size_t segments, Real rTotal, Real lTotal,
                             Real cTotal);

/// Binary RC tree with side loads — a stand-in for extracted clock or
/// power-grid interconnect with many spread poles.
DescriptorSystem makeRCTree(std::size_t depth, Real rSeg, Real cSeg);

}  // namespace rfic::rom
