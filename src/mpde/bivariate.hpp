// Bivariate (multi-time) waveform representation — the core idea of the
// MPDE formulation of Section 2.2: a quasi-periodic signal y(t) with widely
// separated rates is represented as ŷ(t1, t2), biperiodic and cheap to
// sample, with y(t) = ŷ(t, t).
#pragma once

#include <functional>
#include <vector>

#include "numeric/dense.hpp"

namespace rfic::mpde {


using numeric::RVec;

/// States of a circuit on an (m1 × m2) biperiodic grid: x̂(t1_i, t2_j) with
/// t1_i = i·T1/m1, t2_j = j·T2/m2.
class BivariateGrid {
 public:
  BivariateGrid() = default;
  BivariateGrid(std::size_t n, std::size_t m1, std::size_t m2, Real t1Period,
                Real t2Period)
      : n_(n), m1_(m1), m2_(m2), T1_(t1Period), T2_(t2Period),
        data_(n * m1 * m2, 0.0) {}

  std::size_t dim() const { return n_; }
  std::size_t m1() const { return m1_; }
  std::size_t m2() const { return m2_; }
  Real t1Period() const { return T1_; }
  Real t2Period() const { return T2_; }
  Real t1(std::size_t i) const {
    return T1_ * static_cast<Real>(i) / static_cast<Real>(m1_);
  }
  Real t2(std::size_t j) const {
    return T2_ * static_cast<Real>(j) / static_cast<Real>(m2_);
  }

  Real& at(std::size_t u, std::size_t i, std::size_t j) {
    return data_[(i * m2_ + j) * n_ + u];
  }
  Real at(std::size_t u, std::size_t i, std::size_t j) const {
    return data_[(i * m2_ + j) * n_ + u];
  }

  /// Store the state vector x at grid point (i, j).
  void setState(std::size_t i, std::size_t j, const RVec& x);

  /// Value of the physical signal x_u(t) = x̂_u(t, t) by bilinear
  /// interpolation on the biperiodic grid.
  Real evaluateUnivariate(std::size_t u, Real t) const;

  /// Time-varying slow harmonic X_k(t2_j): the k-th Fourier coefficient of
  /// the t1-dependence, one complex value per fast sample — the quantity
  /// Fig. 4 plots for the switching mixer.
  std::vector<Complex> slowHarmonicVsFast(std::size_t u, int k) const;

  /// Full mix-product coefficient X_{k1,k2}: amplitude of the tone at
  /// k1/T1 + k2/T2 is 2·|X_{k1,k2}| (k ≠ 0).
  Complex mixCoefficient(std::size_t u, int k1, int k2) const;

 private:
  std::size_t n_ = 0, m1_ = 0, m2_ = 0;
  Real T1_ = 0, T2_ = 0;
  std::vector<Real> data_;
};

/// --- Fig. 2 / Fig. 3 reproduction helpers -------------------------------
///
/// The paper's demonstration signal: y(t) = sin(2π t/T1) · pulse(t/T2),
/// where pulse is a raised-cosine-edged rectangular pulse train of unit
/// period, and T1/T2 is the time-scale separation (10⁹ in the paper's
/// example).
Real demoPulse(Real phase, Real edge = 0.05);
Real demoSignal(Real t, Real t1Period, Real t2Period);

/// Number of uniform samples per T1 needed to represent y(t) on [0, T1) to
/// within `tol` (max interpolation error, linear interpolation), univariate
/// sampling. Grows linearly with the scale separation.
std::size_t univariateSamplesNeeded(Real scaleSeparation, Real tol);

/// Number of samples of the bivariate form ŷ(t1, t2) = sin(2π t1)·pulse(t2)
/// needed for the same accuracy — independent of the separation.
std::size_t bivariateSamplesNeeded(Real tol);

/// Max |y(t) − interp(ŷ)(t, t)| over a probe set: demonstrates that the
/// bivariate reconstruction reproduces the univariate signal.
Real bivariateReconstructionError(Real scaleSeparation, std::size_t m1,
                                  std::size_t m2);

}  // namespace rfic::mpde
