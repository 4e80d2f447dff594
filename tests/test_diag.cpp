// Tests for the numerics-contract layer (src/diag/): finite-value and
// dimension checks, FE-exception trapping, and the structured convergence
// statuses every iterative solver must report.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "diag/contracts.hpp"
#include "diag/convergence.hpp"
#include "diag/fe_trap.hpp"
#include "numeric/dense.hpp"
#include "sparse/krylov.hpp"

namespace rfic {
namespace {

using diag::SolverStatus;
using numeric::RVec;
using sparse::IterativeOptions;
using sparse::IterativeResult;
using sparse::RCSR;

constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();
constexpr Real kInf = std::numeric_limits<Real>::infinity();

TEST(Contracts, CheckFiniteScalarAcceptsFiniteValues) {
  EXPECT_NO_THROW(diag::checkFinite(0.0, "x"));
  EXPECT_NO_THROW(diag::checkFinite(-1e308, "x"));
  EXPECT_NO_THROW(diag::checkFinite(Complex(1.0, -2.0), "z"));
}

TEST(Contracts, CheckFiniteScalarThrowsOnNaNAndInf) {
  EXPECT_THROW(diag::checkFinite(kNaN, "x"), NumericalError);
  EXPECT_THROW(diag::checkFinite(kInf, "x"), NumericalError);
  EXPECT_THROW(diag::checkFinite(-kInf, "x"), NumericalError);
  EXPECT_THROW(diag::checkFinite(Complex(0.0, kNaN), "z"), NumericalError);
  EXPECT_THROW(diag::checkFinite(Complex(kInf, 0.0), "z"), NumericalError);
}

TEST(Contracts, CheckFiniteContainerReportsOffendingIndex) {
  RVec v(4, 1.0);
  EXPECT_NO_THROW(diag::checkFinite(v, "v"));
  v[2] = kNaN;
  try {
    diag::checkFinite(v, "v");
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("index 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("v"), std::string::npos);
  }
}

TEST(Contracts, CheckDimsReportsBothSizes) {
  EXPECT_NO_THROW(diag::checkDims(3, 3, "rhs"));
  try {
    diag::checkDims(3, 5, "rhs");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("got 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected 5"), std::string::npos) << msg;
  }
}

TEST(Contracts, ExactlyZeroIsExact) {
  EXPECT_TRUE(diag::exactlyZero(0.0));
  EXPECT_TRUE(diag::exactlyZero(-0.0));
  EXPECT_FALSE(diag::exactlyZero(1e-300));
  EXPECT_FALSE(diag::exactlyZero(kNaN));
  EXPECT_TRUE(diag::exactlyZero(Complex(0.0, 0.0)));
  EXPECT_FALSE(diag::exactlyZero(Complex(0.0, 1e-300)));
}

TEST(Contracts, MacrosMatchBuildMode) {
  // In the Diag build type the hot-path macros are live; in every other
  // build they compile to nothing. The test adapts so the suite passes
  // under both configurations.
#ifdef RFIC_DIAG
  EXPECT_THROW(RFIC_CHECK_FINITE(kNaN, "macro"), NumericalError);
  EXPECT_THROW(RFIC_CHECK_DIMS(2, 3, "macro"), InvalidArgument);
  EXPECT_THROW(RFIC_CONTRACT(1 + 1 == 3, "macro"), NumericalError);
#else
  EXPECT_NO_THROW(RFIC_CHECK_FINITE(kNaN, "macro"));
  EXPECT_NO_THROW(RFIC_CHECK_DIMS(2, 3, "macro"));
  EXPECT_NO_THROW(RFIC_CONTRACT(1 + 1 == 3, "macro"));
#endif
}

TEST(FeTrap, ScopedTrapRestoresQuietNaNBehaviour) {
  // Construct and destroy the guard; afterwards quiet-NaN arithmetic must
  // work again (i.e. the trap mask was restored, not left enabled).
  { diag::ScopedFeTrap trap; }
  volatile Real zero = 0.0;
  volatile Real q = zero / (zero + 1.0);  // fine under any mask
  EXPECT_EQ(q, 0.0);
  const Real nan = std::sqrt(-1.0);
  EXPECT_TRUE(std::isnan(nan));
}

// --- structured convergence statuses -------------------------------------

// 3x3 singular system: rank-2 matrix with an inconsistent right-hand side.
// No x satisfies A x = b, so a correct solver must classify its failure
// instead of returning an unconverged result that looks like a timeout.
RCSR singularMatrix() {
  sparse::RTriplets t(3, 3);
  t.add(0, 0, 1.0);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 1.0);  // row 1 duplicates row 0
  t.add(2, 2, 1.0);
  return RCSR(t);
}

TEST(SolverStatus, GmresClassifiesSingularSystem) {
  const RCSR a = singularMatrix();
  const sparse::CSROperator<Real> op(a);
  RVec b{1.0, 0.0, 0.0};  // inconsistent: rows 0 and 1 demand different sums
  RVec x;
  IterativeOptions opts;
  opts.maxIterations = 100;
  const IterativeResult res = sparse::gmres(op, b, x, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_NE(res.status, SolverStatus::NotRun);
  EXPECT_NE(res.status, SolverStatus::Converged);
  // The Krylov space of this rank-deficient system exhausts after a couple
  // of restarts with no residual reduction: stagnation, not a timeout.
  EXPECT_EQ(res.status, SolverStatus::Stagnated) << res.statusName();
  EXPECT_GT(res.residualNorm, 0.0);
}

TEST(SolverStatus, ZeroRhsConvergesImmediately) {
  const RCSR a = singularMatrix();
  const sparse::CSROperator<Real> op(a);
  RVec b(3, 0.0);
  RVec x{5.0, 5.0, 5.0};
  const IterativeResult res = sparse::gmres(op, b, x, IterativeOptions{});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.status, SolverStatus::Converged);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(x[i], 0.0);
}

TEST(SolverStatus, NanOperatorReportsDiverged) {
  // An operator that emits NaN (e.g. an uninitialized device stamp) must be
  // reported as Diverged, not spin until maxIterations.
  const sparse::FunctionOperator<Real> op(
      2, [](const RVec& in, RVec& out) {
        out.resize(in.size());
        for (std::size_t i = 0; i < in.size(); ++i) out[i] = kNaN;
      });
  RVec b{1.0, 1.0};
  RVec x;
  IterativeOptions opts;
  opts.maxIterations = 50;
  const IterativeResult gm = sparse::gmres(op, b, x, opts);
  EXPECT_FALSE(gm.converged);
  EXPECT_EQ(gm.status, SolverStatus::Diverged) << gm.statusName();
}

TEST(SolverStatus, RhsSizeMismatchThrows) {
  const RCSR a = singularMatrix();
  const sparse::CSROperator<Real> op(a);
  RVec b(2, 1.0);  // operator dim is 3
  RVec x;
  EXPECT_THROW(sparse::gmres(op, b, x, IterativeOptions{}), InvalidArgument);
}

TEST(SolverStatus, StatusNamesAreStable) {
  EXPECT_STREQ(diag::toString(SolverStatus::NotRun), "not-run");
  EXPECT_STREQ(diag::toString(SolverStatus::Converged), "converged");
  EXPECT_STREQ(diag::toString(SolverStatus::MaxIterations), "max-iterations");
  EXPECT_STREQ(diag::toString(SolverStatus::Breakdown), "breakdown");
  EXPECT_STREQ(diag::toString(SolverStatus::Stagnated), "stagnated");
  EXPECT_STREQ(diag::toString(SolverStatus::Diverged), "diverged");
  IterativeResult r;
  EXPECT_STREQ(r.statusName(), "not-run");
}

}  // namespace
}  // namespace rfic
