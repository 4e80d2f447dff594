// The shared Newton kernel (diag/newton.hpp) on scalar problems: each
// status, one budget charge per iteration, the fault seams, the damping
// rule and the restart ladder.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "diag/contracts.hpp"
#include "diag/newton.hpp"
#include "perf/perf.hpp"

namespace rfic::diag {
namespace {

constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();
constexpr Real kInf = std::numeric_limits<Real>::infinity();

struct InjectorGuard {
  InjectorGuard() { FaultInjector::global().reset(); }
  ~InjectorGuard() { FaultInjector::global().reset(); }
};

// Scalar Newton on f from x0 with |f| < 1e-12 as the convergence test; a
// zero derivative fails the solve step as a singular Jacobian would.
struct Scalar {
  std::function<Real(Real)> f, df;
  Real x = 0;

  NewtonResult solve(const NewtonLoop& loop) {
    Real fx = 0, dx = 0;
    return runNewton(
        loop,
        [&](std::size_t, const NewtonSeams& seams) {
          fx = f(x);
          const Real norm = seams.residual(std::abs(fx));
          return NewtonCheck{norm, norm < 1e-12};
        },
        [&](const NewtonSeams& seams) {
          seams.jacobian();
          const Real d = df(x);
          if (exactlyZero(d)) failNumerical("zero derivative");
          dx = fx / d;
        },
        [&](Real) { x -= dx; });
  }
};

TEST(NewtonKernel, StatusTable) {
  const auto sq = [](Real x) { return x * x - 2.0; };
  const auto dsq = [](Real x) { return 2.0 * x; };
  const struct {
    const char* name;
    Scalar problem;
    std::size_t cap;
    SolverStatus status;
    std::size_t iterations;
  } cases[] = {
      {"x^2-2 from 1", {sq, dsq, 1.0}, 50, SolverStatus::Converged, 6},
      {"x^2-2 capped", {sq, dsq, 1.0}, 3, SolverStatus::MaxIterations, 3},
      {"NaN residual", {[](Real) { return kNaN; }, dsq, 1.0}, 50,
       SolverStatus::Diverged, 1},
      {"Inf residual", {[](Real) { return -kInf; }, dsq, 1.0}, 50,
       SolverStatus::Diverged, 1},
      {"Jacobian throws", {sq, [](Real) { return 0.0; }, 1.0}, 50,
       SolverStatus::Breakdown, 1},
      {"no iterations", {sq, dsq, 1.0}, 0, SolverStatus::MaxIterations, 0},
  };
  for (const auto& c : cases) {
    Scalar p = c.problem;
    RunBudget budget;
    const NewtonResult r =
        p.solve({.maxIterations = c.cap, .budget = &budget});
    EXPECT_EQ(r.status, c.status) << c.name;
    EXPECT_EQ(r.iterations, c.iterations) << c.name;
    EXPECT_EQ(budget.newtonUsed(), c.iterations) << c.name;
  }
  Scalar p{sq, dsq, 1.0};
  ASSERT_EQ(p.solve({.maxIterations = 50}).status, SolverStatus::Converged);
  EXPECT_NEAR(p.x, std::sqrt(2.0), 1e-15);
}

TEST(NewtonKernel, BudgetChargedOncePerIteration) {
  const auto sq = [](Real x) { return x * x - 2.0; };
  const auto dsq = [](Real x) { return 2.0 * x; };
  // The third charge reaches the limit, and the poll after it stops.
  RunBudget limited;
  limited.setNewtonLimit(3);
  Scalar p{sq, dsq, 1.0};
  NewtonResult r = p.solve({.maxIterations = 50, .budget = &limited});
  EXPECT_EQ(r.status, SolverStatus::BudgetExceeded);
  EXPECT_EQ(r.iterations, 3u);
  EXPECT_EQ(limited.newtonUsed(), 3u);

  // A tripped budget stops the first iteration, which is still charged.
  RunBudget cancelled;
  cancelled.requestCancel();
  p = {sq, dsq, 1.0};
  r = p.solve({.maxIterations = 50, .budget = &cancelled});
  EXPECT_EQ(r.status, SolverStatus::BudgetExceeded);
  EXPECT_EQ(r.iterations, 1u);
  EXPECT_EQ(cancelled.newtonUsed(), 1u);
  EXPECT_EQ(p.x, 1.0);

  // A loop inside a time step charges without polling: its step boundary
  // polls.
  p = {sq, dsq, 1.0};
  r = p.solve(
      {.maxIterations = 50, .budget = &cancelled, .pollBudget = false});
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_EQ(cancelled.newtonUsed(), 1u + r.iterations);
}

TEST(NewtonKernel, FaultSeams) {
  InjectorGuard guard;
  const auto sq = [](Real x) { return x * x - 2.0; };
  const auto dsq = [](Real x) { return 2.0 * x; };
  auto& inj = FaultInjector::global();

  inj.arm(FaultPoint::NanInResidual, 1);
  Scalar p{sq, dsq, 1.0};
  NewtonResult r = p.solve({.maxIterations = 50});
  EXPECT_EQ(r.status, SolverStatus::Diverged);
  EXPECT_EQ(r.iterations, 1u);
  EXPECT_EQ(inj.firedCount(FaultPoint::NanInResidual), 1u);

  inj.reset();
  inj.arm(FaultPoint::SingularJacobian, 1);
  p = {sq, dsq, 1.0};
  r = p.solve({.maxIterations = 50});
  EXPECT_EQ(r.status, SolverStatus::Breakdown);
  EXPECT_EQ(r.iterations, 1u);
  EXPECT_EQ(inj.firedCount(FaultPoint::SingularJacobian), 1u);

  // A disarmed injector leaves the solve alone.
  inj.reset();
  p = {sq, dsq, 1.0};
  EXPECT_EQ(p.solve({.maxIterations = 50}).status, SolverStatus::Converged);
}

TEST(NewtonKernel, PhasesEndTheSolve) {
  // A solve or update step that returns a status ends the solve with it.
  std::size_t updates = 0;
  const auto check = [](std::size_t, const NewtonSeams&) {
    return NewtonCheck{1.0, false};
  };
  NewtonResult r = runNewton(
      {.maxIterations = 10}, check, [](const NewtonSeams&) {},
      [&](Real) -> NewtonStop {
        if (++updates == 4) return SolverStatus::Converged;
        return std::nullopt;
      });
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_EQ(r.iterations, 4u);
  r = runNewton(
      {.maxIterations = 10}, check,
      [](const NewtonSeams&) -> NewtonStop { return SolverStatus::Stagnated; },
      [&](Real) { ADD_FAILURE() << "update after a stopped solve step"; });
  EXPECT_EQ(r.status, SolverStatus::Stagnated);
  // A status from the residual step wins over its norm.
  r = runNewton(
      {.maxIterations = 10},
      [](std::size_t, const NewtonSeams&) {
        return NewtonCheck{kNaN, false, SolverStatus::Breakdown};
      },
      [](const NewtonSeams&) {}, [](Real) {});
  EXPECT_EQ(r.status, SolverStatus::Breakdown);
}

TEST(NewtonKernel, DampedStepHalvesAndNeverTakesNonFinite) {
  std::vector<Real> tried;
  // Norms 8, 4, 2.5, 1.5 against rnorm 1 and growth 2: the fourth trial
  // (three halvings) is the first within 2·rnorm.
  const Real norms[] = {8.0, 4.0, 2.5, 1.5, 0.1};
  std::optional<Real> alpha = dampedStep(8, 1.0, 2.0, [&](Real a) {
    tried.push_back(a);
    return norms[tried.size() - 1];
  });
  ASSERT_TRUE(alpha.has_value());
  EXPECT_EQ(*alpha, 0.125);
  EXPECT_EQ(tried, (std::vector<Real>{1.0, 0.5, 0.25, 0.125}));

  // Non-finite trials are skipped even when they are the last chance.
  tried.clear();
  alpha = dampedStep(8, 1.0, 2.0, [&](Real a) {
    tried.push_back(a);
    return kNaN;
  });
  EXPECT_FALSE(alpha.has_value());
  ASSERT_EQ(tried.size(), 9u);
  EXPECT_EQ(tried.back(), 1.0 / 256.0);

  // At the cap a finite trial is taken however large.
  tried.clear();
  alpha = dampedStep(3, 1.0, 2.0, [&](Real a) {
    tried.push_back(a);
    return tried.size() < 4 ? kInf : 1e30;
  });
  ASSERT_TRUE(alpha.has_value());
  EXPECT_EQ(*alpha, 0.125);
  EXPECT_EQ(tried.size(), 4u);
}

TEST(NewtonKernel, RestartLadder) {
  const auto run = [](std::size_t maxRetries,
                      std::vector<SolverStatus> outcomes) {
    std::size_t attempts = 0, tightened = 0, retries = 0;
    const SolverStatus last = restartLadder(
        maxRetries, retries, [&] { return outcomes[attempts++]; },
        [&] { ++tightened; });
    EXPECT_EQ(retries, tightened);
    EXPECT_EQ(attempts, tightened + 1);
    return std::make_pair(last, retries);
  };
  using S = SolverStatus;
  const std::uint64_t before = perf::global().snapshot().retries;
  EXPECT_EQ(run(3, {S::Breakdown, S::Diverged, S::Converged}),
            std::make_pair(S::Converged, std::size_t{2}));
  EXPECT_EQ(run(1, {S::Breakdown, S::MaxIterations}),
            std::make_pair(S::MaxIterations, std::size_t{1}));
  EXPECT_EQ(run(5, {S::BudgetExceeded}),
            std::make_pair(S::BudgetExceeded, std::size_t{0}));
  EXPECT_EQ(run(0, {S::Stagnated}),
            std::make_pair(S::Stagnated, std::size_t{0}));
  EXPECT_EQ(perf::global().snapshot().retries - before, 3u);
}

}  // namespace
}  // namespace rfic::diag
