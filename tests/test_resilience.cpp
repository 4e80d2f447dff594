// Solver resilience layer: RunBudget semantics, the fault-injection
// matrix (engine × fault point ⇒ structured recovery or clean failure),
// checkpoint/restart bit-identity, retry ladders, and the Krylov
// stagnation detectors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>

#include "analysis/dc.hpp"
#include "analysis/shooting.hpp"
#include "analysis/transient.hpp"
#include "circuit/devices.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"
#include "diag/resilience.hpp"
#include "hb/harmonic_balance.hpp"
#include "mpde/envelope.hpp"
#include "mpde/mfdtd.hpp"
#include "perf/perf.hpp"
#include "phasenoise/jitter_mc.hpp"
#include "sparse/krylov.hpp"
#include "sparse/ordering.hpp"

namespace rfic {
namespace {

using namespace rfic::circuit;
using numeric::RVec;

// Every test that arms the process-global injector clears it on both ends
// so a failing assertion cannot leak armed faults into later tests.
struct InjectorGuard {
  InjectorGuard() { diag::FaultInjector::global().reset(); }
  ~InjectorGuard() { diag::FaultInjector::global().reset(); }
};

std::string tempPath(const char* name) {
  return ::testing::TempDir() + name;
}

// ------------------------------------------------------------- RunBudget

TEST(RunBudget, NewtonLimitTripsAndSticks) {
  diag::RunBudget b;
  b.setNewtonLimit(10);
  for (int i = 0; i < 9; ++i) b.chargeNewton();
  EXPECT_FALSE(b.exceeded());
  b.chargeNewton();
  EXPECT_TRUE(b.exceeded());
  EXPECT_STREQ(b.reason(), "newton-iterations");
  // Sticky: still tripped even though no further work is charged.
  EXPECT_TRUE(b.exceeded());
  EXPECT_TRUE(diag::budgetExceeded(&b));
}

TEST(RunBudget, KrylovLimitTrips) {
  diag::RunBudget b;
  b.setKrylovLimit(3);
  b.chargeKrylov(3);
  EXPECT_TRUE(b.exceeded());
  EXPECT_STREQ(b.reason(), "krylov-iterations");
}

TEST(RunBudget, WallDeadlineTrips) {
  diag::RunBudget b;
  b.setWallLimit(1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(b.exceeded());
  EXPECT_STREQ(b.reason(), "wall-clock");
}

TEST(RunBudget, DisarmedAndNullNeverTrip) {
  diag::RunBudget b;
  b.chargeNewton(1000000);
  b.chargeKrylov(1000000);
  EXPECT_FALSE(b.exceeded());
  EXPECT_STREQ(b.reason(), "");
  EXPECT_FALSE(diag::budgetExceeded(nullptr));
  EXPECT_FALSE(diag::budgetExceeded(&b));
}

// --------------------------------------------------------- FaultInjector

TEST(FaultInjector, CountdownFiresExactly) {
  InjectorGuard guard;
  auto& inj = diag::FaultInjector::global();
  EXPECT_FALSE(inj.anyArmed());
  EXPECT_FALSE(inj.fire(diag::FaultPoint::KrylovStall));
  inj.arm(diag::FaultPoint::KrylovStall, 2);
  EXPECT_TRUE(inj.anyArmed());
  EXPECT_TRUE(inj.fire(diag::FaultPoint::KrylovStall));
  EXPECT_TRUE(inj.fire(diag::FaultPoint::KrylovStall));
  EXPECT_FALSE(inj.fire(diag::FaultPoint::KrylovStall));
  EXPECT_EQ(inj.firedCount(diag::FaultPoint::KrylovStall), 2u);
  // Arming one point does not arm the others.
  EXPECT_FALSE(inj.fire(diag::FaultPoint::NanInResidual));
}

TEST(FaultInjector, SpecParsing) {
  InjectorGuard guard;
  auto& inj = diag::FaultInjector::global();
  inj.arm("singular-jacobian:3");
  inj.arm("nan-in-residual");
  EXPECT_TRUE(inj.fire(diag::FaultPoint::NanInResidual));
  EXPECT_FALSE(inj.fire(diag::FaultPoint::NanInResidual));
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(inj.fire(diag::FaultPoint::SingularJacobian));
  EXPECT_FALSE(inj.fire(diag::FaultPoint::SingularJacobian));
  EXPECT_THROW(inj.arm("no-such-point"), InvalidArgument);
  EXPECT_THROW(inj.arm("krylov-stall:bogus"), InvalidArgument);
}

TEST(FaultInjector, BudgetExpiryInjectionTripsBudget) {
  InjectorGuard guard;
  diag::RunBudget b;
  EXPECT_FALSE(diag::budgetExceeded(&b));
  diag::FaultInjector::global().arm(diag::FaultPoint::BudgetExpiry, 1);
  EXPECT_TRUE(diag::budgetExceeded(&b));
  // The injected trip is sticky on the budget object.
  EXPECT_TRUE(b.exceeded());
  EXPECT_STREQ(b.reason(), "injected");
}

// ----------------------------------------------------------- Checkpoints

TEST(Checkpoint, TransientRoundtripIsBitExact) {
  diag::TransientCheckpoint ck;
  ck.steps = 123;
  ck.newtonIterations = 456;
  ck.retries = 7;
  ck.t = 1.0 / 3.0;
  ck.h = -0.0;                                       // signed zero preserved
  ck.hPrev = std::numeric_limits<Real>::denorm_min();
  ck.havePrev = true;
  ck.x = {1.0, -2.5e-300, 3.0e300};
  ck.xPrev = {0.1, 0.2, 0.3};
  ck.dynamicMask = {1, 0, 1};

  const std::string path = tempPath("ck_roundtrip.bin");
  ASSERT_TRUE(diag::saveCheckpoint(path, ck));
  diag::TransientCheckpoint out;
  ASSERT_TRUE(diag::loadCheckpoint(path, out));
  EXPECT_EQ(out.steps, ck.steps);
  EXPECT_EQ(out.newtonIterations, ck.newtonIterations);
  EXPECT_EQ(out.retries, ck.retries);
  EXPECT_EQ(out.havePrev, ck.havePrev);
  EXPECT_EQ(out.dynamicMask, ck.dynamicMask);
  // Bit-exact doubles, including -0.0 and the denormal.
  EXPECT_EQ(std::memcmp(&out.t, &ck.t, sizeof(Real)), 0);
  EXPECT_EQ(std::memcmp(&out.h, &ck.h, sizeof(Real)), 0);
  EXPECT_EQ(std::memcmp(&out.hPrev, &ck.hPrev, sizeof(Real)), 0);
  ASSERT_EQ(out.x.size(), ck.x.size());
  EXPECT_EQ(std::memcmp(out.x.data(), ck.x.data(), 3 * sizeof(Real)), 0);
  EXPECT_EQ(std::memcmp(out.xPrev.data(), ck.xPrev.data(), 3 * sizeof(Real)),
            0);
  std::remove(path.c_str());
}

TEST(Checkpoint, JitterRoundtrip) {
  diag::JitterCheckpoint ck;
  ck.totalPaths = 4;
  ck.pathCrossings = {{1.0, 2.0}, {}, {3.5}, {4.0, 5.0, 6.0}};
  const std::string path = tempPath("ck_jitter.bin");
  ASSERT_TRUE(diag::saveCheckpoint(path, ck));
  diag::JitterCheckpoint out;
  ASSERT_TRUE(diag::loadCheckpoint(path, out));
  EXPECT_EQ(out.totalPaths, 4u);
  EXPECT_EQ(out.pathCrossings, ck.pathCrossings);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingCorruptAndWrongKindFail) {
  diag::TransientCheckpoint out;
  EXPECT_FALSE(diag::loadCheckpoint(tempPath("ck_nonexistent.bin"), out));

  const std::string garbage = tempPath("ck_garbage.bin");
  {
    std::ofstream f(garbage, std::ios::binary);
    f << "definitely not a checkpoint";
  }
  EXPECT_FALSE(diag::loadCheckpoint(garbage, out));
  std::remove(garbage.c_str());

  // A jitter checkpoint must not load as a transient one.
  diag::JitterCheckpoint jck;
  jck.totalPaths = 1;
  jck.pathCrossings = {{1.0}};
  const std::string wrong = tempPath("ck_wrongkind.bin");
  ASSERT_TRUE(diag::saveCheckpoint(wrong, jck));
  EXPECT_FALSE(diag::loadCheckpoint(wrong, out));
  std::remove(wrong.c_str());
}

// ------------------------------------------------------------ DC engine

// Nonlinear one-port whose current is finite only inside |v| <= wall: any
// Newton trial beyond the wall evaluates to NaN, exercising the damped-
// update finiteness handling without fault injection.
class NanWall final : public Device {
 public:
  NanWall(std::string name, int node, Real wall)
      : Device(std::move(name)), n_(node), wall_(wall) {}
  void stamp(const RVec& x, const RVec*, Stamp& s) const override {
    const Real v = nodeVoltage(x, n_);
    const Real i =
        std::abs(v) <= wall_ ? v : std::numeric_limits<Real>::quiet_NaN();
    s.addF(n_, i);
    if (s.wantMatrices()) s.addG(n_, n_, 1.0);
  }

 private:
  int n_;
  Real wall_;
};

// Regression for the damping-cap bug: the damp == 8 rung used to accept
// whatever trial was last computed, finite or not, planting a NaN state
// that every later iteration inherited. A non-finite trial at the cap must
// now be a clean Diverged.
TEST(DCResilience, DampingNeverAcceptsNonFiniteTrial) {
  Circuit c;
  const int n = c.node("n");
  c.add<NanWall>("W1", n, 1e-3);
  // 2 A forced in: the full Newton step lands at 2 V; even alpha = 1/256
  // leaves the trial at ~7.8 mV, beyond the 1 mV wall, so every damping
  // rung evaluates to NaN.
  c.add<ISource>("I1", -1, n, std::make_shared<DCWave>(2.0));
  MnaSystem sys(c);
  RVec x(1, 0.0);
  std::size_t iters = 0;
  diag::SolverStatus status = diag::SolverStatus::NotRun;
  analysis::DCOptions opts;
  circuit::MnaWorkspace ws(sys);
  EXPECT_FALSE(analysis::dcNewton(ws, x, 1.0, 0.0, opts, iters, &status));
  EXPECT_EQ(status, diag::SolverStatus::Diverged);
  // The iterate was never replaced by a NaN trial.
  EXPECT_TRUE(std::isfinite(x[0]));
  EXPECT_EQ(x[0], 0.0);
}

Circuit makeDiodeDC() {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(0.7));
  c.add<Diode>("D1", in, out, Diode::Params{});
  c.add<Resistor>("RL", out, -1, 1e3);
  return c;
}

TEST(DCResilience, NanResidualFaultRecoversViaContinuation) {
  InjectorGuard guard;
  Circuit c = makeDiodeDC();
  MnaSystem sys(c);
  diag::FaultInjector::global().arm(diag::FaultPoint::NanInResidual, 1);
  const auto res = analysis::dcOperatingPoint(sys);
  EXPECT_TRUE(res.converged);
  // The poisoned plain-Newton strategy failed structurally and a
  // continuation strategy finished the job.
  EXPECT_NE(res.strategy, "newton");
  EXPECT_EQ(
      diag::FaultInjector::global().firedCount(diag::FaultPoint::NanInResidual),
      1u);
  EXPECT_GE(res.perf.fallbacks, 1u);
}

TEST(DCResilience, SingularJacobianFaultRecoversViaContinuation) {
  InjectorGuard guard;
  Circuit c = makeDiodeDC();
  MnaSystem sys(c);
  diag::FaultInjector::global().arm(diag::FaultPoint::SingularJacobian, 1);
  const auto res = analysis::dcOperatingPoint(sys);
  EXPECT_TRUE(res.converged);
  EXPECT_NE(res.strategy, "newton");
}

TEST(DCResilience, PersistentNanFaultFailsCleanly) {
  InjectorGuard guard;
  Circuit c = makeDiodeDC();
  MnaSystem sys(c);
  diag::FaultInjector::global().arm(diag::FaultPoint::NanInResidual, 1000000);
  // Every strategy is poisoned: the clean failure is the documented throw,
  // not a NaN result or a hang.
  EXPECT_THROW(analysis::dcOperatingPoint(sys), NumericalError);
}

TEST(DCResilience, BudgetExceededReturnsPartial) {
  Circuit c = makeDiodeDC();
  MnaSystem sys(c);
  diag::RunBudget b;
  b.setNewtonLimit(2);
  analysis::DCOptions opts;
  opts.budget = &b;
  const auto res = analysis::dcOperatingPoint(sys, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, diag::SolverStatus::BudgetExceeded);
  EXPECT_TRUE(b.exceeded());
}

// ------------------------------------------------------ transient engine

struct RCSine {
  Circuit c;
  std::unique_ptr<MnaSystem> sys;
  RCSine() {
    const int in = c.node("in"), out = c.node("out");
    const int br = c.allocBranch("V1");
    c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1e4));
    c.add<Resistor>("R1", in, out, 1e3);
    c.add<Capacitor>("C1", out, -1, 1e-7);  // tau = 0.1 ms
    sys = std::make_unique<MnaSystem>(c);
  }
};

TEST(TransientResilience, NanResidualFaultRetriesInFixedStepMode) {
  InjectorGuard guard;
  RCSine f;
  analysis::TransientOptions to;
  to.tstop = 2e-4;
  to.dt = 1e-6;
  to.adaptive = false;  // the dt-cut retry must work WITHOUT LTE control
  diag::FaultInjector::global().arm(diag::FaultPoint::NanInResidual, 1);
  const auto tr = analysis::runTransient(*f.sys, RVec(f.sys->dim(), 0.0), to);
  EXPECT_TRUE(tr.ok);
  EXPECT_EQ(tr.status, diag::SolverStatus::Converged);
  EXPECT_GE(tr.retries, 1u);
  for (const Real v : tr.x.back()) EXPECT_TRUE(std::isfinite(v));
}

TEST(TransientResilience, SingularJacobianFaultRetries) {
  InjectorGuard guard;
  RCSine f;
  analysis::TransientOptions to;
  to.tstop = 2e-4;
  to.dt = 1e-6;
  diag::FaultInjector::global().arm(diag::FaultPoint::SingularJacobian, 1);
  const auto tr = analysis::runTransient(*f.sys, RVec(f.sys->dim(), 0.0), to);
  EXPECT_TRUE(tr.ok);
  EXPECT_GE(tr.retries, 1u);
}

TEST(TransientResilience, PersistentFailureEndsInStepLimitNotLoop) {
  InjectorGuard guard;
  RCSine f;
  analysis::TransientOptions to;
  to.tstop = 1e-3;
  to.dt = 1e-6;  // dtMin defaults to dt/1e6: ~20 halvings to collapse
  diag::FaultInjector::global().arm(diag::FaultPoint::NanInResidual, 1000000);
  const auto tr = analysis::runTransient(*f.sys, RVec(f.sys->dim(), 0.0), to);
  EXPECT_FALSE(tr.ok);
  EXPECT_EQ(tr.status, diag::SolverStatus::StepLimit);
  EXPECT_GE(tr.retries, 10u);
  EXPECT_LE(tr.retries, 64u);  // bounded: log2(dt/dtMin) halvings, not a spin
}

TEST(TransientResilience, AdaptiveDtMinCollapseHasStatus) {
  InjectorGuard guard;
  RCSine f;
  analysis::TransientOptions to;
  to.tstop = 1e-3;
  to.dt = 1e-6;
  to.adaptive = true;
  to.dtMin = 1e-9;
  diag::FaultInjector::global().arm(diag::FaultPoint::NanInResidual, 1000000);
  const auto tr = analysis::runTransient(*f.sys, RVec(f.sys->dim(), 0.0), to);
  EXPECT_FALSE(tr.ok);
  EXPECT_EQ(tr.status, diag::SolverStatus::StepLimit);
}

TEST(TransientResilience, LteRejectionStormStillCompletes) {
  RCSine f;
  analysis::TransientOptions to;
  // Half a source period: ~1.6M accepted steps and ~0.66M rejections, a
  // storm that a TSan build still finishes inside the ctest cap.
  to.tstop = 5e-5;
  to.dt = 4e-6;
  to.adaptive = true;
  to.reltol = 1e-7;  // tight enough that the controller keeps rejecting
  to.abstol = 1e-12;
  to.dtMin = 1e-11;
  const auto tr = analysis::runTransient(*f.sys, RVec(f.sys->dim(), 0.0), to);
  EXPECT_TRUE(tr.ok);
  EXPECT_EQ(tr.status, diag::SolverStatus::Converged);
  EXPECT_GE(tr.retries, 1u);  // rejected steps are counted, not hidden
}

TEST(TransientResilience, BudgetTripSavesCheckpointAndReturnsPartial) {
  RCSine f;
  const std::string path = tempPath("ck_budget_tran.bin");
  diag::RunBudget b;
  b.setNewtonLimit(40);
  analysis::TransientOptions to;
  to.tstop = 1e-3;
  to.dt = 1e-6;
  to.budget = &b;
  to.checkpointPath = path;
  const auto tr = analysis::runTransient(*f.sys, RVec(f.sys->dim(), 0.0), to);
  EXPECT_FALSE(tr.ok);
  EXPECT_EQ(tr.status, diag::SolverStatus::BudgetExceeded);
  EXPECT_GT(tr.steps, 0u);
  diag::TransientCheckpoint ck;
  ASSERT_TRUE(diag::loadCheckpoint(path, ck));
  EXPECT_EQ(ck.steps, tr.steps);
  EXPECT_LT(ck.t, to.tstop);
  std::remove(path.c_str());
}

TEST(TransientResilience, CheckpointResumeIsBitIdentical) {
  for (const sparse::Ordering ord :
       {sparse::Ordering::Natural, sparse::Ordering::Amd}) {
    SCOPED_TRACE(ord == sparse::Ordering::Amd ? "amd" : "natural");
    const sparse::ScopedOrderingOverride ordering(ord);
    const std::string path = tempPath("ck_resume_tran.bin");
    analysis::TransientOptions to;
    to.tstop = 1e-3;
    to.dt = 2e-6;
    to.adaptive = true;
    to.method = analysis::IntegrationMethod::gear2;

    RCSine a;
    const auto full =
        analysis::runTransient(*a.sys, RVec(a.sys->dim(), 0.0), to);
    ASSERT_TRUE(full.ok);

    // Interrupt mid-run via a Newton budget; the trip saves the checkpoint.
    RCSine b;
    diag::RunBudget budget;
    budget.setNewtonLimit(200);
    analysis::TransientOptions toStop = to;
    toStop.budget = &budget;
    toStop.checkpointPath = path;
    const auto part =
        analysis::runTransient(*b.sys, RVec(b.sys->dim(), 0.0), toStop);
    ASSERT_EQ(part.status, diag::SolverStatus::BudgetExceeded);
    ASSERT_GT(part.steps, 0u);
    ASSERT_LT(part.steps, full.steps);

    RCSine c;
    analysis::TransientOptions toResume = to;
    toResume.checkpointPath = path;
    toResume.resume = true;
    const auto rest =
        analysis::runTransient(*c.sys, RVec(c.sys->dim(), 0.0), toResume);
    ASSERT_TRUE(rest.ok);

    // Identical step count and bit-identical final state/time.
    EXPECT_EQ(rest.steps, full.steps);
    EXPECT_EQ(rest.newtonIterations, full.newtonIterations);
    EXPECT_EQ(
        std::memcmp(&rest.time.back(), &full.time.back(), sizeof(Real)), 0);
    const RVec& xr = rest.x.back();
    const RVec& xf = full.x.back();
    ASSERT_EQ(xr.size(), xf.size());
    for (std::size_t i = 0; i < xr.size(); ++i)
      EXPECT_EQ(std::memcmp(&xr[i], &xf[i], sizeof(Real)), 0)
          << "unknown " << i;
    std::remove(path.c_str());
  }
}

TEST(TransientResilience, ResumeWithoutFileThrowsInvalid) {
  RCSine f;
  analysis::TransientOptions to;
  to.tstop = 1e-4;
  to.dt = 1e-6;
  to.checkpointPath = tempPath("ck_never_written.bin");
  to.resume = true;
  EXPECT_THROW(analysis::runTransient(*f.sys, RVec(f.sys->dim(), 0.0), to),
               InvalidArgument);
}

// -------------------------------------------------------- Krylov solvers

// Cyclic shift Pₓ[i] = x[(i+1) mod n]: GMRES(m) with m < n cannot reduce
// the residual for b = e₁ at all within a restart cycle, so the
// per-cycle detector must classify the solve as Stagnated instead of
// burning maxIterations.
TEST(KrylovStagnation, GmresDetectsStagnationPerRestartCycle) {
  const std::size_t n = 16;
  sparse::FunctionOperator<Real> shift(
      n, [n](const numeric::RVec& x, numeric::RVec& y) {
        y.resize(n);
        for (std::size_t i = 0; i < n; ++i) y[i] = x[(i + 1) % n];
      });
  numeric::RVec bvec(n, 0.0);
  bvec[0] = 1.0;
  numeric::RVec x(n, 0.0);
  sparse::IterativeOptions opts;
  opts.restart = 4;
  opts.maxIterations = 500;
  const auto res = sparse::gmres<Real>(shift, bvec, x, nullptr, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, diag::SolverStatus::Stagnated);
  EXPECT_LT(res.iterations, opts.maxIterations);
}

// Hilbert matrix H(i,j) = 1/(i+j+1): SPD but with κ ≈ 1e28 at n = 20, so
// the attainable residual floors many orders above a 1e-14 target — the
// classic "CG stalls" example. The best-residual window must classify the
// solve as Stagnated instead of burning the iteration cap.
sparse::FunctionOperator<Real> hilbertOperator(std::size_t n) {
  return sparse::FunctionOperator<Real>(
      n, [n](const numeric::RVec& x, numeric::RVec& y) {
        y.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          Real s = 0;
          for (std::size_t j = 0; j < n; ++j)
            s += x[j] / static_cast<Real>(i + j + 1);
          y[i] = s;
        }
      });
}

TEST(KrylovStagnation, CgWindowTripsOnHilbert) {
  const std::size_t n = 20;
  const auto hilb = hilbertOperator(n);
  numeric::RVec bvec(n, 1.0);
  numeric::RVec x(n, 0.0);
  sparse::IterativeOptions opts;
  opts.tolerance = 1e-14;
  opts.maxIterations = 5000;
  opts.stagnationWindow = 25;
  const auto res = sparse::conjugateGradient(hilb, bvec, x, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, diag::SolverStatus::Stagnated) << res.statusName();
  EXPECT_LT(res.iterations, opts.maxIterations);
}

TEST(KrylovStagnation, StallInjectionForcesStagnatedStatus) {
  InjectorGuard guard;
  const std::size_t n = 8;
  sparse::FunctionOperator<Real> ident(
      n, [](const numeric::RVec& x, numeric::RVec& y) { y = x; });
  numeric::RVec bvec(n, 1.0), x(n, 0.0);
  diag::FaultInjector::global().arm(diag::FaultPoint::KrylovStall, 2);
  EXPECT_EQ(sparse::gmres<Real>(ident, bvec, x, nullptr, {}).status,
            diag::SolverStatus::Stagnated);
  EXPECT_EQ(sparse::conjugateGradient(ident, bvec, x, {}).status,
            diag::SolverStatus::Stagnated);
  // Charges consumed: a fresh solve converges normally.
  EXPECT_TRUE(sparse::gmres<Real>(ident, bvec, x, nullptr, {}).converged);
}

TEST(KrylovBudget, TrippedBudgetStopsSolve) {
  const std::size_t n = 8;
  sparse::FunctionOperator<Real> ident(
      n, [](const numeric::RVec& x, numeric::RVec& y) { y = x; });
  numeric::RVec bvec(n, 1.0), x(n, 0.0);
  diag::RunBudget b;
  b.setKrylovLimit(3);
  b.chargeKrylov(5);  // pre-tripped
  sparse::IterativeOptions opts;
  opts.budget = &b;
  EXPECT_EQ(sparse::gmres<Real>(ident, bvec, x, nullptr, opts).status,
            diag::SolverStatus::BudgetExceeded);
  EXPECT_EQ(sparse::conjugateGradient(ident, bvec, x, opts).status,
            diag::SolverStatus::BudgetExceeded);
}

// ------------------------------------------------------------ HB engine

Circuit makeRectifier(Real amplitude) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br,
                 std::make_shared<SineWave>(amplitude, 1e4));
  c.add<Diode>("D1", in, out, Diode::Params{});
  c.add<Resistor>("RL", out, -1, 1e4);
  c.add<Capacitor>("CL", out, -1, 1e-8);
  return c;
}

// Acceptance scenario: a drive level the base Newton attempt cannot handle
// converges through the source-amplitude ramp rung, and the solution
// records which rung produced it.
TEST(HBResilience, SourceRampLadderRescuesHardDrive) {
  Circuit c = makeRectifier(40.0);
  MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  hb::HBOptions ho;
  ho.continuationSteps = 1;  // base attempt: no ramp
  ho.maxNewton = 25;
  hb::HarmonicBalance eng(sys, {{1e4, 12}}, ho);

  // The base configuration alone must fail on this drive (otherwise the
  // scenario is vacuous) ...
  hb::HBOptions noLadder = ho;
  noLadder.maxRetries = 0;
  hb::HarmonicBalance bare(sys, {{1e4, 12}}, noLadder);
  const auto base = bare.solve(dc.x);
  ASSERT_FALSE(base.converged);
  EXPECT_EQ(base.strategy, "base");

  // ... and the ladder must rescue it via the deeper source ramp.
  const auto sol = eng.solve(dc.x);
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.strategy, "source-ramp");
  EXPECT_GE(sol.retries, 1u);
  EXPECT_GE(sol.perf.retries, 1u);
  // Rectified output: positive DC at the load.
  EXPECT_GT(sol.at(static_cast<std::size_t>(c.findNode("out")), 0).real(),
            1.0);
}

TEST(HBResilience, NanResidualFaultRecoversViaLadder) {
  InjectorGuard guard;
  Circuit c = makeRectifier(1.0);
  MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  hb::HBOptions ho;
  ho.continuationSteps = 1;
  diag::FaultInjector::global().arm(diag::FaultPoint::NanInResidual, 1);
  hb::HarmonicBalance eng(sys, {{1e4, 8}}, ho);
  const auto sol = eng.solve(dc.x);
  EXPECT_TRUE(sol.converged);
  EXPECT_NE(sol.strategy, "base");
  EXPECT_GE(sol.retries, 1u);
}

TEST(HBResilience, BudgetExceededSuppressesLadder) {
  Circuit c = makeRectifier(1.0);
  MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  diag::RunBudget b;
  b.setNewtonLimit(1);
  hb::HBOptions ho;
  ho.budget = &b;
  hb::HarmonicBalance eng(sys, {{1e4, 8}}, ho);
  const auto sol = eng.solve(dc.x);
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.status, diag::SolverStatus::BudgetExceeded);
  // The ladder must not keep escalating once the budget is gone.
  EXPECT_EQ(sol.strategy, "base");
  EXPECT_EQ(sol.retries, 0u);
}

// ------------------------------------------------------ shooting engine

TEST(ShootingResilience, SingularJacobianFaultRetriesAndConverges) {
  InjectorGuard guard;
  Circuit c = makeRectifier(1.0);
  MnaSystem sys(c);
  analysis::ShootingOptions so;
  so.stepsPerPeriod = 400;
  diag::FaultInjector::global().arm(diag::FaultPoint::SingularJacobian, 1);
  const auto pss =
      analysis::shootingPSS(sys, 1e-4, RVec(sys.dim(), 0.0), so);
  EXPECT_TRUE(pss.converged);
  EXPECT_EQ(pss.status, diag::SolverStatus::Converged);
  EXPECT_EQ(pss.retries, 1u);
}

TEST(ShootingResilience, BudgetExceededSuppressesRetries) {
  Circuit c = makeRectifier(1.0);
  MnaSystem sys(c);
  diag::RunBudget b;
  b.setNewtonLimit(1);
  analysis::ShootingOptions so;
  so.stepsPerPeriod = 100;
  so.budget = &b;
  const auto pss =
      analysis::shootingPSS(sys, 1e-4, RVec(sys.dim(), 0.0), so);
  EXPECT_FALSE(pss.converged);
  EXPECT_EQ(pss.status, diag::SolverStatus::BudgetExceeded);
  EXPECT_EQ(pss.retries, 0u);
}

// ------------------------------------------- MPDE engines (fast BVP/MFDTD)

// Rectifier whose drive lives on the FAST axis: solveEnvelopeStep freezes
// slow time, so a slow-axis source would leave the fast system undriven
// (y = 0 solves it exactly and the Newton loop never runs).
Circuit makeFastRectifier(Real amplitude) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(amplitude, 1e4),
                 TimeAxis::fast);
  c.add<Diode>("D1", in, out, Diode::Params{});
  c.add<Resistor>("RL", out, -1, 1e4);
  c.add<Capacitor>("CL", out, -1, 1e-8);
  return c;
}

TEST(MpdeResilience, FastPeriodicRetriesInjectedSingularJacobian) {
  InjectorGuard guard;
  Circuit c = makeFastRectifier(0.5);
  MnaSystem sys(c);
  mpde::FastPeriodicOptions fo;
  diag::FaultInjector::global().arm(diag::FaultPoint::SingularJacobian, 1);
  const auto res = mpde::solveEnvelopeStep(sys, 0.0, 1e4, 64, 0.0, nullptr,
                                           RVec(sys.dim(), 0.0), fo);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.status, diag::SolverStatus::Converged);
  EXPECT_EQ(res.retries, 1u);
}

TEST(MpdeResilience, FastPeriodicBudgetExceeded) {
  Circuit c = makeFastRectifier(0.5);
  MnaSystem sys(c);
  diag::RunBudget b;
  b.setNewtonLimit(1);
  mpde::FastPeriodicOptions fo;
  fo.budget = &b;
  const auto res = mpde::solveEnvelopeStep(sys, 0.0, 1e4, 32, 0.0, nullptr,
                                           RVec(sys.dim(), 0.0), fo);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, diag::SolverStatus::BudgetExceeded);
  EXPECT_EQ(res.retries, 0u);
}

Circuit makeTwoToneMpde() {
  Circuit c;
  const int a = c.node("a"), s2 = c.node("s2"), b = c.node("b");
  const int br1 = c.allocBranch("V1"), br2 = c.allocBranch("V2");
  c.add<VSource>("V1", a, -1, br1, std::make_shared<SineWave>(0.1, 1.0e6),
                 TimeAxis::slow);
  c.add<VSource>("V2", s2, a, br2, std::make_shared<SineWave>(0.1, 1.37e6),
                 TimeAxis::fast);
  c.add<Resistor>("Rs", s2, b, 1000.0);
  c.add<CubicConductance>("GN", b, -1, 1e-3, 1e-2);
  c.add<Capacitor>("Cb", b, -1, 1e-11);
  return c;
}

TEST(MpdeResilience, MfdtdBudgetExceededReturnsStructured) {
  Circuit c = makeTwoToneMpde();
  MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  diag::RunBudget b;
  b.setNewtonLimit(1);
  mpde::MFDTDOptions mo;
  mo.m1 = 4;
  mo.m2 = 8;
  mo.budget = &b;
  const auto res = mpde::runMFDTD(sys, 1.0e6, 1.37e6, dc.x, mo);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, diag::SolverStatus::BudgetExceeded);
}

TEST(MpdeResilience, MfdtdKrylovStallRetriesAndConverges) {
  InjectorGuard guard;
  Circuit c = makeTwoToneMpde();
  MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  mpde::MFDTDOptions mo;
  mo.m1 = 4;
  mo.m2 = 8;
  mo.useIterativeSolver = true;
  diag::FaultInjector::global().arm(diag::FaultPoint::KrylovStall, 1);
  const auto res = mpde::runMFDTD(sys, 1.0e6, 1.37e6, dc.x, mo);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.status, diag::SolverStatus::Converged);
  EXPECT_EQ(res.retries, 1u);
}

// ------------------------------------------------------------- jitter MC

struct VdpForJitter {
  Circuit c;
  std::unique_ptr<MnaSystem> sys;
  analysis::PSSResult pss;
  VdpForJitter() {
    const int v = c.node("v");
    const int br = c.allocBranch("L1");
    c.add<Capacitor>("C1", v, -1, 1e-9);
    c.add<Inductor>("L1", v, -1, br, 1e-6);
    c.add<Resistor>("Rl", v, -1, 2000.0);
    c.add<CubicConductance>("GN", v, -1, -2e-3, 1e-3);
    sys = std::make_unique<MnaSystem>(c);
    // monteCarloJitter only reads (converged, period, x0); the paths find
    // the limit cycle themselves, so a synthetic starting point is enough.
    pss.converged = true;
    pss.period = kTwoPi * std::sqrt(1e-9 * 1e-6);
    pss.x0 = RVec(sys->dim(), 0.0);
    pss.x0[0] = 0.5;
  }
};

TEST(JitterResilience, CheckpointResumeSkipsFinishedPaths) {
  VdpForJitter f;
  const std::string path = tempPath("ck_jitter_mc.bin");
  phasenoise::JitterMCOptions jo;
  jo.paths = 10;
  jo.cycles = 8;
  jo.stepsPerCycle = 120;
  jo.noiseScale = 1e6;
  jo.seed = 2024;
  jo.checkpointPath = path;
  const auto first = phasenoise::monteCarloJitter(*f.sys, f.pss, 0, 0.0,
                                                  1e-20, jo);
  ASSERT_EQ(first.status, diag::SolverStatus::Converged);
  ASSERT_GE(first.usedPaths, 8u);
  EXPECT_EQ(first.resumedPaths, 0u);

  jo.resume = true;
  const auto again = phasenoise::monteCarloJitter(*f.sys, f.pss, 0, 0.0,
                                                  1e-20, jo);
  EXPECT_EQ(again.resumedPaths, 10u);  // every path restored, none re-run
  EXPECT_EQ(again.usedPaths, first.usedPaths);
  // Path-granular determinism: identical ensemble ⇒ bit-identical slope.
  EXPECT_EQ(std::memcmp(&again.slopePerCycle, &first.slopePerCycle,
                        sizeof(Real)),
            0);
  std::remove(path.c_str());
}

TEST(JitterResilience, TrippedBudgetReturnsPartialWithoutThrow) {
  VdpForJitter f;
  diag::RunBudget b;
  b.setNewtonLimit(1);
  b.chargeNewton(2);  // pre-tripped: every path is skipped
  phasenoise::JitterMCOptions jo;
  jo.paths = 10;
  jo.cycles = 4;
  jo.stepsPerCycle = 50;
  jo.budget = &b;
  const auto res = phasenoise::monteCarloJitter(*f.sys, f.pss, 0, 0.0,
                                                1e-20, jo);
  EXPECT_EQ(res.status, diag::SolverStatus::BudgetExceeded);
  EXPECT_EQ(res.usedPaths, 0u);
  EXPECT_TRUE(res.cycleIndex.empty());
}

// ---------------------------------------------------------- perf counters

TEST(PerfCounters, RetryAndFallbackCountersFlowToSnapshot) {
  const auto before = perf::global().snapshot();
  perf::global().addRetry();
  perf::global().addFallback();
  const auto after = perf::global().snapshot();
  EXPECT_EQ(after.retries, before.retries + 1);
  EXPECT_EQ(after.fallbacks, before.fallbacks + 1);
  const std::string report = perf::format(after);
  EXPECT_NE(report.find("retries"), std::string::npos);
  EXPECT_NE(report.find("fallbacks"), std::string::npos);
}

}  // namespace
}  // namespace rfic
