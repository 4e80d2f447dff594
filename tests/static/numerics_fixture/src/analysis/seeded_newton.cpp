// Seeded violations for the numerics-lint newton-loop selftest: a Newton
// loop that charges the budget and fires the fault points itself instead
// of running through diag::runNewton.
#include "diag/resilience.hpp"

namespace fixture {

bool handRolled(rfic::diag::RunBudget* budget, int iterations) {
  for (int it = 0; it < iterations; ++it) {
    if (budget) budget->chargeNewton();
    auto& inj = rfic::diag::FaultInjector::global();
    if (inj.fire(rfic::diag::FaultPoint::NanInResidual)) return false;
    if (inj.fire(rfic::diag::FaultPoint::SingularJacobian)) return false;
  }
  return true;
}

// A justified suppression is honored.
void chargeOnce(rfic::diag::RunBudget& budget) {
  budget.chargeNewton();  // lint: allow-newton-loop fixture
}

// A comment naming chargeNewton() or FaultPoint::NanInResidual is not code.
int chargeNewtonCount() { return 0; }

}  // namespace fixture
