// Seeded violations for the numerics-lint counter-member selftest: private
// perf::Counters that mirror perf::global() instead of one counting path.
#include "perf/perf.hpp"

namespace fixture {

class MirroringSolver {
 public:
  void step() { perf::global().addSolve(1); }
 private:
  perf::Counters counters_;
};

void transformWithExtra(int n, rfic::perf::Counters* extra);

rfic::perf::Snapshot measuredLocal() {
  // A local that a CounterScope installs is the sanctioned pattern.
  rfic::perf::Counters local;
  const rfic::perf::CounterScope scope(local);
  perf::Counters& g = perf::global();
  g.addRetry();
  return local.snapshot();
}

struct Justified {
  perf::Counters fixtureOnly;  // lint: allow-counter-member fixture
};

}  // namespace fixture
