// Section 2.1 cost discussion, reproduced:
//  * "The memory and time required for Harmonic Balance simulation increase
//    rapidly as more tones are added" — HB unknown counts and runtimes vs
//    (#tones, #harmonics).
//  * "…the time and memory requirements of transient simulation are not
//    sensitive to the number of fundamental frequencies" — transient cost
//    for one vs two drive tones.
//  * The iterative-linear-algebra ablation: matrix-implicit GMRES with the
//    block-diagonal preconditioner vs the dense (probed) HB Jacobian — the
//    enabler of RF-IC-scale HB the section is about.
#include <cmath>
#include <cstdio>
#include <memory>

#include "analysis/dc.hpp"
#include "analysis/transient.hpp"
#include "bench_util.hpp"
#include "circuit/devices.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"
#include "hb/harmonic_balance.hpp"

using namespace rfic;
using namespace rfic::bench;
using namespace rfic::circuit;

namespace {

// Mildly nonlinear two-input test vehicle: diode-loaded summing network.
void buildVehicle(Circuit& c, Real f1, Real f2, bool twoTone) {
  const int a = c.node("a"), s2 = c.node("s2"), b = c.node("b");
  const int br1 = c.allocBranch("V1");
  c.add<VSource>("V1", a, -1, br1, std::make_shared<SineWave>(0.3, f1),
                 TimeAxis::slow);
  if (twoTone) {
    const int br2 = c.allocBranch("V2");
    c.add<VSource>("V2", s2, a, br2, std::make_shared<SineWave>(0.3, f2),
                   TimeAxis::fast);
  } else {
    c.add<Resistor>("Rshort", s2, a, 1e-3);
  }
  c.add<Resistor>("Rs", s2, b, 500.0);
  Diode::Params dp;
  c.add<Diode>("D1", b, -1, dp);
  c.add<Resistor>("RL", b, -1, 2000.0);
  c.add<Capacitor>("CL", b, -1, 1e-12);
}

}  // namespace

int main() {
  header("Section 2.1 — HB cost growth with tones; transient insensitivity");
  JsonReporter rep("sec21_hb_cost");
  const Real f1 = 10e6, f2 = 13e6;

  std::printf("%-22s %-12s %-12s %-10s %-10s\n", "analysis", "unknowns",
              "samples", "newton", "wall (s)");
  rule();
  // HB: one tone with H harmonics, then two tones (box truncation) —
  // unknowns multiply, the paper's "increase rapidly" claim.
  for (const std::size_t h : {4u, 8u}) {
    Circuit c;
    buildVehicle(c, f1, f2, false);
    circuit::MnaSystem sys(c);
    const auto dc = analysis::dcOperatingPoint(sys);
    hb::HarmonicBalance eng(sys, {{f1, h}});
    Stopwatch sw;
    const auto sol = eng.solve(dc.x);
    std::printf("HB 1 tone, H=%-9zu %-12zu %-12zu %-10zu %-10.3f%s\n", h,
                eng.numRealUnknowns(), eng.numTimeSamples(),
                sol.newtonIterations, sw.seconds(),
                sol.converged ? "" : " (!)");
  }
  for (const std::size_t h : {4u, 8u}) {
    Circuit c;
    buildVehicle(c, f1, f2, true);
    circuit::MnaSystem sys(c);
    const auto dc = analysis::dcOperatingPoint(sys);
    hb::HarmonicBalance eng(sys, {{f1, h}, {f2, h}});
    Stopwatch sw;
    const auto sol = eng.solve(dc.x);
    std::printf("HB 2 tones, H=%-8zu %-12zu %-12zu %-10zu %-10.3f%s\n", h,
                eng.numRealUnknowns(), eng.numTimeSamples(),
                sol.newtonIterations, sw.seconds(),
                sol.converged ? "" : " (!)");
    if (h == 8) {
      // Counter evidence for the pattern-cached pipeline: after the first
      // Newton iteration, every circuit-level factorization is a numeric
      // refactorization.
      std::printf("  2-tone H=8 pipeline: %llu factorizations, %llu "
                  "refactorizations\n",
                  (unsigned long long)sol.perf.factorizations,
                  (unsigned long long)sol.perf.refactorizations);
      rep.metric("hb2tone_h8.wall_s", sw.seconds());
      rep.count("hb2tone_h8.newton", sol.newtonIterations);
      rep.counters("hb2tone_h8", sol.perf);
    }
  }
  // Transient: cost set by the fastest tone and the longest period — nearly
  // identical for one or two tones.
  for (const bool two : {false, true}) {
    Circuit c;
    buildVehicle(c, f1, f2, two);
    circuit::MnaSystem sys(c);
    const auto dc = analysis::dcOperatingPoint(sys);
    analysis::TransientOptions to;
    to.dt = 1.0 / (64.0 * f2);
    to.tstop = 10.0 / f1;
    to.storeWaveforms = false;
    Stopwatch sw;
    const auto tr = analysis::runTransient(sys, dc.x, to);
    const Real cachedWall = sw.seconds();
    std::printf("transient %-12s %-12zu %-12zu %-10zu %-10.3f%s\n",
                two ? "2 tones" : "1 tone", sys.dim(), tr.steps,
                tr.newtonIterations, cachedWall, tr.ok ? "" : " (!)");
    std::printf("  %llu factorizations, %llu refactorizations\n",
                (unsigned long long)tr.perf.factorizations,
                (unsigned long long)tr.perf.refactorizations);
    const std::string key = two ? "tran2tone" : "tran1tone";
    rep.count(key + ".steps", tr.steps);
    rep.metric(key + ".cached_wall_s", cachedWall);
    rep.counters(key, tr.perf);
  }

  header("Ablation — matrix-implicit GMRES vs dense HB Jacobian");
  std::printf("%-10s %-12s %-12s %-12s %-12s\n", "H", "unknowns",
              "dense (s)", "gmres (s)", "gmres iters");
  rule();
  for (const std::size_t h : {4u, 6u, 8u, 12u}) {
    Circuit c;
    buildVehicle(c, f1, f2, true);
    circuit::MnaSystem sys(c);
    const auto dc = analysis::dcOperatingPoint(sys);
    hb::HBOptions direct;
    direct.useDirectSolver = true;
    hb::HBOptions iter;

    hb::HarmonicBalance ed(sys, {{f1, h}, {f2, h}}, direct);
    Stopwatch sw;
    const auto sd = ed.solve(dc.x);
    const Real td = sw.seconds();

    hb::HarmonicBalance ei(sys, {{f1, h}, {f2, h}}, iter);
    sw.reset();
    const auto si = ei.solve(dc.x);
    const Real ti = sw.seconds();

    std::printf("%-10zu %-12zu %-12.3f %-12.3f %-12zu%s\n", h,
                ed.numRealUnknowns(), td, ti, si.gmresIterations,
                (sd.converged && si.converged) ? "" : " (!)");
  }
  std::printf("the dense Jacobian is O((N·M)^3) per Newton step; the\n"
              "matrix-implicit path is O(M log M) FFTs + block solves —\n"
              "the scaling that makes full-chip HB possible (Section 2.1).\n");

  // Spectral-engine evidence: plan-cache hits dominate misses (each HB grid
  // length is planned once, then replayed for every transform in the run).
  const auto g = perf::global().snapshot();
  std::printf("plan cache: %llu hits / %llu misses, %llu planned FFTs\n",
              (unsigned long long)g.planCacheHits,
              (unsigned long long)g.planCacheMisses,
              (unsigned long long)g.fftCount);
  rep.count("global.fft_count", g.fftCount);
  rep.count("global.plan_cache_hits", g.planCacheHits);
  rep.count("global.plan_cache_misses", g.planCacheMisses);
  return 0;
}
