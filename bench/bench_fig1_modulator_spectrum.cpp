// Fig. 1 reproduction — "Modulator in-band spectrum" (Section 2.1).
//
// Two-tone harmonic balance of the quadrature modulator testbench
// (modulator_circuit.hpp), printing the in-band spectrum in dBc around the
// carrier, then the HB-vs-transient comparison the paper makes:
//  * HB resolves the LO feedthrough spur near −78 dBc;
//  * a conventional transient run (paper: with baseband raised to 1 MHz to
//    keep it affordable) buries that spur under its numerical noise floor.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/dc.hpp"
#include "analysis/transient.hpp"
#include "bench_util.hpp"
#include "hb/harmonic_balance.hpp"
#include "hb/spectrum.hpp"
#include "modulator_circuit.hpp"

using namespace rfic;
using namespace rfic::bench;

int main() {
  header("Fig. 1 — modulator in-band spectrum via two-tone HB");
  JsonReporter rep("fig1_modulator_spectrum");
  ModulatorConfig cfg;
  circuit::Circuit ckt;
  const ModulatorNodes nodes = buildQuadratureModulator(ckt, cfg);
  circuit::MnaSystem sys(ckt);
  const auto dc = analysis::dcOperatingPoint(sys);

  hb::HBOptions ho;
  ho.continuationSteps = 2;
  hb::HarmonicBalance eng(sys, {{cfg.fBB, 5}, {cfg.fLO, 3}}, ho);
  Stopwatch sw;
  const auto sol = eng.solve(dc.x);
  std::printf("HB: converged=%d, %zu real unknowns, %zu Newton, "
              "%zu GMRES iters, wall=%.2f s\n",
              sol.converged ? 1 : 0, sol.realUnknowns, sol.newtonIterations,
              sol.gmresIterations, sw.seconds());
  std::printf("HB pipeline: %llu circuit factorizations, %llu "
              "refactorizations after the first Newton iteration\n",
              (unsigned long long)sol.perf.factorizations,
              (unsigned long long)sol.perf.refactorizations);
  rep.flag("hb.converged", sol.converged);
  rep.count("hb.newton", sol.newtonIterations);
  rep.count("hb.gmres", sol.gmresIterations);
  rep.metric("hb.wall_s", sw.seconds());
  rep.counters("hb", sol.perf);
  if (!sol.converged) return 1;

  const auto out = static_cast<std::size_t>(nodes.out);
  // In-band lines: k2 = 1 (around the carrier), k1 = −5..5.
  struct Line {
    Real offsetKHz;
    Real amp;
    const char* note;
  };
  std::vector<Line> lines;
  Real carrierAmp = 0;
  for (int k1 = -5; k1 <= 5; ++k1) {
    const Real amp = hb::lineAmplitude(sol, out, k1, 1);
    carrierAmp = std::max(carrierAmp, amp);
    const char* note = "";
    if (k1 == -1) note = "desired sideband (fLO - fBB)";
    if (k1 == +1) note = "image sideband (I/Q imbalance; paper -35 dBc)";
    if (k1 == 0) note = "LO feedthrough spur (paper ~-78 dBc)";
    if (std::abs(k1) == 3) note = "baseband 3rd-order product";
    lines.push_back({static_cast<Real>(k1) * cfg.fBB * 1e-3, amp, note});
  }
  std::printf("\nin-band spectrum around %.2f GHz (offsets in kHz):\n",
              cfg.fLO * 1e-9);
  std::printf("%-12s %-12s %-10s %s\n", "offset kHz", "amp (V)", "dBc", "");
  rule();
  for (const auto& l : lines) {
    if (l.amp < 1e-15) continue;
    std::printf("%-12.1f %-12.3e %-10.1f %s\n", l.offsetKHz, l.amp,
                hb::toDb(l.amp, carrierAmp), l.note);
  }

  const Real image = hb::lineAmplitude(sol, out, +1, 1);
  const Real spur = hb::lineAmplitude(sol, out, 0, 1);
  std::printf("\nimage sideband: %.1f dBc (paper: -35 dBc)\n",
              hb::toDb(image, carrierAmp));
  std::printf("LO spur:        %.1f dBc (paper: ~-78 dBc)\n",
              hb::toDb(spur, carrierAmp));

  // ---- Transient comparison (paper: baseband raised to 1 MHz). --------
  header("Fig. 1(b) — conventional transient on the same modulator");
  ModulatorConfig tcfg = cfg;
  tcfg.fBB = 1e6;  // the paper's concession to transient cost
  circuit::Circuit ckt2;
  const ModulatorNodes n2 = buildQuadratureModulator(ckt2, tcfg);
  circuit::MnaSystem sys2(ckt2);
  const auto dc2 = analysis::dcOperatingPoint(sys2);

  analysis::TransientOptions to;
  const Real fs = 16.0 * tcfg.fLO;          // 16 samples per carrier cycle
  to.dt = 1.0 / fs;
  to.tstop = 5.0 / tcfg.fBB;                // settle + 4 periods of capture
  to.method = analysis::IntegrationMethod::trapezoidal;

  Stopwatch sw2;
  const auto tr = analysis::runTransient(sys2, dc2.x, to);
  const Real cachedWall = sw2.seconds();
  std::printf("transient: ok=%d, %zu steps, wall=%.2f s\n", tr.ok ? 1 : 0,
              tr.steps, cachedWall);
  std::printf("  pipeline counters: %llu evals, %llu factorizations, "
              "%llu refactorizations, %llu solves\n",
              (unsigned long long)tr.perf.evals,
              (unsigned long long)tr.perf.factorizations,
              (unsigned long long)tr.perf.refactorizations,
              (unsigned long long)tr.perf.solves);
  rep.count("tran.steps", tr.steps);
  rep.metric("tran.cached_wall_s", cachedWall);
  rep.counters("tran", tr.perf);
  if (!tr.ok) return 1;

  std::vector<Real> vout;
  vout.reserve(tr.x.size());
  // Skip the first baseband period (settling); keep four full periods so
  // the FFT bin spacing is fBB/4 and the image clears the carrier's
  // window skirt.
  const std::size_t skip = tr.x.size() / 5;
  for (std::size_t k = skip; k < tr.x.size(); ++k)
    vout.push_back(tr.x[k][static_cast<std::size_t>(n2.out)]);
  const auto sp = hb::transientSpectrum(vout, fs);

  const Real carrierT = hb::amplitudeNear(sp, tcfg.fLO - tcfg.fBB);
  const Real imageT = hb::amplitudeNear(sp, tcfg.fLO + tcfg.fBB);
  // The LO spur estimate, read at its exact bin (no local peak search —
  // any neighbor is a different intentional tone).
  std::size_t spurBin = 0;
  Real best = 1e300;
  for (std::size_t k = 0; k < sp.freq.size(); ++k) {
    const Real d = std::abs(sp.freq[k] - tcfg.fLO);
    if (d < best) {
      best = d;
      spurBin = k;
    }
  }
  const Real spurT = sp.amplitude[spurBin];
  const Real spurTrueDbc = hb::toDb(spur, carrierAmp);
  const Real spurEstDbc = hb::toDb(spurT, carrierT);
  std::printf("transient-FFT: image %.1f dBc (true %.1f);\n"
              "               LO spur estimate %.1f dBc vs true %.1f dBc "
              "(error %.1f dB)\n",
              hb::toDb(imageT, carrierT), hb::toDb(image, carrierAmp),
              spurEstDbc, spurTrueDbc, std::abs(spurEstDbc - spurTrueDbc));
  std::printf("=> the strong -35 dBc sideband is visible to both methods; "
              "the -78 dBc spur is %s by the transient+FFT path\n",
              std::abs(spurEstDbc - spurTrueDbc) > 6.0 ? "NOT resolved"
                                                       : "resolved");
  std::printf("   (the paper's transient missed both: its run, at equal "
              "cost to HB, had neither the resolution nor the dynamic "
              "range)\n");
  rep.metric("image_dbc", hb::toDb(image, carrierAmp));
  rep.metric("lo_spur_dbc", spurTrueDbc);
  rep.metric("lo_spur_est_dbc", spurEstDbc);

  const auto g = perf::global().snapshot();
  rep.count("global.fft_count", g.fftCount);
  rep.count("global.plan_cache_hits", g.planCacheHits);
  rep.count("global.plan_cache_misses", g.planCacheMisses);
  return 0;
}
