#include "rom/rom_noise.hpp"

#include <chrono>
#include <cmath>

namespace rfic::rom {

namespace {
using Clock = std::chrono::steady_clock;
Real seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<Real>(b - a).count();
}
}  // namespace

RomNoiseResult noiseViaROM(const DescriptorSystem& sys,
                           const std::vector<NoiseInput>& sources,
                           const std::vector<Real>& freqs, Real s0,
                           std::size_t q) {
  RFIC_REQUIRE(!sources.empty() && !freqs.empty(),
               "noiseViaROM: sources and freqs required");
  RomNoiseResult out;
  out.freq = freqs;
  out.order = q;

  // --- Direct: one factorization and one adjoint solve per frequency
  // cover all sources: w = (G + sC)⁻ᵀ·l gives H_j(s) = wᵀ·b_j.
  const auto t0 = Clock::now();
  out.directPsd.reserve(freqs.size());
  CVec rhs(sys.n);
  for (std::size_t i = 0; i < sys.n; ++i) rhs[i] = sys.l[i];
  for (const Real f : freqs) {
    const Complex s(0.0, kTwoPi * f);
    sparse::CTriplets a(sys.n, sys.n);
    for (const auto& e : sys.G.entries())
      a.add(e.row, e.col, Complex(e.value, 0.0));
    for (const auto& e : sys.C.entries()) a.add(e.row, e.col, s * e.value);
    const sparse::CSymbolicLU lu{sparse::CCSR(a)};
    const CVec adj = lu.solveTransposed(rhs);
    Real total = 0;
    for (const auto& src : sources) {
      Complex h = 0;
      for (std::size_t i = 0; i < sys.n; ++i) h += adj[i] * src.injection[i];
      total += std::norm(h) * src.psd;
    }
    out.directPsd.push_back(total);
  }
  const auto t1 = Clock::now();
  out.directSeconds = seconds(t0, t1);

  // --- ROM: one PVL model per source, then cheap sweeps.
  const auto t2 = Clock::now();
  std::vector<ReducedOrderModel> roms;
  roms.reserve(sources.size());
  for (const auto& src : sources) {
    DescriptorSystem per = sys;
    per.b = src.injection;
    roms.push_back(pvl(per, s0, q).rom);
  }
  out.romPsd.assign(freqs.size(), 0.0);
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    const Complex s(0.0, kTwoPi * freqs[k]);
    Real total = 0;
    for (std::size_t j = 0; j < roms.size(); ++j)
      total += std::norm(roms[j].transfer(s)) * sources[j].psd;
    out.romPsd[k] = total;
  }
  const auto t3 = Clock::now();
  out.romSeconds = seconds(t2, t3);

  for (std::size_t k = 0; k < freqs.size(); ++k) {
    const Real ref = std::abs(out.directPsd[k]) + 1e-300;
    out.maxRelError = std::max(
        out.maxRelError, std::abs(out.romPsd[k] - out.directPsd[k]) / ref);
  }
  return out;
}

}  // namespace rfic::rom
