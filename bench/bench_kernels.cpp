// Micro-benchmarks (google-benchmark) of the numerical kernels the
// reproduction rests on: FFT, sparse LU, MoM assembly/kernel, HB
// Jacobian-vector products, and panel-potential evaluation. These are the
// primitives whose costs the figure-level benches aggregate.
#include <benchmark/benchmark.h>

#include <memory>
#include <random>

#include "analysis/dc.hpp"
#include "circuit/devices.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"
#include "extraction/mom.hpp"
#include "extraction/panel_kernel.hpp"
#include "fft/plan.hpp"
#include "hb/harmonic_balance.hpp"
#include "sparse/symbolic_lu.hpp"

namespace {

using namespace rfic;

void BM_FFT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Complex> x(n);
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<Real> u(-1, 1);
  for (auto& v : x) v = {u(rng), u(rng)};
  const auto plan = fft::PlanCache::global().get(n);
  for (auto _ : state) {
    auto y = x;
    fft::transformColumns(*plan, y.data(), 1, /*inverse=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetComplexityN(static_cast<long>(n));
}
BENCHMARK(BM_FFT)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_SymbolicLUFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sparse::RTriplets t(n, n);
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<Real> u(-1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 4.0 + u(rng));
    t.add(i, (i + 1) % n, u(rng));
    t.add(i, (i + 17) % n, u(rng));
  }
  const sparse::RCSR a(t);
  for (auto _ : state) {
    const sparse::RSymbolicLU lu(a);
    benchmark::DoNotOptimize(lu.factorNnz());
  }
  state.SetComplexityN(static_cast<long>(n));
}
BENCHMARK(BM_SymbolicLUFactor)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity();

void BM_PanelPotential(benchmark::State& state) {
  extraction::Panel p;
  p.corner = {0, 0, 0};
  p.edgeA = {1e-4, 0, 0};
  p.edgeB = {0, 1e-4, 0};
  const extraction::Vec3 pt{3e-4, 2e-4, 1e-4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(extraction::panelPotential(p, pt));
  }
}
BENCHMARK(BM_PanelPotential);

void BM_MoMAssembly(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto mesh = extraction::makeParallelPlates(1e-3, 1e-4, n);
  for (auto _ : state) {
    auto m = extraction::assembleMoMMatrix(mesh);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetComplexityN(static_cast<long>(mesh.panels.size()));
}
BENCHMARK(BM_MoMAssembly)->Arg(4)->Arg(8)->Arg(16)->Complexity();

// One matrix-implicit HB residual evaluation on a diode circuit — the
// per-iteration workhorse of Section 2.1.
void BM_HBSolve(benchmark::State& state) {
  const auto h = static_cast<std::size_t>(state.range(0));
  circuit::Circuit c;
  const int a = c.node("a"), b = c.node("b");
  const int br = c.allocBranch("V1");
  c.add<circuit::VSource>("V1", a, -1, br,
                          std::make_shared<circuit::SineWave>(0.4, 1e7));
  c.add<circuit::Resistor>("Rs", a, b, 500.0);
  c.add<circuit::Diode>("D1", b, -1, circuit::Diode::Params{});
  c.add<circuit::Resistor>("RL", b, -1, 2000.0);
  circuit::MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  hb::HarmonicBalance eng(sys, {{1e7, h}});
  for (auto _ : state) {
    auto sol = eng.solve(dc.x);
    benchmark::DoNotOptimize(sol.converged);
  }
}
BENCHMARK(BM_HBSolve)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
