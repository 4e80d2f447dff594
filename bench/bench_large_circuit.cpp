// Large-circuit scaling bench: the AMD-ordered sparse LU (DESIGN.md §13)
// on synthetic RC interconnect matrices — the 2-D mesh (power grid /
// substrate network) and the 1-D ladder (long RC line), the two canonical
// sparsity shapes parasitic-dominated RF layouts produce. The same
// topologies are available as netlists via tools/gen_mesh.py; the bench
// builds the MNA-shaped matrices directly so it measures exactly the
// factor/refactor/solve pipeline and nothing else.
//
// The grid and ladder are node-only matrices, so every pivot is diagonal.
// Two MNA-shaped meshes carry voltage-source branch rows, which have no
// diagonal, so the analysis runs its row search: the grid driven by its
// source, and the same grid with some branches replaced by 0 V sources
// (ammeters), which forces off-diagonal pivots all through the order.
//
// Reported per case: analysis (ordering + factor) wall time, fill-in ratio
// and factor nnz, refactor time and solve time; for the grid and the MNA
// mesh also the steps and multiply-subtracts the analysis took through its
// supernode path (gated counts: a pattern and pivot property). A 20-step
// transient on the MNA mesh's circuit (the rficsim `mesh_cold` shape at the
// quick size) reports the evaluation counts the transient's evaluate-once
// path gates: one fresh evaluation per step, the history and
// first-iteration requests answered from the last one. Quick mode
// (RFIC_BENCH_QUICK=1, the CI perf-smoke setting) trims the node counts;
// the full run goes to ~50k- and ~100k-node meshes.
#include <array>
#include <cstdio>
#include <random>
#include <vector>

#include "analysis/transient.hpp"
#include "bench_util.hpp"
#include "circuit/devices.hpp"
#include "circuit/sources.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"
#include "sparse/sparse_matrix.hpp"
#include "sparse/symbolic_lu.hpp"

using namespace rfic;
using namespace rfic::bench;

namespace {

// k×k resistive grid with capacitive ground leak folded into the diagonal:
// the G + C/dt matrix a transient step factors. Deterministic values.
sparse::RCSR gridMesh(std::size_t k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> g(0.5, 1.5);
  const std::size_t n = k * k;
  sparse::RTriplets t(n, n);
  std::vector<Real> diag(n, 0.1);
  const auto couple = [&](std::size_t a, std::size_t b) {
    const Real gv = g(rng);
    t.add(a, b, -gv);
    t.add(b, a, -gv);
    diag[a] += gv;
    diag[b] += gv;
  };
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t u = i * k + j;
      if (j + 1 < k) couple(u, u + 1);
      if (i + 1 < k) couple(u, u + k);
    }
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, diag[i]);
  return sparse::RCSR(t);
}

// The MNA matrix G + C/h of a k×k RC grid driven by a voltage source at
// node 0: one branch unknown per voltage source, whose row and column hold
// ±1 at its two nodes and nothing on the diagonal. With `ammeterEvery`
// > 0, every that-many-th horizontal resistor is replaced by a 0 V source
// (horizontal sources never close a loop). Deterministic values.
sparse::RCSR mnaMesh(std::size_t k, std::size_t ammeterEvery,
                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> g(0.5, 1.5);
  const std::size_t nodes = k * k;
  std::vector<std::pair<std::size_t, std::size_t>> sources = {{0, nodes}};
  std::vector<std::array<std::size_t, 2>> edges;
  std::size_t horizontal = 0;
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t u = i * k + j;
      if (j + 1 < k) {
        if (ammeterEvery != 0 && ++horizontal % ammeterEvery == 0)
          sources.emplace_back(u, u + 1);
        else
          edges.push_back({u, u + 1});
      }
      if (i + 1 < k) edges.push_back({u, u + k});
    }
  const std::size_t n = nodes + sources.size();
  sparse::RTriplets t(n, n);
  std::vector<Real> diag(nodes, 0.1);  // C/h to ground
  for (const auto& [a, b] : edges) {
    const Real gv = g(rng);
    t.add(a, b, -gv);
    t.add(b, a, -gv);
    diag[a] += gv;
    diag[b] += gv;
  }
  for (std::size_t i = 0; i < nodes; ++i) t.add(i, i, diag[i]);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto [plus, minus] = sources[s];
    const std::size_t br = nodes + s;
    t.add(br, plus, 1.0);
    t.add(plus, br, 1.0);
    if (minus < nodes) {  // the driving source's minus node is ground
      t.add(br, minus, -1.0);
      t.add(minus, br, -1.0);
    }
  }
  return sparse::RCSR(t);
}

// n-node RC ladder (tridiagonal): the other extreme — no fill at all, so
// it isolates the per-step overhead of the replay program.
sparse::RCSR ladder(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> g(0.5, 1.5);
  sparse::RTriplets t(n, n);
  std::vector<Real> diag(n, 0.1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Real gv = g(rng);
    t.add(i, i + 1, -gv);
    t.add(i + 1, i, -gv);
    diag[i] += gv;
    diag[i + 1] += gv;
  }
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, diag[i]);
  return sparse::RCSR(t);
}

// A circuit of the MNA mesh's shape: a k×k RC grid, capacitors to ground,
// driven at one corner by a 1 MHz sine source (perfbench's mesh netlist).
void meshCircuit(circuit::Circuit& c, std::size_t k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> u(0.75, 1.25);
  std::vector<int> node(k * k);
  for (std::size_t i = 0; i < k * k; ++i)
    node[i] = c.node("n" + std::to_string(i));
  c.add<circuit::VSource>("V1", node[0], -1, c.allocBranch("V1"),
                          std::make_shared<circuit::SineWave>(1.0, 1e6));
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t a = i * k + j;
      const std::string tag = std::to_string(a);
      if (j + 1 < k)
        c.add<circuit::Resistor>("Rh" + tag, node[a], node[a + 1],
                                 100.0 * u(rng));
      if (i + 1 < k)
        c.add<circuit::Resistor>("Rv" + tag, node[a], node[a + k],
                                 100.0 * u(rng));
      c.add<circuit::Capacitor>("Cg" + tag, node[a], -1, 1e-12 * u(rng));
    }
}

struct CaseResult {
  std::size_t n = 0;
  std::size_t factorNnz = 0;
  Real fill = 0;
  Real factorMs = 0;    ///< full analysis (ordering included)
  Real refactorMs = 0;  ///< replay, per refactor
  Real solveMs = 0;     ///< per solve
  bool timedReplays = false;  ///< every timed refactor ran a replay
  std::uint64_t factorizations = 0;  ///< analyses, the repivots included
  /// The analysis's supernode path: steps and multiply-subtracts.
  std::size_t supernodeSteps = 0;
  std::size_t supernodeFlops = 0;
};

CaseResult runCase(const char* label, const sparse::RCSR& a,
                   sparse::Ordering ord, std::size_t reps) {
  CaseResult res;
  res.n = a.rows();

  sparse::RSymbolicLU::Options o;
  o.ordering = ord;

  perf::Counters analysis;
  Stopwatch sw;
  sparse::RSymbolicLU lu;
  {
    const perf::CounterScope scope(analysis);
    lu.factor(a, o);
  }
  res.factorMs = sw.seconds() * 1e3;
  res.factorNnz = lu.factorNnz();
  res.fill = lu.fillRatio();
  res.supernodeSteps = lu.supernodeWork().steps;
  res.supernodeFlops = lu.supernodeWork().flops;

  // Two perturbed value sets over the same pattern — the Newton-loop
  // steady state. They alternate, so no refactor meets the values it
  // factored last and every rep replays instead of skipping.
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<Real> u(0.9, 1.1);
  std::vector<Real> vals[2] = {a.values(), a.values()};
  for (auto& set : vals)
    for (auto& v : set) v *= u(rng);

  perf::Counters counters;
  {
    const perf::CounterScope scope(counters);
    sw.reset();
    for (std::size_t r = 0; r < reps; ++r) (void)lu.refactor(vals[r % 2]);
    res.refactorMs = sw.seconds() * 1e3 / static_cast<Real>(reps);
  }
  const perf::Snapshot c = counters.snapshot();
  res.timedReplays = c.refactorizations == reps && c.refactorSkips == 0 &&
                     c.factorizations == 0;
  res.factorizations =
      analysis.snapshot().factorizations + c.factorizations;

  numeric::RVec b(res.n), x, y, z;
  std::uniform_real_distribution<Real> ub(-1, 1);
  for (auto& v : b) v = ub(rng);
  sw.reset();
  for (std::size_t r = 0; r < reps; ++r) lu.solve(b, x, y, z);
  res.solveMs = sw.seconds() * 1e3 / static_cast<Real>(reps);

  std::printf("%-14s %8zu %9zu %6.2f %10.2f %10.3f %8.3f\n", label, res.n,
              res.factorNnz, res.fill, res.factorMs, res.refactorMs,
              res.solveMs);
  return res;
}

}  // namespace

int main() {
  const bool quick = quickMode();
  JsonReporter json("large_circuit");
  json.count("threads", perf::ThreadPool::global().concurrency());

  header("large-circuit scaling: fill-reducing ordering");
  std::printf("%-14s %8s %9s %6s %10s %10s %8s\n", "case", "n", "fnnz",
              "fill", "factor_ms", "refac_ms", "solve_ms");
  rule();

  const std::size_t kMesh = quick ? 48 : 224;    // 2.3k / 50.2k nodes
  const std::size_t kBig = quick ? 80 : 316;     // 6.4k / 99.9k nodes
  const std::size_t reps = quick ? 10 : 5;

  const sparse::RCSR mesh = gridMesh(kMesh, 1);
  const auto amd = runCase("mesh/amd", mesh, sparse::Ordering::Amd, reps);

  const sparse::RCSR big = gridMesh(kBig, 2);
  const auto amdBig = runCase("mesh-big/amd", big, sparse::Ordering::Amd,
                              reps);

  const sparse::RCSR lad = ladder(quick ? 10000 : 100000, 3);
  const auto ladAmd = runCase("ladder/amd", lad, sparse::Ordering::Amd, reps);

  const std::size_t kMna = quick ? 24 : 60;  // 577 / 3,601 unknowns
  const auto mna = runCase("mna-mesh/amd", mnaMesh(kMna, 0, 4),
                           sparse::Ordering::Amd, reps);
  const auto ammeter = runCase("ammeter/amd", mnaMesh(kMna, 7, 5),
                               sparse::Ordering::Amd, reps);

  // 20 fixed steps of the mesh circuit's transient from rest, the
  // `.tran 0.1u 2u` of perfbench's mesh_cold.
  circuit::Circuit meshCkt;
  meshCircuit(meshCkt, kMna, 6);
  const circuit::MnaSystem meshSys(meshCkt);
  analysis::TransientOptions to;
  to.dt = 1e-7;
  to.tstop = 2e-6;
  to.storeWaveforms = false;
  Stopwatch trSw;
  const analysis::TransientResult tr = analysis::runTransient(
      meshSys, numeric::RVec(meshSys.dim(), 0.0), to);
  const Real trWall = trSw.seconds();
  std::printf("%-14s %8zu  steps %zu, evals %llu, reused %llu, %.2f ms\n",
              "tran-mesh", meshSys.dim(), tr.steps,
              static_cast<unsigned long long>(tr.perf.evals),
              static_cast<unsigned long long>(tr.perf.evalReuses),
              trWall * 1e3);

  rule();
  if (!tr.ok) {
    std::fprintf(stderr, "the mesh transient failed\n");
    return 1;
  }
  for (const CaseResult* c : {&amd, &amdBig, &ladAmd, &mna, &ammeter})
    if (!c->timedReplays) {
      std::fprintf(stderr, "a timed refactor skipped or repivoted (n=%zu)\n",
                   c->n);
      return 1;
    }

  // Wall-clock keys end in _s so tools/bench_compare.py ratio-checks them.
  json.count("mesh.n", amd.n);
  json.metric("mesh.amd.fill", amd.fill);
  json.metric("mesh.amd.factor_s", amd.factorMs * 1e-3);
  json.metric("mesh.amd.refactor_s", amd.refactorMs * 1e-3);
  json.metric("mesh.amd.solve_s", amd.solveMs * 1e-3);
  json.count("mesh.supernode_steps", amd.supernodeSteps);
  json.count("mesh.supernode_flops", amd.supernodeFlops);
  json.count("mesh_big.n", amdBig.n);
  json.metric("mesh_big.amd.fill", amdBig.fill);
  json.metric("mesh_big.amd.factor_s", amdBig.factorMs * 1e-3);
  json.metric("mesh_big.amd.refactor_s", amdBig.refactorMs * 1e-3);
  json.count("ladder.n", ladAmd.n);
  json.metric("ladder.amd.fill", ladAmd.fill);
  json.metric("ladder.amd.refactor_s", ladAmd.refactorMs * 1e-3);
  json.metric("ladder.amd.solve_s", ladAmd.solveMs * 1e-3);
  json.count("mna_mesh.n", mna.n);
  json.metric("mna_mesh.amd.fill", mna.fill);
  json.count("mna_mesh.factorizations", mna.factorizations);
  json.metric("mna_mesh.amd.factor_s", mna.factorMs * 1e-3);
  json.count("mna_mesh.supernode_steps", mna.supernodeSteps);
  json.count("mna_mesh.supernode_flops", mna.supernodeFlops);
  json.count("ammeter_mesh.n", ammeter.n);
  json.metric("ammeter_mesh.amd.fill", ammeter.fill);
  json.count("ammeter_mesh.factorizations", ammeter.factorizations);
  json.metric("ammeter_mesh.amd.factor_s", ammeter.factorMs * 1e-3);
  json.count("tran_mesh.steps", tr.steps);
  json.count("tran_mesh.evals", tr.perf.evals);
  json.count("tran_mesh.eval_reuses", tr.perf.evalReuses);
  json.count("tran_mesh.workspace_growth", tr.perf.workspaceGrowth);
  json.metric("tran_mesh.wall_s", trWall);
  return 0;
}
