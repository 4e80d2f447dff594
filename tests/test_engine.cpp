// Engine / Scheduler lifecycle tests: the ISSUE's satellite 3 checklist —
// submit/cancel races, budget expiry mid-queue, concurrent jobs matching
// serial runs byte-for-byte, context-cache hit counters — plus the
// .print unknown-node regression and NetlistError structured diagnostics.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <random>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/mna.hpp"
#include "circuit/mna_workspace.hpp"
#include "circuit/netlist.hpp"
#include "diag/resilience.hpp"
#include "engine/engine.hpp"
#include "engine/json.hpp"
#include "engine/scheduler.hpp"
#include "sparse/ordering.hpp"
#include "sparse/symbolic_lu.hpp"

namespace {

using namespace rfic;
using engine::Event;
using engine::JobId;

const char* kRcNetlist =
    "* RC low-pass\n"
    "V1 in 0 SIN(0 1 1k)\n"
    "R1 in out 1k\n"
    "C1 out 0 1u\n"
    ".print out\n"
    ".op\n"
    ".tran 10u 2m\n";

const char* kDiodeNetlist =
    "V1 vdd 0 DC 5\n"
    "R1 vdd mid 2k\n"
    "R2 mid 0 3k\n"
    "D1 mid 0 DM\n"
    ".model DM D (IS=1e-14 N=1.6)\n"
    ".print mid\n"
    ".op\n";

// A transient heavy enough (~200k BE steps) to still be running when the
// test thread gets around to cancelling it or queueing behind it.
const char* kHeavyNetlist =
    "V1 in 0 SIN(0 1 1k)\n"
    "R1 in out 1k\n"
    "C1 out 0 1u\n"
    ".print out\n"
    ".tran 5e-8 1e-2\n";

std::string rcVariant(int rOhms) {
  return std::string("V1 in 0 SIN(0 1 1k)\nR1 in out ") +
         std::to_string(rOhms) + "\nC1 out 0 1u\n.print out\n.op\n.tran 10u 1m\n";
}

/// Collects one or many jobs' event streams; thread-safe like a real sink.
class CollectSink : public engine::EventSink {
 public:
  void onEvent(const Event& e) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (e.kind == Event::Kind::Stdout) stdoutText_[e.job] += e.text;
    if (e.kind == Event::Kind::Stderr) stderrText_[e.job] += e.text;
    kinds_[e.job].push_back(e.kind);
    if (e.kind == Event::Kind::Finished) results_[e.job] = e.result;
  }

  std::string out(JobId j) {
    std::lock_guard<std::mutex> lock(mu_);
    return stdoutText_[j];
  }
  std::string err(JobId j) {
    std::lock_guard<std::mutex> lock(mu_);
    return stderrText_[j];
  }
  std::vector<Event::Kind> kinds(JobId j) {
    std::lock_guard<std::mutex> lock(mu_);
    return kinds_[j];
  }
  engine::JobResult result(JobId j) {
    std::lock_guard<std::mutex> lock(mu_);
    return results_[j];
  }

 private:
  std::mutex mu_;
  std::map<JobId, std::string> stdoutText_, stderrText_;
  std::map<JobId, std::vector<Event::Kind>> kinds_;
  std::map<JobId, engine::JobResult> results_;
};

engine::JobSpec spec(const std::string& netlist) {
  engine::JobSpec s;
  s.netlist = netlist;
  return s;
}

// ------------------------------------------------------------ topology key

TEST(TopologyKey, StripsAnalysisCardsAndComments) {
  const std::string a =
      "* comment\nR1 a 0 1k\n.print a\n.op\n.tran 1u 1m\n";
  const std::string b = "R1 a 0 1k\n.hb 1meg 5\n.print a\n";
  EXPECT_EQ(engine::topologyKey(a), engine::topologyKey(b));
  EXPECT_EQ(engine::topologyKey(a), "R1 a 0 1k\n");
  const std::string c = "R1 a 0 2k\n.op\n";
  EXPECT_NE(engine::topologyHash(engine::topologyKey(a)),
            engine::topologyHash(engine::topologyKey(c)));
}

TEST(TopologyKey, KeepsModelCards) {
  const std::string a = "D1 a 0 DM\n.model DM D (IS=1e-14)\n.op\n";
  const std::string b = "D1 a 0 DM\n.model DM D (IS=2e-14)\n.op\n";
  EXPECT_NE(engine::topologyKey(a), engine::topologyKey(b));
}

// ------------------------------------------- .print / .noise node checking

TEST(EngineValidation, UnknownPrintNodeIsExit2) {
  engine::Engine eng;
  CollectSink sink;
  const auto res = eng.run(spec("R1 a 0 1k\n.print nosuch\n.op\n"), sink);
  EXPECT_EQ(res.exitCode, 2);
  EXPECT_NE(sink.err(0).find(".print: unknown node 'nosuch'"),
            std::string::npos);
}

TEST(EngineValidation, GroundPrintNodeIsExit2) {
  engine::Engine eng;
  CollectSink sink;
  const auto res = eng.run(spec("R1 a 0 1k\n.print 0\n.op\n"), sink);
  EXPECT_EQ(res.exitCode, 2);
  EXPECT_NE(sink.err(0).find("ground"), std::string::npos);
}

TEST(EngineValidation, UnknownNoiseNodeIsExit2) {
  engine::Engine eng;
  CollectSink sink;
  const auto res = eng.run(
      spec("V1 in 0 DC 1\nR1 in out 1k\n.noise bogus dec 5 1e2 1e6\n"), sink);
  EXPECT_EQ(res.exitCode, 2);
  EXPECT_NE(sink.err(0).find(".noise"), std::string::npos);
}

// A malformed analysis card is a usage error naming the card: an
// `.ac`/`.noise` sweep with a negative or NaN point count, start frequency
// <= 0 or stop <= start; a `.tran` whose step or stop time is not finite
// and > 0; an `.hb` whose harmonic count is not a whole number in [1, 1e5]
// (-3 once wrapped to 2⁶⁴ − 3 and hung the job).
struct SweepCard {
  const char* name;
  const char* card;
};
// Names each instance in gtest and ctest output.
void PrintTo(const SweepCard& c, std::ostream* os) { *os << c.name; }

class MalformedSweepCard : public ::testing::TestWithParam<SweepCard> {};

TEST_P(MalformedSweepCard, IsExit2) {
  const std::string card = GetParam().card;
  engine::Engine eng;
  CollectSink sink;
  const auto res =
      eng.run(spec("V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\n" + card +
                   "\n"),
              sink);
  EXPECT_EQ(res.exitCode, 2);
  const std::string head = card.substr(0, card.find(' '));
  EXPECT_EQ(sink.err(0).rfind(head + ": ", 0), 0u) << sink.err(0);
  EXPECT_EQ(res.error.rfind(head + ": ", 0), 0u) << res.error;
}

INSTANTIATE_TEST_SUITE_P(
    EngineValidation, MalformedSweepCard,
    ::testing::Values(
        SweepCard{"AcNegativeCount", ".ac dec -5 1e2 1e6"},
        SweepCard{"AcNanCount", ".ac dec nan 1 10"},
        SweepCard{"AcZeroStart", ".ac dec 5 0 1e6"},
        SweepCard{"AcStopBelowStart", ".ac dec 5 1e6 1e2"},
        SweepCard{"NoiseNegativeCount", ".noise out dec -5 1e2 1e6"},
        SweepCard{"NoiseNanCount", ".noise out dec nan 1 10"},
        SweepCard{"NoiseZeroStart", ".noise out dec 5 0 1e6"},
        SweepCard{"NoiseStopBelowStart", ".noise out dec 5 1e6 1e2"},
        SweepCard{"TranInfStop", ".tran 1u inf"},
        SweepCard{"TranNanStep", ".tran nan 1m"},
        SweepCard{"TranZeroStep", ".tran 0 1m"},
        SweepCard{"TranZeroStop", ".tran 1u 0"},
        SweepCard{"HbNegativeHarmonics", ".hb 1meg -3"},
        SweepCard{"HbNanHarmonics", ".hb 1meg nan"},
        SweepCard{"HbFractionalHarmonics", ".hb 1meg 2.7"},
        SweepCard{"HbHugeHarmonics", ".hb 1meg 1e30"}));

TEST(EngineValidation, NoAnalysisCardsIsExit2) {
  engine::Engine eng;
  CollectSink sink;
  EXPECT_EQ(eng.run(spec("R1 a 0 1k\n"), sink).exitCode, 2);
}

// ------------------------------------------------- structured parse errors

TEST(NetlistError, CarriesLineAndCard) {
  circuit::Circuit ckt;
  try {
    circuit::parseNetlist("V1 in 0 DC 5\nR1 in out notanumber\n", ckt);
    FAIL() << "expected NetlistError";
  } catch (const circuit::NetlistError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.card(), "R1 in out notanumber");
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(NetlistError, EngineSurvivesParseError) {
  engine::Engine eng;
  CollectSink sink;
  const auto res = eng.run(spec("R1 in out notanumber\n.op\n"), sink);
  EXPECT_EQ(res.exitCode, 1);
  EXPECT_NE(sink.err(0).find("error: "), std::string::npos);
  EXPECT_NE(sink.err(0).find("line 1"), std::string::npos);
  // The engine is still usable afterwards (a daemon must survive bad jobs).
  CollectSink sink2;
  EXPECT_EQ(eng.run(spec(kDiodeNetlist), sink2).exitCode, 0);
}

// ----------------------------------------------------- context cache reuse

TEST(EngineCache, RepeatTopologyHitsAndMatchesBytes) {
  engine::Engine eng;
  CollectSink s1, s2;
  const auto r1 = eng.run(spec(kRcNetlist), s1);
  ASSERT_EQ(r1.exitCode, 0);
  EXPECT_EQ(r1.perf.ctxMisses, 1u);
  EXPECT_EQ(r1.perf.ctxHits, 0u);
  EXPECT_EQ(eng.pooledContexts(), 1u);

  const auto r2 = eng.run(spec(kRcNetlist), s2);
  ASSERT_EQ(r2.exitCode, 0);
  EXPECT_EQ(r2.perf.ctxHits, 1u);
  EXPECT_EQ(r2.perf.ctxMisses, 0u);
  // Warm context (cached pattern + recorded pivots) must not change the
  // rendered results.
  EXPECT_EQ(s1.out(0), s2.out(0));
}

TEST(EngineCache, WarmDiodeContextStillConverges) {
  engine::Engine eng;
  CollectSink s1, s2;
  ASSERT_EQ(eng.run(spec(kDiodeNetlist), s1).exitCode, 0);
  const auto r2 = eng.run(spec(kDiodeNetlist), s2);
  ASSERT_EQ(r2.exitCode, 0);
  EXPECT_EQ(r2.perf.ctxHits, 1u);
  EXPECT_EQ(s1.out(0), s2.out(0));
}

TEST(EngineCache, SchedulerRepeatJobsHitCache) {
  engine::Scheduler::Options o;
  o.workers = 1;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<CollectSink>();
  const JobId a = sched.submit(spec(kDiodeNetlist), sink);
  ASSERT_NE(a, 0u);
  ASSERT_EQ(sched.wait(a).exitCode, 0);
  const JobId b = sched.submit(spec(kDiodeNetlist), sink);
  ASSERT_NE(b, 0u);
  const auto rb = sched.wait(b);
  EXPECT_EQ(rb.exitCode, 0);
  EXPECT_GE(rb.perf.ctxHits, 1u);
}

// ----------------------------------------------- context pool under churn

/// A one-off topology: the resistor value makes each k a new key.
std::string oneOff(int k) {
  return "V1 in 0 DC 1\nR1 in out " + std::to_string(1000 + k) +
         "\nR2 out 0 1k\n.print out\n.op\n";
}

/// Runs `before` one-off topologies through an engine with the given cap,
/// then kRcNetlist twice, then kRcNetlist after each of `rounds` further
/// one-offs. The repeat topology's second and every later run must hit and
/// print the cold run's bytes; the pool never holds more than `cap`, nor
/// more than max(1, cap / 4) never-hit contexts.
void expectRepeatSurvivesFlood(std::size_t cap, int before, int rounds) {
  SCOPED_TRACE("contextCacheCap " + std::to_string(cap));
  engine::Engine::Options o;
  o.contextCacheCap = cap;
  engine::Engine eng(o);
  const std::size_t probationCap = std::max<std::size_t>(1, cap / 4);
  const auto checkPool = [&] {
    const auto st = eng.poolStats();
    EXPECT_LE(st.pooled, cap);
    EXPECT_LE(st.probation, probationCap);
  };
  int next = 0;
  const auto runOneOff = [&] {
    CollectSink sink;
    EXPECT_EQ(eng.run(spec(oneOff(next++)), sink).exitCode, 0);
    checkPool();
  };
  for (int i = 0; i < before; ++i) runOneOff();

  CollectSink cold;
  const auto r1 = eng.run(spec(kRcNetlist), cold);
  ASSERT_EQ(r1.exitCode, 0);
  EXPECT_EQ(r1.perf.ctxMisses, 1u);
  checkPool();
  for (int i = 0; i <= rounds; ++i) {
    if (i > 0) runOneOff();
    CollectSink warm;
    const auto r = eng.run(spec(kRcNetlist), warm);
    ASSERT_EQ(r.exitCode, 0);
    EXPECT_EQ(r.perf.ctxHits, 1u) << "repeat run " << i + 2;
    EXPECT_EQ(warm.out(0), cold.out(0));
    checkPool();
  }
}

TEST(EngineCache, RepeatTopologyHitsAfterOneOffFlood) {
  // More one-offs than the default cap first, then 100 interleaved ones:
  // a pool that never evicts is full of one-offs before the repeat
  // topology arrives, so its second run misses.
  expectRepeatSurvivesFlood(engine::Engine::Options{}.contextCacheCap, 20,
                            100);
}

TEST(EngineCache, SmallPoolsKeepTheRepeatTopology) {
  // Caps 1-3 have a one-entry probation segment; at cap 1 it is the
  // protected context that keeps the only slot.
  for (std::size_t cap = 1; cap <= 3; ++cap)
    expectRepeatSurvivesFlood(cap, 8, 20);
}

TEST(EngineCache, ZeroCapParksNothing) {
  engine::Engine::Options o;
  o.contextCacheCap = 0;
  engine::Engine eng(o);
  CollectSink s1, s2, s3;
  const auto r1 = eng.run(spec(kRcNetlist), s1);
  const auto r2 = eng.run(spec(oneOff(0)), s2);
  const auto r3 = eng.run(spec(kRcNetlist), s3);
  for (const auto* r : {&r1, &r2, &r3}) {
    EXPECT_EQ(r->exitCode, 0);
    EXPECT_EQ(r->perf.ctxHits, 0u);
    EXPECT_EQ(r->perf.ctxMisses, 1u);
  }
  EXPECT_EQ(s1.out(0), s3.out(0));
  const auto st = eng.poolStats();
  EXPECT_EQ(st.pooled, 0u);
  EXPECT_EQ(st.poolBytes, 0u);
  EXPECT_EQ(st.poolEvictions, 3u);
}

TEST(EngineCache, LateRepeatTopologyStillGetsIn) {
  // Cap 4: one probation slot, three protected. Four topologies that each
  // repeat overflow the protected segment; its least recently used entry
  // goes back to probation instead of holding its slot, so a fifth
  // topology that starts repeating afterwards is still kept and hits.
  engine::Engine::Options o;
  o.contextCacheCap = 4;
  engine::Engine eng(o);
  const auto run = [&](int k) {
    CollectSink sink;
    const auto r = eng.run(spec(oneOff(k)), sink);
    EXPECT_EQ(r.exitCode, 0);
    return r.perf.ctxHits;
  };
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(run(k), 0u);
    EXPECT_EQ(run(k), 1u);
  }
  EXPECT_EQ(run(4), 0u);
  EXPECT_EQ(run(4), 1u);
  const auto st = eng.poolStats();
  EXPECT_EQ(st.pooled, 4u);
  EXPECT_EQ(st.probation, 1u);
  EXPECT_EQ(st.poolEvictions, 1u);
}

// ------------------------------------------------------------ event stream

TEST(EngineEvents, OrderedStreamPerJob) {
  engine::Scheduler sched;
  auto sink = std::make_shared<CollectSink>();
  const JobId id = sched.submit(spec(kDiodeNetlist), sink);
  ASSERT_NE(id, 0u);
  const auto res = sched.wait(id);
  EXPECT_EQ(res.exitCode, 0);
  ASSERT_EQ(res.analyses.size(), 1u);
  EXPECT_EQ(res.analyses[0].card, ".op");
  EXPECT_TRUE(res.analyses[0].ok);
  const auto kinds = sink->kinds(id);
  ASSERT_GE(kinds.size(), 4u);
  EXPECT_EQ(kinds.front(), Event::Kind::Started);
  EXPECT_EQ(kinds.back(), Event::Kind::Finished);
  EXPECT_NE(sink->out(id).find("* .op"), std::string::npos);
}

// --------------------------------------------- concurrent vs serial output

TEST(EngineConcurrency, ConcurrentMixedJobsMatchSerialRuns) {
  // Distinct topologies so every run (serial or concurrent) is a cold
  // context: byte equality then checks scheduling, not cache state.
  std::vector<std::string> netlists;
  for (int r = 1; r <= 6; ++r) netlists.push_back(rcVariant(1000 * r));
  netlists.push_back(kDiodeNetlist);

  std::vector<std::string> serialOut;
  for (const auto& n : netlists) {
    engine::Engine eng;  // fresh engine: no cross-run cache effects
    CollectSink s;
    const auto res = eng.run(spec(n), s);
    ASSERT_EQ(res.exitCode, 0);
    serialOut.push_back(s.out(0));
  }

  engine::Scheduler::Options o;
  o.workers = 4;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<CollectSink>();
  std::vector<JobId> ids;
  for (const auto& n : netlists) {
    // Serialize each job's parallel sections so concurrent jobs exercise
    // scheduler-level (not pool-level) parallelism deterministically.
    engine::JobSpec s = spec(n);
    s.threadShare = 1;
    const JobId id = sched.submit(std::move(s), sink);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const auto res = sched.wait(ids[k]);
    EXPECT_EQ(res.exitCode, 0) << netlists[k];
    EXPECT_EQ(sink->out(ids[k]), serialOut[k]) << netlists[k];
  }
}

// ------------------------------------------------------- default ordering

/// k×k RC mesh driven at one corner: big enough that the identity and the
/// AMD column orders fill differently.
std::string rcMesh(int k) {
  std::string s = "V1 n0_0 0 SIN(0 1 1meg)\n";
  const auto node = [](int i, int j) {
    return "n" + std::to_string(i) + "_" + std::to_string(j);
  };
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < k; ++j) {
      const std::string n = node(i, j), tag = std::to_string(i * k + j);
      if (j + 1 < k) s += "Rh" + tag + " " + n + " " + node(i, j + 1) + " 1k\n";
      if (i + 1 < k) s += "Rv" + tag + " " + n + " " + node(i + 1, j) + " 1k\n";
      s += "Cg" + tag + " " + n + " 0 1p\n";
    }
  return s + ".print " + node(k - 1, k - 1) + "\n.op\n.tran 0.1u 1u\n";
}

TEST(EngineOrdering, DefaultIsAmdEndToEnd) {
  EXPECT_EQ(sparse::orderingDefault(), sparse::Ordering::Amd);
  // A fresh engine per job, so every job factors a cold context.
  const auto runWith = [](const std::string& ordering) {
    engine::Engine eng;
    CollectSink sink;
    engine::JobSpec s = spec(rcMesh(8));
    s.ordering = ordering;
    const auto res = eng.run(s, sink);
    EXPECT_EQ(res.exitCode, 0) << ordering;
    EXPECT_EQ(sink.err(0), "") << ordering;
    return std::pair{res.perf, sink.out(0)};
  };
  const auto [byDefault, defaultOut] = runWith("");
  const auto [amd, amdOut] = runWith("amd");
  const auto [natural, naturalOut] = runWith("natural");

  EXPECT_GT(byDefault.orderingNs, 0u);
  EXPECT_GT(amd.orderingNs, 0u);
  EXPECT_EQ(natural.orderingNs, 0u);
  EXPECT_EQ(byDefault.factorFillNnz, amd.factorFillNnz);
  EXPECT_NE(natural.factorFillNnz, amd.factorFillNnz);
  EXPECT_EQ(defaultOut, amdOut);
  EXPECT_EQ(naturalOut, amdOut);  // the ordering never changes the result
}

// ---------------------------------------------------------- refactor skip

TEST(EngineCache, WarmLinearMeshTransientMatchesCold) {
  // The warm context's LU still holds the previous job's last Jacobian;
  // skipping refactors against it must not change a byte of the output.
  engine::Engine eng;
  CollectSink cold, warm;
  const auto r1 = eng.run(spec(rcMesh(24)), cold);
  const auto r2 = eng.run(spec(rcMesh(24)), warm);
  ASSERT_EQ(r1.exitCode, 0);
  ASSERT_EQ(r2.exitCode, 0);
  EXPECT_EQ(r2.perf.ctxHits, 1u);
  EXPECT_EQ(warm.out(0), cold.out(0));
  // The DC point (zero source at t = 0) converges without a solve, and the
  // fixed-step transient has one Jacobian: the cold job factors it on the
  // first of its 10 steps, the warm job finds it already factored.
  EXPECT_EQ(r1.perf.factorizations, 1u);
  EXPECT_EQ(r1.perf.refactorizations, 0u);
  EXPECT_EQ(r1.perf.refactorSkips, 9u);
  EXPECT_EQ(r2.perf.factorizations + r2.perf.refactorizations, 0u);
  EXPECT_EQ(r2.perf.refactorSkips, 10u);
}

TEST(EngineFaults, FactorRepivotFiresOnLinearTransient) {
  // The skip sits behind the factor-repivot fault point, so a linear
  // transient still takes every forced repivot (1 + 5 factorizations) and
  // prints what the unfaulted run prints.
  auto& faults = diag::FaultInjector::global();
  faults.reset();
  const auto run = [] {
    engine::Engine eng;
    CollectSink sink;
    const auto res = eng.run(spec(rcMesh(24)), sink);
    EXPECT_EQ(res.exitCode, 0);
    return std::pair{res.perf, sink.out(0)};
  };
  const auto [clean, cleanOut] = run();
  faults.arm(diag::FaultPoint::FactorRepivot, 5);
  const auto [faulted, faultedOut] = run();
  const std::uint64_t fired =
      faults.firedCount(diag::FaultPoint::FactorRepivot);
  faults.reset();
  EXPECT_EQ(fired, 5u);
  EXPECT_EQ(clean.factorizations, 1u);
  EXPECT_EQ(faulted.factorizations, 6u);
  EXPECT_EQ(faultedOut, cleanOut);
}

// ----------------------------------------------------------- memory budget

TEST(EngineMemory, FactorStorageIsChargedToTheJob) {
  // The sparse LU is a mesh job's largest allocation, and its analysis
  // charges the stored factorization to the job's memory account. The
  // orderings differ in nothing else a job charges, so natural ordering's
  // extra fill must show in its peak, and a budget between the two peaks
  // must stop the natural job only. The stored bytes come from factoring
  // the same Jacobian pattern (G + C/dt) outside any job.
  const std::string net = rcMesh(24);
  circuit::Circuit ckt;
  circuit::parseNetlist(net, ckt);
  const circuit::MnaSystem sys(ckt);
  circuit::MnaWorkspace ws(sys);
  ws.eval(numeric::RVec(sys.dim(), 0.0), 0.0, true);
  std::vector<Real> jac(ws.gValues().size());
  for (std::size_t p = 0; p < jac.size(); ++p)
    jac[p] = ws.gValues()[p] + ws.cValues()[p] / 0.1e-6;
  const sparse::RCSR j(ws.pattern(), jac);
  const std::uint64_t amdBytes =
      sparse::RSymbolicLU(j, {.ordering = sparse::Ordering::Amd}).storedBytes();
  const std::uint64_t naturalBytes =
      sparse::RSymbolicLU(j, {.ordering = sparse::Ordering::Natural})
          .storedBytes();
  ASSERT_GT(naturalBytes, amdBytes);

  const auto run = [&](const char* ordering, std::uint64_t maxBytes) {
    engine::Engine eng;
    CollectSink sink;
    engine::JobSpec s = spec(net);
    s.ordering = ordering;
    s.maxBytes = maxBytes;
    const auto res = eng.run(s, sink);
    return std::pair{res, sink.err(0)};
  };
  const auto [amd, amdErr] = run("amd", 0);
  const auto [natural, naturalErr] = run("natural", 0);
  ASSERT_EQ(amd.exitCode, 0);
  ASSERT_EQ(natural.exitCode, 0);
  EXPECT_GE(amd.peakBytes, amdBytes);
  EXPECT_GE(natural.peakBytes, amd.peakBytes + (naturalBytes - amdBytes) / 2);

  const std::uint64_t budget =
      amd.peakBytes + (natural.peakBytes - amd.peakBytes) / 2;
  EXPECT_EQ(run("amd", budget).first.exitCode, 0);
  const auto [tripped, trippedErr] = run("natural", budget);
  EXPECT_EQ(tripped.exitCode, 6);
  EXPECT_NE(trippedErr.find("memory-bytes"), std::string::npos);
}

TEST(EngineMemory, PooledContextKeepsWhatItsJobCharged) {
  // A cold .op/.tran job charges only its context (parse estimate,
  // workspace growth, stored factors), so the parked context pins exactly
  // the job's peak. A warm rerun charges nothing and leaves the figure be.
  engine::Engine eng;
  CollectSink cold, warm;
  const auto r1 = eng.run(spec(rcMesh(24)), cold);
  ASSERT_EQ(r1.exitCode, 0);
  auto st = eng.poolStats();
  EXPECT_EQ(st.pooled, 1u);
  EXPECT_EQ(st.probation, 1u);
  EXPECT_EQ(st.poolBytes, r1.peakBytes);
  EXPECT_GT(st.poolBytes, rcMesh(24).size());

  const auto r2 = eng.run(spec(rcMesh(24)), warm);
  ASSERT_EQ(r2.exitCode, 0);
  EXPECT_EQ(r2.peakBytes, 0u);
  st = eng.poolStats();
  EXPECT_EQ(st.pooled, 1u);
  EXPECT_EQ(st.probation, 0u);
  EXPECT_EQ(st.poolBytes, r1.peakBytes);
  EXPECT_EQ(st.poolEvictions, 0u);
}

// -------------------------------------------------------- cancel lifecycle

TEST(SchedulerCancel, RunningJobCancelsPromptly) {
  engine::Scheduler::Options o;
  o.workers = 1;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<CollectSink>();
  const JobId id = sched.submit(spec(kHeavyNetlist), sink);
  ASSERT_NE(id, 0u);
  // Wait for the worker to pick it up.
  for (int i = 0; i < 5000; ++i) {
    const auto info = sched.info(id);
    ASSERT_TRUE(info.has_value());
    if (info->state != engine::JobState::Queued) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(sched.cancel(id));
  const auto res = sched.wait(id);
  EXPECT_TRUE(res.cancelled);
  EXPECT_EQ(res.exitCode, 5);
  EXPECT_EQ(sched.info(id)->state, engine::JobState::Cancelled);
  EXPECT_NE(sink->err(id).find("cancelled"), std::string::npos);
  // Cancelling a finished job reports false.
  EXPECT_FALSE(sched.cancel(id));
}

TEST(SchedulerCancel, SubmitCancelRaceAlwaysFinalizes) {
  engine::Scheduler::Options o;
  o.workers = 2;
  o.queueDepth = 64;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<CollectSink>();
  std::vector<JobId> ids;
  for (int i = 0; i < 16; ++i) {
    const JobId id = sched.submit(spec(kRcNetlist), sink);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
    sched.cancel(id);  // race against the worker picking it up
  }
  for (const JobId id : ids) {
    const auto res = sched.wait(id);  // must terminate either way
    const auto info = sched.info(id);
    ASSERT_TRUE(info.has_value());
    if (res.cancelled) {
      EXPECT_EQ(res.exitCode, 5);
      EXPECT_EQ(info->state, engine::JobState::Cancelled);
    } else {
      EXPECT_EQ(res.exitCode, 0);  // won the race: completed normally
      EXPECT_EQ(info->state, engine::JobState::Done);
    }
  }
}

// --------------------------------------------------- budgets and admission

TEST(SchedulerBudget, ExpiresMidQueueWithoutRunning) {
  engine::Scheduler::Options o;
  o.workers = 1;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<CollectSink>();
  const JobId heavy = sched.submit(spec(kHeavyNetlist), sink);
  ASSERT_NE(heavy, 0u);
  engine::JobSpec tiny = spec(kRcNetlist);
  tiny.timeoutSeconds = 1e-4;  // expires long before the heavy job finishes
  const JobId starved = sched.submit(std::move(tiny), sink);
  ASSERT_NE(starved, 0u);
  const auto res = sched.wait(starved);
  EXPECT_EQ(res.exitCode, 4);
  EXPECT_FALSE(res.cancelled);
  EXPECT_EQ(res.perf.evals, 0u);  // never reached a solver
  EXPECT_NE(res.error.find("queued"), std::string::npos);
  sched.cancel(heavy);
  sched.drain();
}

TEST(SchedulerBudget, RunningJobTripsWallClock) {
  engine::Scheduler::Options o;
  o.workers = 1;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<CollectSink>();
  engine::JobSpec s = spec(kHeavyNetlist);
  s.timeoutSeconds = 0.02;  // well under the ~200ms the job needs
  const JobId id = sched.submit(std::move(s), sink);
  ASSERT_NE(id, 0u);
  const auto res = sched.wait(id);
  EXPECT_EQ(res.exitCode, 4);
  EXPECT_NE(sink->err(id).find("budget exceeded"), std::string::npos);
}

// A 600k-point small-signal sweep runs for seconds; the wall-clock budget
// stops it after the points solved so far, with exit code 4.
TEST(EngineBudget, SmallSignalSweepsStopOnTimeout) {
  for (const std::string card :
       {".ac dec 100000 1 1e6", ".noise out dec 100000 1 1e6"}) {
    SCOPED_TRACE(card);
    engine::Engine eng;
    CollectSink sink;
    engine::JobSpec s =
        spec("V1 in 0 DC 0\nR1 in out 10k\nC1 out 0 1n\n.print out\n" +
             card + "\n");
    s.timeoutSeconds = 0.1;
    const auto res = eng.run(s, sink);
    EXPECT_EQ(res.exitCode, 4);
    const std::string head = card.substr(0, card.find(' '));
    EXPECT_NE(sink.err(0).find("budget exceeded during " + head),
              std::string::npos)
        << sink.err(0);
    ASSERT_EQ(res.analyses.size(), 1u);
    EXPECT_EQ(res.analyses[0].status, diag::SolverStatus::BudgetExceeded);
    EXPECT_FALSE(res.analyses[0].ok);
  }
}

TEST(SchedulerAdmission, QueueDepthRejectsOverflow) {
  engine::Scheduler::Options o;
  o.workers = 1;
  o.queueDepth = 2;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<CollectSink>();
  const JobId a = sched.submit(spec(kHeavyNetlist), sink);
  const JobId b = sched.submit(spec(kRcNetlist), sink);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(sched.submit(spec(kRcNetlist), sink), 0u);  // over depth
  sched.cancel(a);
  sched.cancel(b);
  sched.drain();
  // Capacity freed: admission works again.
  const JobId c = sched.submit(spec(kDiodeNetlist), sink);
  EXPECT_NE(c, 0u);
  EXPECT_EQ(sched.wait(c).exitCode, 0);
}

TEST(SchedulerShutdown, CancelsQueuedJobs) {
  auto sched = std::make_unique<engine::Scheduler>([] {
    engine::Scheduler::Options o;
    o.workers = 1;
    return o;
  }());
  auto sink = std::make_shared<CollectSink>();
  const JobId heavy = sched->submit(spec(kHeavyNetlist), sink);
  const JobId queued = sched->submit(spec(kRcNetlist), sink);
  ASSERT_NE(heavy, 0u);
  ASSERT_NE(queued, 0u);
  sched->shutdown();  // cancels both, joins workers
  EXPECT_EQ(sched->info(queued)->state, engine::JobState::Cancelled);
  EXPECT_EQ(sched->submit(spec(kRcNetlist), sink), 0u);  // no post-stop admits
  sched.reset();
}

TEST(SchedulerMemory, FinishedJobsReleaseTheirNetlists) {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "needs glibc's own allocator statistics (mallinfo2)";
#else
  // Each job's record stays for status and result, but not its netlist.
  // 200 jobs on one topology (the padding is comment lines, so they share
  // one context) with 64 KiB netlists would otherwise keep 12.5 MiB.
  std::string netlist = kDiodeNetlist;
  while (netlist.size() < 64 * 1024)
    netlist += "* padding comment line, stripped from the topology key\n";
  engine::Scheduler::Options o;
  o.workers = 1;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<engine::NullSink>();
  const auto runOne = [&] {
    const JobId id = sched.submit(spec(netlist), sink);
    ASSERT_NE(id, 0u);
    EXPECT_EQ(sched.wait(id).exitCode, 0);
  };
  runOne();
  const std::size_t before = mallinfo2().uordblks;
  for (int i = 0; i < 200; ++i) runOne();
  const std::size_t after = mallinfo2().uordblks;
  EXPECT_LT(after, before + 200 * netlist.size() / 4);
#endif
}

// ------------------------------------------------------------------- JSON

TEST(FlatJson, RoundTripAndErrors) {
  const std::string netlist = "R1 a 0 1k\n.op \"quoted\"\ttab\n";
  const std::string line = "{\"cmd\":\"submit\",\"netlist\":" +
                           engine::jsonString(netlist) +
                           ",\"timeout\":2.5,\"flag\":true,\"nil\":null}";
  std::map<std::string, std::string> obj;
  std::string err;
  ASSERT_TRUE(engine::parseFlatJson(line, obj, &err)) << err;
  EXPECT_EQ(obj["cmd"], "submit");
  EXPECT_EQ(obj["netlist"], netlist);
  EXPECT_EQ(obj["timeout"], "2.5");
  EXPECT_EQ(obj["flag"], "true");
  EXPECT_EQ(obj["nil"], "");

  EXPECT_TRUE(engine::parseFlatJson("{}", obj, &err));
  EXPECT_TRUE(obj.empty());
  EXPECT_TRUE(engine::parseFlatJson("{\"u\":\"\\u0041\\n\"}", obj, &err));
  EXPECT_EQ(obj["u"], "A\n");

  EXPECT_FALSE(engine::parseFlatJson("not json", obj, &err));
  EXPECT_FALSE(engine::parseFlatJson("{\"a\":{\"nested\":1}}", obj, &err));
  EXPECT_FALSE(engine::parseFlatJson("{\"a\":1", obj, &err));
  EXPECT_FALSE(engine::parseFlatJson("{\"a\":1} trailing", obj, &err));
}

// String values are copied in runs between escapes: every byte, escape and
// run boundary still round-trips, and the error offsets stay put.
TEST(FlatJson, StringRunsRoundTripAndLocateErrors) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> byte(0, 255), len(0, 200);
  std::map<std::string, std::string> obj;
  std::string err;
  for (int iter = 0; iter < 500; ++iter) {
    std::string value;
    for (int k = len(rng); k > 0; --k) {
      // Mostly the bytes a netlist holds, with quotes and escapes mixed in.
      const int b = byte(rng);
      value += b < 40 ? "\"\\\n\r\t/"[b % 7] : static_cast<char>(b);
    }
    const std::string line =
        "{\"k\":" + engine::jsonString(value) + ",\"z\":1}";
    ASSERT_TRUE(engine::parseFlatJson(line, obj, &err)) << err;
    EXPECT_EQ(obj["k"], value);
    EXPECT_EQ(obj["z"], "1");
  }
  EXPECT_FALSE(engine::parseFlatJson("{\"k\":\"ab\\\"c", obj, &err));
  EXPECT_EQ(err, "unterminated string at offset 11");
  EXPECT_FALSE(engine::parseFlatJson("{\"k\":\"ab\\", obj, &err));
  EXPECT_EQ(err, "truncated escape at offset 8");
  EXPECT_FALSE(engine::parseFlatJson("{\"k\":\"ab\\q\"}", obj, &err));
  EXPECT_EQ(err, "unknown escape at offset 9");
}

}  // namespace
