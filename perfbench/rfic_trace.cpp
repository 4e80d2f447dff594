// rfic_trace — the benchmark's traced job runner.
//
// Runs a netlist job through the same public library calls Engine::run
// makes (topologyKey, parseNetlist, MnaSystem/MnaWorkspace, the DC
// operating point, then each analysis card), timing a span around every
// call from outside the library. Each span also records the perf::Snapshot
// counter deltas it contains, so its self time is its wall time minus the
// counter-timed work inside it. Prints one JSON object per job on stdout.
//
//   rfic_trace [--threads N] [--ordering natural|amd] <netlist>
//       one job, one process: the traced twin of an rficsim run
//   rfic_trace [--threads N] [--ordering ...] --replay <jobs>
//       many jobs in one process, like a daemon worker. <jobs> holds
//       netlists, each preceded by a line "%%job <warm> <keep>": warm=1
//       reuses this process's parsed context for the same topology, warm=0
//       parses afresh (the caller passes what the daemon reported); keep=1
//       parks the context for a later warm job
//   rfic_trace --calib
//       times a fixed floating-point loop (host speed, not the program)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ac.hpp"
#include "analysis/dc.hpp"
#include "analysis/noise.hpp"
#include "analysis/transient.hpp"
#include "circuit/netlist.hpp"
#include "circuit/sources.hpp"
#include "diag/resilience.hpp"
#include "engine/engine.hpp"
#include "hb/harmonic_balance.hpp"
#include "hb/spectrum.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"
#include "sparse/ordering.hpp"

namespace {

using namespace rfic;
using Clock = std::chrono::steady_clock;

std::int64_t nsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// Counter-timed work, without double counting the documented subsets
// (orderingNs ⊂ factorNs, refactorParallelNs ⊂ refactorNs,
// evalBatchNs ⊂ evalNs).
std::int64_t timedNs(const perf::Snapshot& s) {
  return static_cast<std::int64_t>(s.evalNs + s.factorNs + s.refactorNs +
                                   s.solveNs + s.fftNs);
}

/// Wall and self time per span name, summed over the job.
class Spans {
 public:
  /// Runs f() inside a span and returns its result.
  template <typename F>
  auto time(const std::string& name, F&& f) {
    const perf::Snapshot before = perf::global().snapshot();
    const auto t0 = Clock::now();
    auto result = f();
    const std::int64_t wall = nsSince(t0);
    wall_[name] += wall;
    const std::int64_t inner =
        timedNs(perf::global().snapshot()) - timedNs(before);
    self_[name] += wall - inner;
    return result;
  }

  void write(std::string& out) const {
    out += "\"span_wall_ns\":{";
    writeMap(out, wall_);
    out += "},\"span_self_ns\":{";
    writeMap(out, self_);
    out += "}";
  }

 private:
  static void writeMap(std::string& out,
                       const std::map<std::string, std::int64_t>& m) {
    bool first = true;
    for (const auto& [k, v] : m) {
      out += (first ? "\"" : ",\"") + k + "\":" + std::to_string(v);
      first = false;
    }
  }

  std::map<std::string, std::int64_t> wall_, self_;
};

std::vector<std::string> tokens(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> t;
  std::string s;
  while (in >> s) t.push_back(s);
  return t;
}

std::string lowered(std::string s) {
  for (auto& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9e", v);
  return buf;
}

/// A parsed circuit kept across jobs of one replay, as the engine's
/// context pool keeps it.
struct Context {
  circuit::Circuit ckt;
  std::unique_ptr<circuit::MnaSystem> sys;
  std::unique_ptr<circuit::MnaWorkspace> ws;
};

std::vector<Real> sweepFreqs(const std::vector<std::string>& t,
                             std::size_t first) {
  const auto pts =
      static_cast<std::size_t>(circuit::parseSpiceNumber(t[first]));
  const Real f0 = circuit::parseSpiceNumber(t[first + 1]);
  const Real f1 = circuit::parseSpiceNumber(t[first + 2]);
  const Real decades = std::log10(f1 / f0);
  return analysis::logspace(
      f0, f1,
      std::max<std::size_t>(
          2, static_cast<std::size_t>(std::lround(pts * decades)) + 1));
}

/// Runs one job; returns its JSON record (without the closing brace).
std::string runJob(const std::string& netlist, bool warm, bool keep,
                   std::map<std::string, std::unique_ptr<Context>>& pool) {
  const auto t0 = Clock::now();
  perf::Counters counters;
  perf::CounterScope scope(counters);
  diag::MemAccount mem;
  diag::MemScope memScope(mem);
  Spans spans;
  std::string outs;
  const auto addOut = [&outs](const std::string& key, const std::string& v) {
    outs += (outs.empty() ? "\"" : ",\"") + key + "\":" + v;
  };
  std::size_t hbNewton = 0, hbGmres = 0;

  const std::string key =
      spans.time("engine.topology_key", [&] {
        std::string k = engine::topologyKey(netlist);
        (void)engine::topologyHash(k);
        return k;
      });
  std::unique_ptr<Context> ctx;
  if (warm) {
    const auto it = pool.find(key);
    if (it != pool.end()) {
      ctx = std::move(it->second);
      pool.erase(it);
    }
  }
  if (ctx == nullptr) {
    ctx = std::make_unique<Context>();
    spans.time("circuit.parse", [&] {
      circuit::parseNetlist(netlist, ctx->ckt);
      return 0;
    });
    spans.time("circuit.mna_build", [&] {
      ctx->sys = std::make_unique<circuit::MnaSystem>(ctx->ckt);
      ctx->ws = std::make_unique<circuit::MnaWorkspace>(*ctx->sys);
      return 0;
    });
  }
  ctx->ws->setOrdering(sparse::effectiveOrdering());
  auto& ckt = ctx->ckt;
  auto& sys = *ctx->sys;

  std::vector<std::vector<std::string>> cards;
  std::vector<std::string> printNodes;
  {
    std::istringstream in(netlist);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] != '.') continue;
      auto t = tokens(line);
      t[0] = lowered(t[0]);
      if (t[0] == ".print") {
        printNodes.assign(t.begin() + 1, t.end());
      } else if (t[0] != ".model" && t[0] != ".end") {
        cards.push_back(std::move(t));
      }
    }
  }
  std::vector<std::pair<std::string, std::size_t>> nodes;
  for (const auto& n : printNodes)
    nodes.emplace_back(n, static_cast<std::size_t>(ckt.lookupNode(n)));

  analysis::DCOptions dco;
  dco.workspace = ctx->ws.get();
  const auto dc = spans.time(
      "analysis.dc", [&] { return analysis::dcOperatingPoint(sys, dco); });
  int exitCode = dc.converged ? 0 : 1;
  for (const auto& t : cards) {
    if (t[0] == ".op") {
      for (const auto& [name, idx] : nodes)
        addOut("op:" + name, num(dc.x[idx]));
    } else if (t[0] == ".tran") {
      analysis::TransientOptions to;
      to.dt = circuit::parseSpiceNumber(t[1]);
      to.tstop = circuit::parseSpiceNumber(t[2]);
      to.workspace = ctx->ws.get();
      const auto tr = spans.time("analysis.tran", [&] {
        return analysis::runTransient(sys, dc.x, to);
      });
      if (!tr.ok || tr.time.empty()) exitCode = 1;
      // The last row rficsim prints (it prints every stride-th sample).
      const std::size_t stride = std::max<std::size_t>(1, tr.time.size() / 50);
      const std::size_t last =
          tr.time.empty() ? 0 : (tr.time.size() - 1) / stride * stride;
      for (const auto& [name, idx] : nodes)
        if (!tr.time.empty()) addOut("tran:" + name, num(tr.x[last][idx]));
    } else if (t[0] == ".ac") {
      const auto freqs = sweepFreqs(t, 2);
      const circuit::VSource* src = nullptr;
      for (const auto& dev : ckt.devices())
        if ((src = dynamic_cast<const circuit::VSource*>(dev.get()))) break;
      const auto sweep = spans.time("analysis.ac", [&] {
        return analysis::acSweep(sys, dc.x, freqs,
                                 analysis::acStimulusVSource(sys, *src));
      });
      for (const auto& [name, idx] : nodes) {
        std::string v = "[";
        for (std::size_t k = 0; k < freqs.size(); ++k)
          v += (k ? "," : "") + num(std::abs(sweep.x[k][idx]));
        addOut("ac:" + name, v + "]");
      }
    } else if (t[0] == ".noise") {
      const auto freqs = sweepFreqs(t, 3);
      const int node = ckt.lookupNode(t[1]);
      const auto nr = spans.time("analysis.noise", [&] {
        return analysis::noiseAnalysis(sys, dc.x, node, freqs);
      });
      std::string v = "[";
      for (std::size_t k = 0; k < nr.totalPsd.size(); ++k)
        v += (k ? "," : "") + num(nr.totalPsd[k]);
      addOut("noise:" + t[1], v + "]");
    } else if (t[0] == ".hb") {
      std::vector<hb::Tone> tones;
      const auto tone = [&t](std::size_t i) {
        return hb::Tone{circuit::parseSpiceNumber(t[i]),
                        static_cast<std::size_t>(
                            circuit::parseSpiceNumber(t[i + 1]))};
      };
      tones.push_back(tone(1));
      if (t.size() >= 5) tones.push_back(tone(3));
      hb::HBOptions ho;
      ho.continuationSteps = 3;
      auto eng = spans.time("hb.setup", [&] {
        return std::make_unique<hb::HarmonicBalance>(sys, tones, ho);
      });
      const auto sol =
          spans.time("hb.solve", [&] { return eng->solve(dc.x); });
      hbNewton += sol.newtonIterations;
      hbGmres += sol.gmresIterations;
      if (!sol.converged) exitCode = 3;
      for (const auto& [name, idx] : nodes) {
        std::string v = "[";
        bool first = true;
        for (const auto& l : hb::spectrumOf(sol, idx)) {
          if (l.amplitude < 1e-15) continue;
          v += (first ? "[" : ",[") + std::to_string(l.k1) + "," +
               std::to_string(l.k2) + "," + num(l.amplitude) + "]";
          first = false;
        }
        addOut("hb:" + name, v + "]");
      }
    }
  }
  if (keep) pool[key] = std::move(ctx);
  const std::int64_t wall = nsSince(t0);

  const perf::Snapshot s = counters.snapshot();
  std::string rec = "{\"exit\":" + std::to_string(exitCode) +
                    ",\"wall_ns\":" + std::to_string(wall) + ",";
  spans.write(rec);
  const std::pair<const char*, std::uint64_t> ctr[] = {
      {"evals", s.evals},
      {"evalNs", s.evalNs},
      {"factorizations", s.factorizations},
      {"factorNs", s.factorNs},
      {"orderingNs", s.orderingNs},
      {"factorFillNnz", s.factorFillNnz},
      {"refactorizations", s.refactorizations},
      {"refactorNs", s.refactorNs},
      {"refactorParallelNs", s.refactorParallelNs},
      {"refactorLevels", s.refactorLevels},
      {"solves", s.solves},
      {"solveNs", s.solveNs},
      {"fftCount", s.fftCount},
      {"fftNs", s.fftNs},
      {"planCacheMisses", s.planCacheMisses},
      {"hbNewton", hbNewton},
      {"hbGmres", hbGmres},
      {"memPeakBytes", mem.peakBytes()},
  };
  rec += ",\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : ctr) {
    rec += std::string(first ? "\"" : ",\"") + k + "\":" + std::to_string(v);
    first = false;
  }
  rec += "},\"outputs\":{" + outs + "}";
  return rec;
}

std::string readAll(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "rfic_trace: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int calibrate() {
  // A fixed dependent chain of floating-point work (about 60 ms).
  const auto t0 = Clock::now();
  double x = 0.5;
  for (int i = 0; i < 15'000'000; ++i) x = x * 3.9 * (1.0 - x);
  std::printf("{\"calib_ns\":%lld,\"x\":%.3f}\n",
              static_cast<long long>(nsSince(t0)), x);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t0 = Clock::now();
  std::string replay, file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--calib") return calibrate();
    if (a == "--threads" && i + 1 < argc) {
      perf::ThreadPool::setGlobalThreads(
          static_cast<std::size_t>(std::atol(argv[++i])));
    } else if (a == "--ordering" && i + 1 < argc) {
      sparse::Ordering ord;
      if (!sparse::parseOrdering(argv[++i], ord)) return 1;
      sparse::setOrderingDefault(ord);
    } else if (a == "--replay" && i + 1 < argc) {
      replay = argv[++i];
    } else {
      file = a;
    }
  }
  if (replay.empty() == file.empty()) {
    std::fprintf(stderr,
                 "usage: rfic_trace [--threads N] [--ordering natural|amd] "
                 "(<netlist> | --replay <jobs>) | --calib\n");
    return 1;
  }
  std::map<std::string, std::unique_ptr<Context>> pool;
  try {
    if (!file.empty()) {
      std::string rec = runJob(readAll(file), false, false, pool);
      rec += ",\"main_ns\":" + std::to_string(nsSince(t0)) + "}\n";
      std::fwrite(rec.data(), 1, rec.size(), stdout);
      return 0;
    }
    std::istringstream in(readAll(replay));
    std::string line, netlist;
    bool warm = false, keep = false, have = false;
    const auto flush = [&] {
      if (!have) return;
      const std::string rec = runJob(netlist, warm, keep, pool) + "}\n";
      std::fwrite(rec.data(), 1, rec.size(), stdout);
      netlist.clear();
    };
    while (std::getline(in, line)) {
      if (line.rfind("%%job ", 0) == 0) {
        flush();
        const auto f = tokens(line);
        warm = f.size() > 1 && f[1] == "1";
        keep = f.size() > 2 && f[2] == "1";
        have = true;
      } else {
        netlist += line + "\n";
      }
    }
    flush();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfic_trace: %s\n", e.what());
    return 1;
  }
  return 0;
}
