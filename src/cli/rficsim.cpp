// rficsim — netlist-driven command-line front end.
//
// Reads a SPICE-style netlist (see circuit/netlist.hpp for the element
// cards) extended with analysis control cards:
//
//   .op                          DC operating point
//   .tran <dt> <tstop>           transient; prints .print nodes
//   .ac dec <pts> <f0> <f1>      AC sweep driven by the first V source
//   .noise <node> dec <pts> <f0> <f1>   output-referred noise PSD
//   .hb <f1> <h1> [<f2> <h2>]    harmonic balance, 1 or 2 tones
//   .print <node> [<node>...]    selects output nodes (default: all)
//
// Usage: rficsim [--fe-trap] [--stats] [--threads <n>] [--timeout <sec>]
//                [--max-bytes <n>] [--checkpoint <file>] [--resume]
//                [--inject-fault <spec>]
//                <netlist-file>   (or stdin with "-")
// --fe-trap arms floating-point exception trapping (SIGFPE at the first
// invalid operation) for debugging NaN propagation.
// --stats prints the pipeline performance counters (device evaluations,
// symbolic factorizations vs. numeric refactorizations, solves, retries/
// fallbacks, FFTs and plan-cache hits, and time per stage) to stderr after
// all analyses finish.
// --threads pins the worker-pool size for the parallel HB/FFT paths
// (equivalent to RFIC_THREADS=<n>; 1 disables worker threads entirely).
// --timeout arms a wall-clock RunBudget threaded through every analysis;
// on expiry the run stops with partial results and exit code 4.
// --max-bytes arms the workspace byte budget (diag::MemAccount); a run
// whose grow-once workspaces charge past it stops cooperatively with
// partial results and exit code 6.
// --checkpoint and --resume serialize and restore transient integrator state
// (see diag/resilience.hpp); --inject-fault arms a fault point
// ("name" or "name:count", same spec as RFIC_INJECT_FAULT).
// --no-batch-eval pins the scalar virtual-stamp device walk (the golden
// reference path) instead of the batched SoA evaluation engine; outputs
// are bitwise identical either way, so this is a verification/debug aid.
// --ordering selects the sparse-LU column order: "amd" (the default) is
// the fill-reducing approximate-minimum-degree pre-order, "natural" the
// identity order (a reference mode; DESIGN.md §13). Outputs are the same
// either way.
//
// Since the engine refactor this file is a thin client: it parses flags
// into an engine::JobSpec, runs it through engine::Engine, and replays the
// Stdout/Stderr events onto stdio. All analysis dispatch, rendering, and
// resilience plumbing lives in src/engine/ — shared with the rficd daemon.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "circuit/mna_workspace.hpp"
#include "diag/fe_trap.hpp"
#include "diag/resilience.hpp"
#include "engine/engine.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"
#include "sparse/ordering.hpp"

namespace {

using namespace rfic;

/// Replays the engine's event stream onto stdout/stderr — the bytes are
/// already rendered, so this is write-through.
class StdioSink : public engine::EventSink {
 public:
  void onEvent(const engine::Event& e) override {
    switch (e.kind) {
      case engine::Event::Kind::Stdout:
        std::fwrite(e.text.data(), 1, e.text.size(), stdout);
        break;
      case engine::Event::Kind::Stderr:
        std::fwrite(e.text.data(), 1, e.text.size(), stderr);
        break;
      default:
        break;  // structured events are for queue clients
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  // --fe-trap: crash (SIGFPE) at the first invalid FP operation instead of
  // letting a NaN propagate through a solve — the debugging mode of the
  // numerics-contract layer.
  std::unique_ptr<diag::ScopedFeTrap> feTrap;
  bool stats = false;
  engine::JobSpec spec;
  // Flags taking a value consume argv[2] as well.
  const auto takeValue = [&argc, &argv](const std::string& flag) {
    if (argc < 3) {
      std::fprintf(stderr, "%s requires a value\n", flag.c_str());
      std::exit(1);
    }
    const std::string v = argv[2];
    --argc;
    ++argv;
    return v;
  };
  while (argc >= 2 && argv[1][0] == '-' && argv[1][1] == '-') {
    const std::string flag = argv[1];
    if (flag == "--fe-trap") {
      feTrap = std::make_unique<diag::ScopedFeTrap>();
    } else if (flag == "--stats") {
      stats = true;
    } else if (flag == "--threads") {
      const long n = std::atol(takeValue(flag).c_str());
      if (n < 1) {
        std::fprintf(stderr, "--threads: positive count required\n");
        return 1;
      }
      perf::ThreadPool::setGlobalThreads(static_cast<std::size_t>(n));
    } else if (flag == "--timeout") {
      const double sec = std::atof(takeValue(flag).c_str());
      if (!(sec > 0)) {
        std::fprintf(stderr, "--timeout: positive seconds required\n");
        return 1;
      }
      spec.timeoutSeconds = sec;
    } else if (flag == "--max-bytes") {
      const long long n = std::atoll(takeValue(flag).c_str());
      if (n < 1) {
        std::fprintf(stderr, "--max-bytes: positive byte count required\n");
        return 1;
      }
      spec.maxBytes = static_cast<std::uint64_t>(n);
    } else if (flag == "--checkpoint") {
      spec.checkpointPath = takeValue(flag);
    } else if (flag == "--resume") {
      spec.resume = true;
    } else if (flag == "--no-batch-eval") {
      circuit::MnaWorkspace::setBatchedEvalDefault(false);
    } else if (flag == "--ordering") {
      const std::string v = takeValue(flag);
      sparse::Ordering ord;
      if (!sparse::parseOrdering(v, ord)) {
        std::fprintf(stderr, "--ordering: expected natural|amd, got '%s'\n",
                     v.c_str());
        return 1;
      }
      sparse::setOrderingDefault(ord);
    } else if (flag == "--inject-fault") {
      try {
        diag::FaultInjector::global().arm(takeValue(flag));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "--inject-fault: %s\n", e.what());
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 1;
    }
    --argc;
    ++argv;
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: rficsim [--fe-trap] [--stats] [--threads <n>] "
                 "[--timeout <sec>] [--max-bytes <n>] "
                 "[--checkpoint <file>] [--resume] [--inject-fault <spec>] "
                 "[--no-batch-eval] [--ordering <natural|amd>] "
                 "<netlist-file | ->\n");
    return 1;
  }
  if (spec.resume && spec.checkpointPath.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint <file>\n");
    return 1;
  }
  if (std::string(argv[1]) == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    spec.netlist = buf.str();
  } else {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    spec.netlist = buf.str();
  }
  // Engine::run never throws: parse and solver failures arrive as Stderr
  // events with the same text and exit codes the monolithic CLI produced.
  engine::Engine eng;
  StdioSink sink;
  const engine::JobResult res = eng.run(spec, sink);
  if (stats) {
    const std::string report = perf::format(perf::global().snapshot());
    std::fprintf(stderr, "%s", report.c_str());
  }
  return res.exitCode;
}
