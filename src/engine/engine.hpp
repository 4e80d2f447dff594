// Engine: executes one JobSpec — parse, DC, then every analysis card —
// streaming rendered output and structured outcomes through an EventSink.
//
// This is the old rficsim `runFile` lifted out of the CLI into a reusable,
// multi-tenant layer. Two things change beyond the move:
//
//  * Output becomes an event stream (engine/job.hpp). The text rendered
//    into Stdout/Stderr events is byte-identical to what the monolithic
//    CLI printed, so rficsim stays flag-for-flag compatible by simply
//    replaying the stream onto stdio, while rficd forwards the same
//    events as newline-delimited JSON.
//
//  * Repeat-topology jobs share numeric state. The engine keeps a small
//    pool of CircuitContexts — parsed Circuit + MnaSystem + MnaWorkspace —
//    keyed by a hash of the netlist's element cards (analysis cards
//    stripped, so ".op today, .tran tomorrow" on the same circuit still
//    hits). A checked-out context hands its workspace to the DC and
//    transient solvers, which then replay the cached sparsity pattern and
//    SymbolicLU pivot order instead of rediscovering them; the process-wide
//    fft::PlanCache gives HB the same cross-job reuse for free. Contexts
//    are checked out exclusively (removed from the pool while a job runs),
//    so concurrent jobs on one topology never share mutable state.
//
//    The pool is a segmented LRU, so one-off topologies cannot hold the
//    slots that repeat topologies need. A context that has never been hit
//    parks in a probation segment of max(1, contextCacheCap / 4) entries;
//    one that was checked out by a hit parks as protected. Releases evict
//    the oldest probation entry first, and a protected entry only when
//    probation is empty. Protected holds at most cap minus the probation
//    size (at least 1); its least recently used entry moves back to
//    probation when a newer one is promoted, so a topology that starts
//    repeating later still gets in. poolStats() reports the gauges.
//    A plain LRU of the same cap does the same CPU work on daemon_mix but
//    fills every slot the repeat topologies leave free with never-hit
//    one-offs, which costs memory (EXPERIMENTS.md compares the two).
//
// Cancellation and budgets ride on diag::RunBudget: the Scheduler owns one
// budget per job and trips it (requestCancel) to cancel; every solver
// already polls budgetExceeded() at step granularity, so a cancelled job
// unwinds with partial results and exit code 5.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/mna.hpp"
#include "circuit/mna_workspace.hpp"
#include "diag/resilience.hpp"
#include "diag/thread_annotations.hpp"
#include "engine/job.hpp"

namespace rfic::engine {

/// The topology-defining subset of a netlist: element and .model cards,
/// with analysis/print/comment lines stripped and line endings normalized.
/// Two netlists with equal keys build identical circuits.
std::string topologyKey(std::string_view netlist);

/// FNV-1a 64-bit hash of topologyKey(netlist) — the context-cache index.
std::uint64_t topologyHash(const std::string& key);

/// Caps for preflightCheck(). A zero cap disarms that check; the
/// empty-netlist and malformed-card checks are always on.
struct PreflightLimits {
  std::size_t maxDevices = 0;       ///< element-card count cap
  std::size_t maxNodes = 0;         ///< distinct node-name cap (lower bound:
                                    ///< the first two terminals per card)
  std::size_t maxNetlistBytes = 0;  ///< raw netlist text size cap
};

/// Cheap parse-only validation run at submit, before a job occupies a
/// worker: a single scan of the physical lines counting element cards and
/// node names. It constructs no device and allocates nothing per line; the
/// node-name set (views into `netlist`) is built only when maxNodes is
/// armed. A malformed-card diagnostic names the physical line. Returns ""
/// when the spec passes, else a diagnostic suitable for a rejection reply.
/// Violations are the exit-2 class of error (bad input, not engine
/// failure).
std::string preflightCheck(std::string_view netlist,
                           const PreflightLimits& limits);

/// Executes jobs; owns the cross-job CircuitContext pool. Thread-safe:
/// any number of threads may call run() concurrently (the Scheduler's
/// workers all share one Engine).
class Engine {
 public:
  struct Options {
    /// Max parked contexts (checked-out ones don't count). Small on
    /// purpose: a context pins a factorization's fill-in worth of memory.
    /// 0 parks nothing.
    std::size_t contextCacheCap = 16;
  };

  /// Context-pool gauges (rficd's stats line).
  struct PoolStats {
    std::size_t pooled = 0;           ///< parked contexts, both segments
    std::size_t probation = 0;        ///< parked contexts never hit
    std::uint64_t poolEvictions = 0;  ///< contexts dropped on release
    /// Netlist bytes plus MnaWorkspace::chargedBytes() of every parked
    /// context: what the pool keeps pinned, as the memory budget counts it.
    std::uint64_t poolBytes = 0;
  };

  Engine() : Engine(Options{}) {}
  explicit Engine(Options opts) : opts_(opts) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Execute `spec`, streaming events into `sink` from the calling thread.
  /// `budget` is the job's cooperative budget; pass null to have the
  /// engine arm a local one from the spec's limits (the CLI path — the
  /// Scheduler passes its own so cancel() can reach a running job).
  /// Never throws: netlist/analysis errors become Stderr events and a
  /// nonzero exitCode, exactly like the old CLI's catch-all in main().
  JobResult run(const JobSpec& spec, EventSink& sink,
                diag::RunBudget* budget = nullptr) RFIC_EXCLUDES(mu_);

  /// The pool's gauges, read under its lock.
  PoolStats poolStats() RFIC_EXCLUDES(mu_);
  /// Parked contexts right now.
  std::size_t pooledContexts() { return poolStats().pooled; }

 private:
  /// One reusable parsed circuit: the Circuit owns the devices, the
  /// MnaSystem and MnaWorkspace reference it, so the struct is pinned on
  /// the heap and moved around by unique_ptr.
  struct Context {
    std::string key;
    std::uint64_t hash = 0;
    std::size_t netlistBytes = 0;  ///< the parse charge (memCharge)
    bool reused = false;           ///< checked out by a hit: parks protected
    circuit::Circuit ckt;
    std::unique_ptr<circuit::MnaSystem> sys;
    std::unique_ptr<circuit::MnaWorkspace> ws;
  };

  std::unique_ptr<Context> acquireContext(const std::string& netlist)
      RFIC_EXCLUDES(mu_);
  void releaseContext(std::unique_ptr<Context> ctx) RFIC_EXCLUDES(mu_);

  Options opts_;
  diag::Mutex mu_;
  // Both segments are ordered by release time, oldest first.
  std::vector<std::unique_ptr<Context>> probation_ RFIC_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Context>> protected_ RFIC_GUARDED_BY(mu_);
  std::uint64_t poolEvictions_ RFIC_GUARDED_BY(mu_) = 0;
};

}  // namespace rfic::engine
