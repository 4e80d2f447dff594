// Lightweight performance counters for the assemble→factor→solve pipeline.
//
// The paper's Section 2 cost argument is quantitative: steady-state RF
// methods become practical only when repeated circuit evaluation and
// linearization are cheap. This layer makes that cost observable. The
// pipeline bumps perf::global() exactly once per event — evaluations,
// factorizations (counted inside SymbolicLU), refactorizations, solves,
// transforms, and wall nanoseconds per stage. Attribution is by scope: an
// analysis that returns a Snapshot runs under its own CounterScope
// (perf::measured), the engine installs one per job, and every scope folds
// into its parent on exit, so the process totals read by `rficsim --stats`,
// rficd and the benches are the sum of everything.
//
// Counter fields are relaxed atomics so the parallel fan-out paths (HB
// block-preconditioner assembly, jitter Monte-Carlo, MoM panel fill) can
// share one instance without synchronization; totals are exact because
// each increment is atomic.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace rfic::perf {

// The counter table — the one definition of every counter. Each row
// generates a Snapshot field, its Counters storage, its merge in `+=` /
// addSnapshot, its line in format(), its bench JSON key (snake_case of the
// name) and its field in rficd's `finished` and `stats` events (the name).
//
//   X(name, label, merge, unit, parent)
//     name    Snapshot member, also the JSON key in rficd events.
//     label   format() text.
//     merge   Sum (a flow: folding two scopes adds) or Max (a high-water
//             gauge: folding keeps the larger value).
//     unit    Count, Ns (nanoseconds) or Bytes.
//     parent  "" or the row this one is a subset of; child ≤ parent holds
//             in every snapshot.
//
// One clock rule covers every Ns row: each bump adds the elapsed wall time
// of the thread that bumps it, so bumps from parallel pool lanes add up and
// a parallel stage can report more time than the wall clock that contained
// it (extractCompressNs, the HB block factorizations, fftNs).
//
// Adding a counter is one row here; Counters::add(Id::name, n) bumps it.
#define RFIC_PERF_COUNTERS(X)                                                \
  X(evals, "evals", Sum, Count, "")                                          \
  X(evalBatched, "batched SoA", Sum, Count, "evals")                         \
  X(evalReuses, "eval reuses", Sum, Count, "")                               \
  X(evalNs, "eval time", Sum, Ns, "")                                        \
  X(evalBatchNs, "batched SoA", Sum, Ns, "evalNs")                           \
  X(factorizations, "factorizations", Sum, Count, "")                        \
  X(factorNs, "factor time", Sum, Ns, "")                                    \
  X(orderingNs, "ordering", Sum, Ns, "factorNs")                             \
  X(factorFillNnz, "factor fill nnz", Max, Count, "")                        \
  X(refactorizations, "refactorizations", Sum, Count, "")                    \
  X(refactorNs, "refactor time", Sum, Ns, "")                                \
  X(refactorSkips, "refactor skips", Sum, Count, "")                         \
  X(solves, "solves", Sum, Count, "")                                        \
  X(solveNs, "solve time", Sum, Ns, "")                                      \
  X(workspaceGrowth, "workspace growth", Sum, Count, "")                     \
  X(fftCount, "ffts", Sum, Count, "")                                        \
  X(fftNs, "fft time", Sum, Ns, "")                                          \
  X(planCacheHits, "plan cache hits", Sum, Count, "")                        \
  X(planCacheMisses, "plan cache misses", Sum, Count, "")                    \
  X(matvecs, "matvecs", Sum, Count, "")                                      \
  X(matvecNs, "matvec time", Sum, Ns, "")                                    \
  X(extractBuilds, "extract builds", Sum, Count, "")                         \
  X(extractBuildNs, "extract build time", Sum, Ns, "")                       \
  X(extractCompressNs, "extract compress time", Sum, Ns, "")                 \
  X(ctxHits, "engine ctx hits", Sum, Count, "")                              \
  X(ctxMisses, "engine ctx misses", Sum, Count, "")                          \
  X(memPeakBytes, "mem peak", Max, Bytes, "")                                \
  X(retries, "retries", Sum, Count, "")                                      \
  X(fallbacks, "fallbacks", Sum, Count, "")                                  \
  X(parseNs, "parse time", Sum, Ns, "")

/// Row index of each counter.
enum class Id : std::size_t {
#define RFIC_PERF_ID(name, label, merge, unit, parent) name,
  RFIC_PERF_COUNTERS(RFIC_PERF_ID)
#undef RFIC_PERF_ID
};
#define RFIC_PERF_ONE(name, label, merge, unit, parent) +1
inline constexpr std::size_t kNumCounters =
    0 RFIC_PERF_COUNTERS(RFIC_PERF_ONE);
#undef RFIC_PERF_ONE

enum class Merge { Sum, Max };
enum class Unit { Count, Ns, Bytes };

/// Plain copyable totals — what analyses embed in their result structs.
struct Snapshot {
#define RFIC_PERF_FIELD(name, label, merge, unit, parent) \
  std::uint64_t name = 0;
  RFIC_PERF_COUNTERS(RFIC_PERF_FIELD)
#undef RFIC_PERF_FIELD
  // Retired, always 0 (the level-scheduled refactor replay was removed);
  // kept outside the table for trace readers.
  std::uint64_t refactorLevels = 0;
  std::uint64_t refactorParallelNs = 0;

  Snapshot& operator+=(const Snapshot& o);
};

/// One table row, for code that walks every counter (format(), the JSON
/// writers, the table tests).
struct Row {
  const char* name;
  const char* label;
  Merge merge;
  Unit unit;
  const char* parent;  ///< "" = top level
  std::uint64_t Snapshot::*field;
};

inline constexpr std::array<Row, kNumCounters> kRows{{
#define RFIC_PERF_ROW(name, label, merge, unit, parent) \
  {#name, label, Merge::merge, Unit::unit, parent, &Snapshot::name},
    RFIC_PERF_COUNTERS(RFIC_PERF_ROW)
#undef RFIC_PERF_ROW
}};

inline Snapshot& Snapshot::operator+=(const Snapshot& o) {
  for (const Row& r : kRows) {
    std::uint64_t& v = this->*r.field;
    const std::uint64_t w = o.*r.field;
    v = r.merge == Merge::Sum ? v + w : (w > v ? w : v);
  }
  return *this;
}

/// Thread-safe accumulator. Increments use relaxed atomics — the counters
/// are statistics, not synchronization.
class Counters {
 public:
  /// Bump one row by `n`: a Sum row adds, a Max row keeps the larger value.
  void add(Id id, std::uint64_t n) {
    const std::size_t i = static_cast<std::size_t>(id);
    if (kRows[i].merge == Merge::Sum)
      v_[i].fetch_add(n, std::memory_order_relaxed);
    else
      casMax(v_[i], n);
  }

  void addEval(std::uint64_t ns) { addEvals(1, ns); }
  /// One sweep of `count` evaluations timed as a whole (multi-sample
  /// evalSamples passes time the sweep, not each sample).
  void addEvals(std::uint64_t count, std::uint64_t ns) {
    add(Id::evals, count);
    add(Id::evalNs, ns);
  }
  /// `count` evaluations served by the batched SoA device engine, counted
  /// in evals/evalNs too: evals − evalBatched is the scalar-walk share.
  void addEvalBatch(std::uint64_t count, std::uint64_t ns) {
    addEvals(count, ns);
    add(Id::evalBatched, count);
    add(Id::evalBatchNs, ns);
  }
  /// An evaluation request served from the workspace's last evaluation
  /// (MnaWorkspace::evalBivariate): not an eval; its time, the state
  /// comparison and any source restamp, lands in evalNs.
  void addEvalReuse(std::uint64_t ns) {
    add(Id::evalReuses, 1);
    add(Id::evalNs, ns);
  }
  void addFactorization(std::uint64_t ns) {
    add(Id::factorizations, 1);
    add(Id::factorNs, ns);
  }
  void addRefactorization(std::uint64_t ns) {
    add(Id::refactorizations, 1);
    add(Id::refactorNs, ns);
  }
  /// A refactor that returned at once: its values were bitwise equal to
  /// the ones the current factors came from, so no replay ran.
  void addRefactorSkip() { add(Id::refactorSkips, 1); }
  /// Fill-reducing pre-ordering time (the AMD stage of a factorization).
  void addOrdering(std::uint64_t ns) { add(Id::orderingNs, ns); }
  /// One analysis's factor size, fill-in included.
  void noteFactorFill(std::uint64_t nnz) { add(Id::factorFillNnz, nnz); }
  /// One MnaWorkspace buffer-growth event (pattern growth, batch compile,
  /// sweep lanes, waveform cache); steady-state iterations bump none.
  void addWorkspaceGrowth() { add(Id::workspaceGrowth, 1); }
  void addSolve(std::uint64_t ns) {
    add(Id::solves, 1);
    add(Id::solveNs, ns);
  }
  /// Resilience-layer retry attempt (dt cut, ladder stage, re-run).
  void addRetry() { add(Id::retries, 1); }
  /// Strategy escalation (different solver/preconditioner/ladder rung).
  void addFallback() { add(Id::fallbacks, 1); }
  /// One bump per *batch* of 1-D transforms: the hot loops time whole
  /// column sweeps, not individual butterflies.
  void addFfts(std::uint64_t count, std::uint64_t ns) {
    add(Id::fftCount, count);
    add(Id::fftNs, ns);
  }
  void addPlanCacheHit() { add(Id::planCacheHits, 1); }
  void addPlanCacheMiss() { add(Id::planCacheMisses, 1); }
  /// One compressed-operator matvec (IES³ apply).
  void addMatvec(std::uint64_t ns) {
    add(Id::matvecs, 1);
    add(Id::matvecNs, ns);
  }
  /// One IES³ matrix construction (tree + plan + parallel block fill).
  void addExtractionBuild(std::uint64_t ns) {
    add(Id::extractBuilds, 1);
    add(Id::extractBuildNs, ns);
  }
  /// ACA+SVD compression time for one build, summed across worker threads.
  void addExtractionCompress(std::uint64_t ns) {
    add(Id::extractCompressNs, ns);
  }
  /// Engine circuit-context cache outcome for one job (see engine/engine.hpp):
  /// a hit means the job reused a warm MnaWorkspace — SymbolicLU pattern and
  /// pivot order included — from an earlier job with the same topology.
  void addCtxHit() { add(Id::ctxHits, 1); }
  void addCtxMiss() { add(Id::ctxMisses, 1); }
  /// One job's workspace peak (diag::MemAccount).
  void noteMemPeak(std::uint64_t bytes) { add(Id::memPeakBytes, bytes); }

  /// Fold a snapshot's totals in by each row's merge rule (used by
  /// CounterScope to merge a scope into its parent on exit).
  void addSnapshot(const Snapshot& s) {
    for (std::size_t i = 0; i < kNumCounters; ++i)
      if (const std::uint64_t v = s.*kRows[i].field; v != 0)
        add(static_cast<Id>(i), v);
  }

  Snapshot snapshot() const {
    Snapshot s;
    for (std::size_t i = 0; i < kNumCounters; ++i)
      s.*kRows[i].field = v_[i].load(std::memory_order_relaxed);
    return s;
  }

  void reset() {
    for (auto& a : v_) a.store(0, std::memory_order_relaxed);
  }

 private:
  /// High-water-mark update for the Max rows.
  static void casMax(std::atomic<std::uint64_t>& gauge, std::uint64_t v) {
    std::uint64_t cur = gauge.load(std::memory_order_relaxed);
    while (v > cur &&
           !gauge.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kNumCounters> v_{};
};

/// The true process-wide accumulator. Scoped contributions (see
/// CounterScope) fold in here when their scope ends, so after all jobs
/// finish this holds the same totals it always did. Read by
/// `rficsim --stats`, `rficd`'s stats command, and the benches.
Counters& process();

/// The counters the pipeline bumps: the innermost CounterScope installed on
/// this thread, or process() when none is. Every call site in the library
/// goes through here, which is what makes per-job attribution work — the
/// engine installs a scope per job and parallelFor propagates it to worker
/// threads for the duration of each batch.
Counters& global();

/// RAII per-scope counter attribution. While alive on a thread, every
/// perf::global() bump on that thread (and on ThreadPool workers executing
/// its batches) lands in the given Counters instead of the enclosing scope;
/// on destruction the scope's totals fold into the enclosing scope (or the
/// process instance), so outer totals are unchanged by nesting. The engine
/// gives each job one; perf::measured gives each analysis one.
class CounterScope {
 public:
  explicit CounterScope(Counters& c);
  ~CounterScope();
  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;

  /// The innermost scope installed on the calling thread (nullptr = none).
  static Counters* current();
  /// Install `c` (may be null) as the calling thread's scope, returning the
  /// previous one. ThreadPool uses this to propagate the dispatching
  /// thread's scope into its workers around each batch.
  static Counters* exchange(Counters* c);

 private:
  Counters& mine_;
  Counters* prev_;
};

/// Run `f` under a fresh CounterScope and return its result with `.perf`
/// set to the scope's totals — the entry wrapper of every analysis whose
/// result carries a Snapshot. Every return path of `f` is covered, and the
/// totals start from zero even when the analysis reuses a warm workspace.
template <class F>
auto measured(F&& f) {
  Counters counters;
  auto res = [&] {
    const CounterScope scope(counters);
    return std::forward<F>(f)();
  }();
  res.perf = counters.snapshot();
  return res;
}

/// Monotonic wall-clock stamp for the pipeline timers.
class Timer {
 public:
  Timer() : t0_(std::chrono::steady_clock::now()) {}
  std::uint64_t ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Multi-line human-readable rendering, one line per table row (used by
/// rficsim --stats and rficd's stats event).
std::string format(const Snapshot& s);

}  // namespace rfic::perf
