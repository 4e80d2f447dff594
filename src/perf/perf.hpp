// Lightweight performance counters for the assemble→factor→solve pipeline.
//
// The paper's Section 2 cost argument is quantitative: steady-state RF
// methods become practical only when repeated circuit evaluation and
// linearization are cheap. This layer makes that cost observable. Every
// MnaWorkspace (and the HB preconditioner) bumps a Counters instance —
// evaluations, symbolic factorizations, numeric refactorizations, solves,
// and wall nanoseconds per stage — and analyses copy a Snapshot into their
// results. A process-global instance feeds `rficsim --stats` and the bench
// JSON reporters.
//
// Counter fields are relaxed atomics so the parallel fan-out paths (HB
// block-preconditioner assembly, jitter Monte-Carlo, MoM panel fill) can
// share one instance without synchronization; totals are exact because
// each increment is atomic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace rfic::perf {

/// Plain copyable totals — what analyses embed in their result structs.
struct Snapshot {
  std::uint64_t evals = 0;             ///< circuit (f, q, b[, G, C]) evaluations
  std::uint64_t factorizations = 0;    ///< full symbolic+numeric factorizations
  std::uint64_t refactorizations = 0;  ///< pattern-reusing numeric passes
  std::uint64_t solves = 0;            ///< triangular solves
  std::uint64_t retries = 0;           ///< resilience-layer retry attempts
                                       ///< (dt cuts, ladder stages, re-runs)
  std::uint64_t fallbacks = 0;         ///< strategy escalations (different
                                       ///< solver/preconditioner/ladder rung)
  std::uint64_t fftCount = 0;          ///< 1-D transforms executed (planned)
  std::uint64_t planCacheHits = 0;     ///< fft::PlanCache lookups served
  std::uint64_t planCacheMisses = 0;   ///< fft::PlanCache plan builds
  std::uint64_t matvecs = 0;           ///< compressed-operator applications
  std::uint64_t extractBuilds = 0;     ///< IES³ matrix constructions
  std::uint64_t ctxHits = 0;           ///< engine circuit-context cache hits
                                       ///< (warm SymbolicLU pattern reused
                                       ///< across jobs)
  std::uint64_t ctxMisses = 0;         ///< engine context builds (cold parse
                                       ///< + pattern discovery)
  std::uint64_t memPeakBytes = 0;      ///< largest per-job workspace peak
                                       ///< observed (diag::MemAccount);
                                       ///< merges by max, not sum
  std::uint64_t evalBatched = 0;       ///< evaluations served by the batched
                                       ///< SoA device engine (subset of evals)
  std::uint64_t factorFillNnz = 0;     ///< largest factor (fill-in included)
                                       ///< any SymbolicLU analysis produced;
                                       ///< merges by max, like memPeakBytes
  std::uint64_t refactorLevels = 0;    ///< retired: always 0 (the level-
                                       ///< scheduled replay was removed);
                                       ///< kept for trace readers
  std::uint64_t evalNs = 0;
  std::uint64_t evalBatchNs = 0;       ///< wall time of the batched subset
                                       ///< (subset of evalNs)
  std::uint64_t orderingNs = 0;        ///< fill-reducing pre-order (AMD) time
                                       ///< (subset of factorNs' analyses)
  std::uint64_t factorNs = 0;
  std::uint64_t refactorNs = 0;
  std::uint64_t refactorParallelNs = 0;  ///< retired: always 0 (the
                                         ///< refactor replay is serial);
                                         ///< kept for trace readers
  std::uint64_t solveNs = 0;
  std::uint64_t fftNs = 0;             ///< wall time inside batched transforms
  std::uint64_t matvecNs = 0;          ///< wall time inside apply() calls
  std::uint64_t extractBuildNs = 0;    ///< wall time in IES³ build (tree+fill)
  std::uint64_t extractCompressNs = 0; ///< ACA+SVD time, summed over threads

  Snapshot& operator+=(const Snapshot& o) {
    evals += o.evals;
    factorizations += o.factorizations;
    refactorizations += o.refactorizations;
    solves += o.solves;
    retries += o.retries;
    fallbacks += o.fallbacks;
    fftCount += o.fftCount;
    planCacheHits += o.planCacheHits;
    planCacheMisses += o.planCacheMisses;
    matvecs += o.matvecs;
    extractBuilds += o.extractBuilds;
    ctxHits += o.ctxHits;
    ctxMisses += o.ctxMisses;
    // A peak is a high-water mark, not a flow: folding two scopes keeps
    // the larger peak rather than summing.
    if (o.memPeakBytes > memPeakBytes) memPeakBytes = o.memPeakBytes;
    evalBatched += o.evalBatched;
    if (o.factorFillNnz > factorFillNnz) factorFillNnz = o.factorFillNnz;
    evalNs += o.evalNs;
    evalBatchNs += o.evalBatchNs;
    orderingNs += o.orderingNs;
    factorNs += o.factorNs;
    refactorNs += o.refactorNs;
    solveNs += o.solveNs;
    fftNs += o.fftNs;
    matvecNs += o.matvecNs;
    extractBuildNs += o.extractBuildNs;
    extractCompressNs += o.extractCompressNs;
    return *this;
  }
};

/// Thread-safe accumulator. Increments use relaxed atomics — the counters
/// are statistics, not synchronization.
class Counters {
 public:
  void addEval(std::uint64_t ns) { bump(evals_, evalNs_, ns); }
  /// One sweep of `count` evaluations timed as a whole (multi-sample
  /// evalSamples passes time the sweep, not each sample).
  void addEvals(std::uint64_t count, std::uint64_t ns) {
    evals_.fetch_add(count, std::memory_order_relaxed);
    evalNs_.fetch_add(ns, std::memory_order_relaxed);
  }
  /// `count` evaluations served by the batched SoA device engine. Also
  /// counted in evals/evalNs: the batched counters are a subset, so
  /// evals − evalBatched is the scalar-walk share.
  void addEvalBatch(std::uint64_t count, std::uint64_t ns) {
    addEvals(count, ns);
    evalBatched_.fetch_add(count, std::memory_order_relaxed);
    evalBatchNs_.fetch_add(ns, std::memory_order_relaxed);
  }
  void addFactorization(std::uint64_t ns) { bump(factor_, factorNs_, ns); }
  void addRefactorization(std::uint64_t ns) { bump(refactor_, refactorNs_, ns); }
  /// Fill-reducing pre-ordering time (the AMD stage of a factorization;
  /// counted inside the enclosing factorization's factorNs too).
  void addOrdering(std::uint64_t ns) {
    orderingNs_.fetch_add(ns, std::memory_order_relaxed);
  }
  /// Record one analysis's factor size, fill-in included (CAS-max gauge,
  /// like noteMemPeak: the counter keeps the largest factor seen).
  void noteFactorFill(std::uint64_t nnz) { casMax(factorFill_, nnz); }
  void addSolve(std::uint64_t ns) { bump(solves_, solveNs_, ns); }
  void addRetry() { retries_.fetch_add(1, std::memory_order_relaxed); }
  void addFallback() { fallbacks_.fetch_add(1, std::memory_order_relaxed); }
  /// One bump per *batch* of 1-D transforms: the hot loops time whole
  /// column sweeps, not individual butterflies.
  void addFfts(std::uint64_t count, std::uint64_t ns) {
    ffts_.fetch_add(count, std::memory_order_relaxed);
    fftNs_.fetch_add(ns, std::memory_order_relaxed);
  }
  void addPlanCacheHit() { planHits_.fetch_add(1, std::memory_order_relaxed); }
  void addPlanCacheMiss() {
    planMisses_.fetch_add(1, std::memory_order_relaxed);
  }
  /// One compressed-operator matvec (IES³ apply).
  void addMatvec(std::uint64_t ns) { bump(matvecs_, matvecNs_, ns); }
  /// One IES³ matrix construction (tree + plan + parallel block fill).
  void addExtractionBuild(std::uint64_t ns) {
    bump(extractBuilds_, extractBuildNs_, ns);
  }
  /// ACA+SVD compression time for one build, summed across worker threads.
  void addExtractionCompress(std::uint64_t ns) {
    extractCompressNs_.fetch_add(ns, std::memory_order_relaxed);
  }
  /// Engine circuit-context cache outcome for one job (see engine/engine.hpp):
  /// a hit means the job reused a warm MnaWorkspace — SymbolicLU pattern and
  /// pivot order included — from an earlier job with the same topology.
  void addCtxHit() { ctxHits_.fetch_add(1, std::memory_order_relaxed); }
  void addCtxMiss() { ctxMisses_.fetch_add(1, std::memory_order_relaxed); }
  /// Record one job's workspace peak (CAS-max: the counter keeps the
  /// largest peak seen, mirroring Snapshot's max-merge for this field).
  void noteMemPeak(std::uint64_t bytes) { casMax(memPeak_, bytes); }

  /// Fold a snapshot's totals in (used by CounterScope to merge a job's
  /// counters into its parent scope / the process totals on scope exit).
  void addSnapshot(const Snapshot& s) {
    evals_.fetch_add(s.evals, std::memory_order_relaxed);
    factor_.fetch_add(s.factorizations, std::memory_order_relaxed);
    refactor_.fetch_add(s.refactorizations, std::memory_order_relaxed);
    solves_.fetch_add(s.solves, std::memory_order_relaxed);
    retries_.fetch_add(s.retries, std::memory_order_relaxed);
    fallbacks_.fetch_add(s.fallbacks, std::memory_order_relaxed);
    ffts_.fetch_add(s.fftCount, std::memory_order_relaxed);
    planHits_.fetch_add(s.planCacheHits, std::memory_order_relaxed);
    planMisses_.fetch_add(s.planCacheMisses, std::memory_order_relaxed);
    matvecs_.fetch_add(s.matvecs, std::memory_order_relaxed);
    extractBuilds_.fetch_add(s.extractBuilds, std::memory_order_relaxed);
    ctxHits_.fetch_add(s.ctxHits, std::memory_order_relaxed);
    ctxMisses_.fetch_add(s.ctxMisses, std::memory_order_relaxed);
    noteMemPeak(s.memPeakBytes);
    evalBatched_.fetch_add(s.evalBatched, std::memory_order_relaxed);
    casMax(factorFill_, s.factorFillNnz);
    evalNs_.fetch_add(s.evalNs, std::memory_order_relaxed);
    evalBatchNs_.fetch_add(s.evalBatchNs, std::memory_order_relaxed);
    orderingNs_.fetch_add(s.orderingNs, std::memory_order_relaxed);
    factorNs_.fetch_add(s.factorNs, std::memory_order_relaxed);
    refactorNs_.fetch_add(s.refactorNs, std::memory_order_relaxed);
    solveNs_.fetch_add(s.solveNs, std::memory_order_relaxed);
    fftNs_.fetch_add(s.fftNs, std::memory_order_relaxed);
    matvecNs_.fetch_add(s.matvecNs, std::memory_order_relaxed);
    extractBuildNs_.fetch_add(s.extractBuildNs, std::memory_order_relaxed);
    extractCompressNs_.fetch_add(s.extractCompressNs,
                                 std::memory_order_relaxed);
  }

  Snapshot snapshot() const {
    Snapshot s;
    s.evals = evals_.load(std::memory_order_relaxed);
    s.factorizations = factor_.load(std::memory_order_relaxed);
    s.refactorizations = refactor_.load(std::memory_order_relaxed);
    s.solves = solves_.load(std::memory_order_relaxed);
    s.retries = retries_.load(std::memory_order_relaxed);
    s.fallbacks = fallbacks_.load(std::memory_order_relaxed);
    s.fftCount = ffts_.load(std::memory_order_relaxed);
    s.planCacheHits = planHits_.load(std::memory_order_relaxed);
    s.planCacheMisses = planMisses_.load(std::memory_order_relaxed);
    s.matvecs = matvecs_.load(std::memory_order_relaxed);
    s.extractBuilds = extractBuilds_.load(std::memory_order_relaxed);
    s.ctxHits = ctxHits_.load(std::memory_order_relaxed);
    s.ctxMisses = ctxMisses_.load(std::memory_order_relaxed);
    s.memPeakBytes = memPeak_.load(std::memory_order_relaxed);
    s.evalBatched = evalBatched_.load(std::memory_order_relaxed);
    s.factorFillNnz = factorFill_.load(std::memory_order_relaxed);
    s.evalNs = evalNs_.load(std::memory_order_relaxed);
    s.evalBatchNs = evalBatchNs_.load(std::memory_order_relaxed);
    s.orderingNs = orderingNs_.load(std::memory_order_relaxed);
    s.factorNs = factorNs_.load(std::memory_order_relaxed);
    s.refactorNs = refactorNs_.load(std::memory_order_relaxed);
    s.solveNs = solveNs_.load(std::memory_order_relaxed);
    s.fftNs = fftNs_.load(std::memory_order_relaxed);
    s.matvecNs = matvecNs_.load(std::memory_order_relaxed);
    s.extractBuildNs = extractBuildNs_.load(std::memory_order_relaxed);
    s.extractCompressNs = extractCompressNs_.load(std::memory_order_relaxed);
    return s;
  }

  void reset() {
    for (auto* a : {&evals_, &evalBatched_, &factor_, &refactor_, &solves_,
                    &retries_, &fallbacks_, &ffts_, &planHits_, &planMisses_,
                    &matvecs_, &extractBuilds_, &ctxHits_, &ctxMisses_,
                    &memPeak_, &factorFill_, &evalNs_, &evalBatchNs_,
                    &orderingNs_, &factorNs_, &refactorNs_, &solveNs_,
                    &fftNs_, &matvecNs_, &extractBuildNs_,
                    &extractCompressNs_})
      a->store(0, std::memory_order_relaxed);
  }

 private:
  static void bump(std::atomic<std::uint64_t>& count,
                   std::atomic<std::uint64_t>& ns, std::uint64_t dt) {
    count.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(dt, std::memory_order_relaxed);
  }
  /// High-water-mark update for gauge-style counters (mem peak, fill).
  static void casMax(std::atomic<std::uint64_t>& gauge, std::uint64_t v) {
    std::uint64_t cur = gauge.load(std::memory_order_relaxed);
    while (v > cur &&
           !gauge.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> evals_{0}, evalBatched_{0}, factor_{0},
      refactor_{0}, solves_{0};
  std::atomic<std::uint64_t> retries_{0}, fallbacks_{0};
  std::atomic<std::uint64_t> ffts_{0}, planHits_{0}, planMisses_{0};
  std::atomic<std::uint64_t> matvecs_{0}, extractBuilds_{0};
  std::atomic<std::uint64_t> ctxHits_{0}, ctxMisses_{0};
  std::atomic<std::uint64_t> memPeak_{0}, factorFill_{0};
  std::atomic<std::uint64_t> evalNs_{0}, evalBatchNs_{0}, orderingNs_{0},
      factorNs_{0}, refactorNs_{0}, solveNs_{0}, fftNs_{0}, matvecNs_{0},
      extractBuildNs_{0}, extractCompressNs_{0};
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
/// its batches) lands in the given Counters instead of the process totals;
/// on destruction the scope's totals fold into the enclosing scope (or the
/// process instance), so process-wide accounting is preserved. Used by
/// engine::Engine to give each job its own perf::Snapshot even when jobs
/// run concurrently.
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

/// Multi-line human-readable rendering (used by rficsim --stats).
std::string format(const Snapshot& s);

}  // namespace rfic::perf
