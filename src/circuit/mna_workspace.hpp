// MnaWorkspace: the pattern-cached assemble→factor→solve pipeline.
//
// Every Newton-based analysis repeats the same three steps — evaluate the
// circuit, combine C and G into a Jacobian, factor and solve — and before
// this layer each step rebuilt its data structures from scratch: fresh
// triplet lists per evaluation, fresh hashing and Markowitz ordering per
// factorization. The workspace caches what never changes between
// iterations:
//
//  - the union sparsity pattern of G, C, and the diagonal, laid out on the
//    first matrix evaluation and grown on demand afterwards (devices may
//    stamp positions conditionally; a stamp that misses the pattern lands
//    in an overflow list, the pattern is re-unioned, and the evaluation
//    repeats). In batched mode the first layout comes from the device
//    batch's registration pass (DeviceBatch::build); the scalar mode
//    (`--no-batch-eval`) discovers it with a walk of every device stamp at
//    the same point, and the two patterns are equal;
//  - the last evaluation (batched mode): a request for the state it was
//    made at is answered from it, bit for bit (see evalBivariate), and a
//    circuit whose G and C are all constant keeps them across evaluations;
//  - preallocated value arrays that devices stamp into through cached CSR
//    positions — zero heap churn per iteration;
//  - a SymbolicLU whose pivot order and fill pattern are reused by cheap
//    numeric refactorizations until pivot growth forces a repivot
//    (surfaced as diag::SolverStatus::Repivoted).
//
// The workspace bumps perf::global() once per evaluation, solve and
// buffer-growth event (the SymbolicLU counts its own factorizations,
// refactorizations and refactor skips); workspaceGrowth() is the one
// per-workspace tally it also keeps. Analyses read their totals from the
// CounterScope they run under (perf::measured), so a warm workspace reused
// across calls reports each call's work, not the running sum.
#pragma once

#include <vector>

#include "circuit/device_batch.hpp"
#include "circuit/mna.hpp"
#include "diag/convergence.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"
#include "sparse/symbolic_lu.hpp"

namespace rfic::circuit {

class MnaWorkspace {
 public:
  explicit MnaWorkspace(const MnaSystem& sys)
      : sys_(sys), n_(sys.dim()), batched_(batchedEvalDefault()) {}

  std::size_t dim() const { return n_; }
  const MnaSystem& system() const { return sys_; }

  /// Univariate evaluation at time t (both axes read t).
  void eval(const RVec& x, Real t, bool wantMatrices,
            const RVec* xPrev = nullptr) {
    evalBivariate(x, t, t, wantMatrices, xPrev);
  }

  /// Bivariate evaluation: slow sources read t1, fast sources read t2.
  /// Fills f()/q()/b() and, when wantMatrices, gValues()/cValues() over
  /// pattern(). Self-healing: a stamped position missing from the cached
  /// pattern grows the pattern and repeats the evaluation.
  ///
  /// Reuse (batched mode only): a request returns at once, with the outputs
  /// a fresh evaluation would give bit for bit, when its x is bitwise the
  /// last evaluated state, it asks for no limiting (xPrev == nullptr), it
  /// needs no matrices the last evaluation lacked, the circuit compiled
  /// with no generic ops (their stamps may read the time or xPrev), and no
  /// junction limiter moved a voltage in that evaluation. Compiled devices'
  /// f, q, G and C do not depend on time, so a time change restamps only
  /// b, from the source ops. Pattern growth, a recompile and
  /// setBatchedEval() forget the last evaluation. A reuse counts in
  /// evalReuses, not evals. When the batch's G and C are all constant
  /// (DeviceBatch::matricesConstant), an evaluation at a new state keeps
  /// the values the last batched matrix evaluation wrote and restamps only
  /// f, q and b.
  void evalBivariate(const RVec& x, Real t1, Real t2, bool wantMatrices,
                     const RVec* xPrev = nullptr);

  /// Multi-sample sweep: evaluate all S = xs.cols() states at their sample
  /// times in one pass — the HB/shooting inner loop. Column s of the n×S
  /// matrices carries sample s: state in `xs`, results in fS/qS/bS; when
  /// wantMatrices, (*gOut)[s]/(*cOut)[s] receive the G/C value arrays over
  /// pattern() (sized here; pass vectors of length ≥ S). Samples are
  /// independent, so the sweep fans out over setSweepPool()'s lanes in
  /// fixed chunks — results are bitwise identical for every thread count,
  /// and identical to S sequential evalBivariate calls. Pattern growth
  /// mid-sweep restarts the sweep internally; on return the pattern is
  /// consistent across all samples. Steady-state calls (same S, same
  /// pattern) perform no allocation.
  void evalSamples(const numeric::RMat& xs, const Real* t1, const Real* t2,
                   bool wantMatrices, numeric::RMat& fS, numeric::RMat& qS,
                   numeric::RMat& bS, std::vector<std::vector<Real>>* gOut,
                   std::vector<std::vector<Real>>* cOut);

  /// Toggle the batched SoA evaluation engine for this workspace (bitwise
  /// identical either way; `rficsim --no-batch-eval` pins the scalar walk).
  void setBatchedEval(bool on) {
    batched_ = on;
    memo_ = false;
    constMatsHeld_ = false;
  }
  bool batchedEval() const { return batched_; }
  /// Process-wide default picked up by new workspaces (CLI flag plumbing).
  static void setBatchedEvalDefault(bool on);
  static bool batchedEvalDefault();

  /// Thread pool used by evalSamples (nullptr = serial). The chunking is
  /// over a fixed lane count, so results do not depend on the pool size.
  /// factorJacobian does not use it: its refactorization is one serial
  /// row replay over the stored factors.
  void setSweepPool(perf::ThreadPool* pool) { sweepPool_ = pool; }

  /// Pivot pre-ordering for factorJacobian (sparse/ordering.hpp). Defaults
  /// to effectiveOrdering() at construction; changing it invalidates the
  /// cached symbolic factorization so the next factor re-analyzes. Auto
  /// re-resolves against the current per-thread/process setting.
  void setOrdering(sparse::Ordering o) {
    const sparse::Ordering r = sparse::resolveOrdering(o);
    if (r != ordering_) luPatternCurrent_ = false;
    ordering_ = r;
  }
  sparse::Ordering ordering() const { return ordering_; }

  /// Buffer-growth events (pattern discovery/growth, batch compiles, one
  /// per sweep lane-pool growth whatever its lane count, the sweep waveform
  /// cache): stable across steady-state iterations — the counter the
  /// zero-allocation tests pin — and independent of the pool size. Each
  /// event is also bumped once on perf::global() (the workspaceGrowth row).
  std::uint64_t workspaceGrowth() const { return growth_; }

  /// Bytes this workspace and its SymbolicLU have charged to the memory
  /// budget over their lifetime (counted whether or not an account was
  /// installed): the footprint a pooled engine context keeps pinned.
  std::uint64_t chargedBytes() const { return charged_ + lu_.chargedBytes(); }

  const RVec& f() const { return f_; }
  const RVec& q() const { return q_; }
  const RVec& b() const { return b_; }

  /// Shared G/C sparsity pattern (values are all zero; use gValues()/
  /// cValues()). Valid after the first matrix evaluation.
  const sparse::RCSR& pattern() const { return pattern_; }
  const std::vector<Real>& gValues() const { return gVals_; }
  const std::vector<Real>& cValues() const { return cVals_; }
  /// Position of (i, i) in pattern() for each unknown i (always present).
  const std::vector<std::size_t>& diagSlots() const { return diagSlot_; }
  /// Bumped every time the pattern grows; lets callers that cache value
  /// arrays (e.g. HB's per-sample Jacobians) detect a mid-sweep change.
  std::size_t patternVersion() const { return patternVersion_; }

  /// Factor J = cCoeff·C + gCoeff·G + gDiag·I from the current values —
  /// the one shared C/G-combination helper for every Newton loop. The
  /// first call (and any call after a pattern growth or an ordering change)
  /// performs a full symbolic factorization; subsequent calls are numeric
  /// refactorizations, and a J bitwise equal to the last one factored skips
  /// even that (SymbolicLU's refactor skip; a linear circuit at a fixed
  /// step factors once). Returns Converged (replay or skip) or Repivoted
  /// (growth-triggered fresh factorization); see diag::SolverStatus.
  diag::SolverStatus factorJacobian(Real cCoeff, Real gCoeff, Real gDiag = 0);

  /// Solve with the most recent factorization.
  RVec solve(const RVec& rhs);

  /// Allocation-free solve for hot loops (the transient Newton iteration):
  /// writes into `x` through workspace-owned scratch. `x` grows to dim()
  /// on first use and is reused untouched afterwards; `rhs` must not alias
  /// it.
  RFIC_REALTIME void solve(const RVec& rhs, RVec& x);

 private:
  void noteGrowth() {
    ++growth_;
    perf::global().addWorkspaceGrowth();
  }
  /// diag::memCharge(bytes), also tallied into chargedBytes().
  void chargeGrowth(std::uint64_t bytes);
  void ensurePattern(const RVec& x, Real t1, Real t2, const RVec* xPrev);
  void growPattern();
  /// Bookkeeping after pattern_ and diagSlot_ changed: version, value
  /// arrays, growth event and charge; forgets the last evaluation.
  void adoptPattern();
  /// Record the evaluation just made at (x, t1, t2) as reusable, or forget
  /// the last one when it is not.
  void remember(const RVec& x, Real t1, Real t2, bool reusable,
                bool matrices);
  /// (Re)compile the device batch when the pattern changed since the last
  /// compile. Probes generic devices at (x, xPrev, t1, t2).
  void maybeCompileBatch(const RVec& x, const RVec* xPrev, Real t1, Real t2);

  /// Per-lane sweep state: each evalSamples lane evaluates its chunk of
  /// samples through its own buffers, so lanes never share mutable state.
  struct SweepLane {
    RVec x, f, q, b;
    sparse::RTriplets gOv, cOv;
    DeviceBatch::SweepScratch sweep;  ///< kernel outputs per sweep block
    bool overflowed = false;
  };

  const MnaSystem& sys_;
  std::size_t n_;

  RVec f_, q_, b_;
  sparse::RCSR pattern_;                 ///< union pattern, zero values
  std::vector<Real> gVals_, cVals_;      ///< stamped by position
  std::vector<std::size_t> diagSlot_;    ///< CSR position of (i, i)
  sparse::RTriplets gOv_, cOv_;          ///< pattern misses (rare)
  std::size_t patternVersion_ = 0;

  bool batched_;                         ///< this workspace's toggle
  DeviceBatch batch_;
  DeviceBatch::Scratch scratch_;         ///< single-eval kernel outputs
  std::size_t batchVersion_ = 0;         ///< patternVersion_ at last compile
  perf::ThreadPool* sweepPool_ = nullptr;
  std::vector<SweepLane> lanes_;         ///< grow-once sweep lane pool
  std::vector<Real> waveVals_;           ///< cached waveform values, S × nw
  std::vector<Real> waveT1_, waveT2_;    ///< sample times the cache is for
  std::size_t waveVersion_ = 0;          ///< batchVersion_ the cache is for
  // The last evaluation, when reusable (see evalBivariate): its state and
  // times, and whether gVals_/cVals_ hold its matrices.
  bool memo_ = false;
  bool memoMatrices_ = false;
  RVec memoX_;                           ///< grow-once, charged
  Real memoT1_ = 0, memoT2_ = 0;
  /// gVals_/cVals_ hold a batched matrix evaluation of a batch whose G and
  /// C are constant (DeviceBatch::matricesConstant), so a later matrix
  /// evaluation restamps only f, q and b.
  bool constMatsHeld_ = false;
  std::uint64_t growth_ = 0;             ///< buffer-growth events
  std::uint64_t charged_ = 0;            ///< bytes passed to chargeGrowth

  std::vector<Real> jVals_;              ///< combined Jacobian values
  sparse::Ordering ordering_ = sparse::effectiveOrdering();
  sparse::RSymbolicLU lu_;
  bool luPatternCurrent_ = false;        ///< lu_ analyzed this pattern
  RVec solveY_, solveZ_;                 ///< solve(rhs, x) scratch, grow-once
};

/// Dense scatter of one value array over a CSR pattern: for every position
/// p = (r, c), out(row0 + r, col0 + c) += scale · vals[p]. The one CSR→dense
/// bridge for the dense-path analyses (shooting, Floquet, the MPDE
/// fast-axis systems) reading G/C from a workspace.
void scatterDense(const sparse::RCSR& pattern, const std::vector<Real>& vals,
                  numeric::RMat& out, Real scale = 1.0, std::size_t row0 = 0,
                  std::size_t col0 = 0);

}  // namespace rfic::circuit
