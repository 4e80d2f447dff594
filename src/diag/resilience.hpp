// Solver resilience layer: run budgets, fault injection, and checkpoints.
//
// Every analysis engine in this library is an iterative process that can
// fail — Newton divergence, Krylov stagnation, a singular Jacobian, a NaN
// escaping a device model — and the production posture (ROADMAP north star)
// is that such failures end in a structured diag::SolverStatus, never a
// crash, a hang, or a silently wrong answer. Three cooperative mechanisms
// back that posture:
//
//  * RunBudget — a shared wall-clock deadline plus global Newton/Krylov
//    iteration caps. Engines charge iterations against the budget and poll
//    `budgetExceeded(...)` at step granularity; when the budget trips they
//    return SolverStatus::BudgetExceeded with whatever partial result they
//    hold instead of running open-loop. One RunBudget may be threaded
//    through a whole analysis chain (DC → transient → HB), and the counters
//    are atomics so parallel paths (jitter Monte-Carlo) can share it.
//
//  * FaultInjector — named injection points compiled into the solvers
//    (nan-in-residual, singular-jacobian, krylov-stall, factor-repivot,
//    budget-expiry, mem-spike), armed via RFIC_INJECT_FAULT or `rficsim
//    --inject-fault`. When disarmed the per-site cost is one relaxed atomic
//    load. The fault-injection test matrix arms each point against each
//    engine and asserts structured recovery or clean failure.
//
//  * Checkpoints — transient and jitter-MC runs can serialize their full
//    integrator state to a file (atomically: tmp + rename) on an interval
//    or when the budget expires, and resume bit-identically: the
//    checkpoint stores every input of the stepping recurrence (state,
//    history, step sizes, the LTE dynamic mask), so the resumed arithmetic
//    is the same sequence the uninterrupted run would have performed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "diag/convergence.hpp"

namespace rfic::diag {

// ------------------------------------------------------------ MemAccount

/// Counting allocator hook for per-job memory budgets. The grow-once
/// workspaces (MnaWorkspace pattern growth, HBWorkspace::need, IES³
/// acquireWorkspace pool misses) charge the bytes they allocate against
/// the account installed on the calling thread (see MemScope / memCharge);
/// the account tracks the running total and a CAS-max peak, and once the
/// total crosses the armed limit every subsequent RunBudget::exceeded()
/// poll trips with code 6 ("memory-bytes") so the job unwinds
/// cooperatively through the same SolverStatus::BudgetExceeded path as a
/// wall-clock expiry — no allocation is ever failed mid-flight, no thread
/// is killed. Charges are relaxed atomics: safe from ThreadPool workers.
///
/// The accounting is deliberately charge-only (no release pairing): an
/// account lives exactly as long as its job, and the contract reported to
/// clients is the *peak*, which release-tracking would not change.
class MemAccount {
 public:
  MemAccount() = default;
  MemAccount(const MemAccount&) = delete;
  MemAccount& operator=(const MemAccount&) = delete;

  /// Arm a byte limit (0 disarms). Not thread-safe against concurrent
  /// charge() — arm before the job starts, like the other budget limits.
  void setLimit(std::uint64_t maxBytes) { limit_ = maxBytes; }
  std::uint64_t limit() const { return limit_; }

  /// Charge `bytes` of workspace growth; updates the peak.
  void charge(std::uint64_t bytes) {
    const std::uint64_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t p = peak_.load(std::memory_order_relaxed);
    while (now > p &&
           !peak_.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t currentBytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  std::uint64_t peakBytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  /// True when an armed limit has been crossed.
  bool overLimit() const {
    return limit_ != 0 &&
           current_.load(std::memory_order_relaxed) > limit_;
  }

 private:
  std::uint64_t limit_ = 0;
  std::atomic<std::uint64_t> current_{0};
  std::atomic<std::uint64_t> peak_{0};
};

/// RAII installer of a thread-local "current memory account". Mirrors
/// perf::CounterScope: the engine installs the job's account on the worker
/// thread, ThreadPool batches propagate it into pool workers via
/// exchange(), and memCharge() below charges the innermost installation.
class MemScope {
 public:
  explicit MemScope(MemAccount& account);
  ~MemScope();
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

  /// The account installed on this thread (nullptr when none).
  static MemAccount* current();
  /// Replace this thread's account, returning the previous one. Used by
  /// ThreadPool workers to adopt the dispatching thread's account for the
  /// duration of a batch.
  static MemAccount* exchange(MemAccount* account);

 private:
  MemAccount* prev_;
};

/// Charge `bytes` against the calling thread's installed MemAccount; no-op
/// when none is installed (standalone library use, tests without budgets).
/// Cheap enough for grow sites inside RFIC_REALTIME-audited paths: one
/// thread-local read plus two relaxed atomic ops.
void memCharge(std::uint64_t bytes);

// ------------------------------------------------------------- RunBudget

/// Cooperative wall-clock / iteration budget shared across solvers.
/// Engines charge work and poll exceeded(); once tripped it stays tripped
/// (sticky), so a deep inner loop and its caller agree on the verdict.
class RunBudget {
 public:
  RunBudget() = default;

  /// Arm a wall-clock deadline `seconds` from now (<= 0 disarms).
  void setWallLimit(Real seconds) {
    if (seconds > 0) {
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<Real>(seconds));
      haveDeadline_ = true;
    } else {
      haveDeadline_ = false;
    }
  }
  /// Cap the total Newton iterations charged (0 disarms).
  void setNewtonLimit(std::uint64_t maxIterations) {
    newtonLimit_ = maxIterations;
  }
  /// Cap the total Krylov iterations charged (0 disarms).
  void setKrylovLimit(std::uint64_t maxIterations) {
    krylovLimit_ = maxIterations;
  }
  /// Cap the workspace bytes charged via the attached MemAccount
  /// (0 disarms). Crossing the cap trips the budget with code 6 at the
  /// next exceeded() poll — allocation itself never fails.
  void setMemoryLimit(std::uint64_t maxBytes) { mem_.setLimit(maxBytes); }

  /// The budget's memory account; install it with MemScope on the thread
  /// running the job so workspace grow sites charge it.
  MemAccount& memAccount() { return mem_; }
  const MemAccount& memAccount() const { return mem_; }

  void chargeNewton(std::uint64_t n = 1) {
    newtonUsed_.fetch_add(n, std::memory_order_relaxed);
  }
  void chargeKrylov(std::uint64_t n = 1) {
    krylovUsed_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t newtonUsed() const {
    return newtonUsed_.load(std::memory_order_relaxed);
  }
  std::uint64_t krylovUsed() const {
    return krylovUsed_.load(std::memory_order_relaxed);
  }

  /// True once any limit has been hit; sticky. Safe to call concurrently.
  bool exceeded() const;

  /// Cooperative cancellation: trips the budget immediately (sticky), so
  /// every engine polling budgetExceeded() unwinds with partial results at
  /// its next step boundary. Safe to call from any thread — this is how
  /// the engine::Scheduler cancels a running job.
  void requestCancel() const { trip(5); }

  /// True when the trip came from requestCancel() rather than a limit.
  bool cancelled() const {
    return tripped_.load(std::memory_order_relaxed) == 5;
  }

  /// True when the trip came from the memory budget (exit code 6).
  bool memoryExceeded() const {
    return tripped_.load(std::memory_order_relaxed) == 6;
  }

  /// Trip the memory limit directly (sticky). Used by the `mem-spike`
  /// fault point and by MemAccount once its armed limit is crossed.
  void tripMemory() const { trip(6); }

  /// Which limit tripped: "wall-clock", "newton-iterations",
  /// "krylov-iterations", "injected", "cancelled", "memory-bytes", or ""
  /// while within budget.
  const char* reason() const;

 private:
  using Clock = std::chrono::steady_clock;

  friend bool budgetExceeded(const RunBudget* b);
  void trip(int why) const {
    int expected = 0;
    tripped_.compare_exchange_strong(expected, why,
                                     std::memory_order_relaxed);
  }

  bool haveDeadline_ = false;
  Clock::time_point deadline_{};
  std::uint64_t newtonLimit_ = 0;
  std::uint64_t krylovLimit_ = 0;
  std::atomic<std::uint64_t> newtonUsed_{0};
  std::atomic<std::uint64_t> krylovUsed_{0};
  MemAccount mem_;
  mutable std::atomic<int> tripped_{0};  // 0 ok, 1 wall, 2 newton, 3 krylov,
                                         // 4 injected (budget-expiry fault),
                                         // 5 cancelled (requestCancel),
                                         // 6 memory-bytes (MemAccount)
};

/// The one budget poll every engine uses: true when the (optional) budget
/// has tripped, or when the `budget-expiry` fault point fires. Engines must
/// treat `true` as "stop now and return SolverStatus::BudgetExceeded with
/// partial results".
bool budgetExceeded(const RunBudget* b);

// --------------------------------------------------------- FaultInjector

/// Injection points compiled into the solvers. Keep toString()/parse in
/// resilience.cpp in sync when adding a point.
enum class FaultPoint : int {
  NanInResidual = 0,  ///< poison one assembled residual with a NaN
  SingularJacobian,   ///< make one Jacobian factorization fail as singular
  KrylovStall,        ///< force one GMRES/CG call to report Stagnated
  FactorRepivot,      ///< force one numeric refactorization down the
                      ///< repivot (fresh-factorization) fallback
  BudgetExpiry,       ///< make one budgetExceeded() poll return true
  MemSpike,           ///< make one budgetExceeded() poll trip the memory
                      ///< budget (exit 6), as if a grow site blew the cap
  kCount,
};

/// Stable CLI/env name of a fault point ("nan-in-residual", ...).
const char* toString(FaultPoint p);

/// Process-global fault injector. Disarmed it costs one relaxed atomic
/// load per site; armed, each point carries a countdown of injections.
class FaultInjector {
 public:
  /// The instance every solver consults. First access parses
  /// RFIC_INJECT_FAULT ("point[:count][,point[:count]...]") if set.
  static FaultInjector& global();

  /// Arm `p` to fire `count` times (count == 0 disarms the point).
  void arm(FaultPoint p, std::uint64_t count = 1);
  /// Arm from a CLI/env spec "name" or "name:count". Throws
  /// InvalidArgument on an unknown name or malformed count.
  void arm(const std::string& spec);
  /// Disarm every point and zero the fired counters.
  void reset();

  /// Consume one charge of `p`: true exactly `count` times after arm().
  bool fire(FaultPoint p);
  /// How many times `p` actually fired since the last reset().
  std::uint64_t firedCount(FaultPoint p) const {
    return fired_[static_cast<int>(p)].load(std::memory_order_relaxed);
  }
  bool anyArmed() const {
    return armedPoints_.load(std::memory_order_relaxed) != 0;
  }

 private:
  static constexpr int kPoints = static_cast<int>(FaultPoint::kCount);
  std::atomic<std::uint64_t> remaining_[kPoints]{};
  std::atomic<std::uint64_t> fired_[kPoints]{};
  std::atomic<int> armedPoints_{0};  ///< # points with charges remaining
};

// ----------------------------------------------------------- Checkpoints

/// Complete transient integrator state: everything the stepping recurrence
/// reads, so a resumed run replays bit-identical arithmetic.
struct TransientCheckpoint {
  std::uint64_t steps = 0;
  std::uint64_t newtonIterations = 0;
  std::uint64_t retries = 0;
  Real t = 0;      ///< current time
  Real h = 0;      ///< next step size to attempt
  Real hPrev = 0;  ///< last accepted step (Gear-2 / LTE history)
  bool havePrev = false;
  std::vector<Real> x;      ///< state at t
  std::vector<Real> xPrev;  ///< state one accepted step back (if havePrev)
  /// LTE dynamic-unknown mask captured at the original start point; resume
  /// reuses it instead of re-deriving (the re-derivation at the resume
  /// state could differ and break bit-identity of step control).
  std::vector<unsigned char> dynamicMask;
};

/// Jitter-MC ensemble progress: crossing times of every completed path.
struct JitterCheckpoint {
  std::uint64_t totalPaths = 0;
  /// pathCrossings[p] empty ⇔ path p not finished yet.
  std::vector<std::vector<Real>> pathCrossings;
};

/// Serialize to `path` atomically (write `path.tmp`, then rename). Returns
/// false on I/O failure — callers log and continue; a checkpoint failure
/// must never kill the run it is protecting.
bool saveCheckpoint(const std::string& path, const TransientCheckpoint& ck);
bool saveCheckpoint(const std::string& path, const JitterCheckpoint& ck);

/// Load from `path`. Returns false (and leaves `out` untouched) if the
/// file is missing, truncated, or not a checkpoint of the expected kind.
bool loadCheckpoint(const std::string& path, TransientCheckpoint& out);
bool loadCheckpoint(const std::string& path, JitterCheckpoint& out);

}  // namespace rfic::diag
