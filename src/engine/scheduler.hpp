// Scheduler: a priority job queue running admitted JobSpecs on its own
// worker threads, all sharing one Engine (and therefore one context pool,
// one perf::ThreadPool, one fft::PlanCache).
//
// Design points:
//
//  * Admission control — submit() refuses jobs (returns 0 and fills a
//    structured Rejection: QueueFull / ShuttingDown / SpecInvalid / Shed)
//    instead of queuing without bound. Each admitted job's RunBudget is
//    armed at admission, so its wall-clock limit covers queue wait too: a
//    job can expire mid-queue and is then finalized with exit code 4
//    without ever running. Pre-flight validation (engine::preflightCheck)
//    rejects empty, malformed, or over-cap netlists before they occupy a
//    worker.
//
//  * Priority classes with deterministic aging — one FIFO queue per
//    Priority class (high, normal, batch). Workers pop the highest
//    non-empty class, and every time a waiting lower class is passed over
//    its counter ticks; at Options::agingThreshold the starved class pops
//    next regardless (a promotion, counted in stats). The discipline is a
//    pure function of pop counts — no clocks — so dispatch order is
//    deterministic and testable. Running jobs are never preempted or
//    killed; priority acts only at pop time, and a job's *output* is
//    identical in every class (only its wait differs).
//
//  * Load shedding — once occupancy (queued + running) reaches
//    Options::highWater, batch-class submissions are refused with
//    RejectReason::Shed and stats() reports degraded=true, so well-behaved
//    clients (tools/rficd_client.py) back off before the queue saturates
//    for the interactive classes.
//
//  * Cooperative cancellation — cancel() trips the job's RunBudget
//    (requestCancel). A queued job is finalized immediately from the
//    cancelling thread; a running one unwinds at the engines' next budget
//    poll and finishes with exit code 5. There is no thread kill anywhere.
//
//  * Memory budgets — a spec's maxBytes arms the budget's MemAccount at
//    admission; the engine installs it on the job's thread, workspace grow
//    sites charge it, and a job that blows the cap unwinds with exit 6.
//
// Event delivery: the Scheduler emits Started and Finished itself and
// forwards everything the Engine streams in between. Events for one job
// arrive in order from one thread at a time, but a sink shared by several
// jobs sees interleaved calls from different workers — sinks serialize
// internally (engine/job.hpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "diag/resilience.hpp"
#include "diag/thread_annotations.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"

namespace rfic::engine {

/// Status-listing view of one job (daemon `status` command, tests).
struct JobInfo {
  JobId id = 0;
  std::string label;
  JobState state = JobState::Queued;
  int exitCode = 0;  ///< valid once state is Done/Cancelled
};

/// Why submit() refused a job. None means the job was admitted.
enum class RejectReason {
  None = 0,
  QueueFull,     ///< occupancy reached Options::queueDepth
  ShuttingDown,  ///< shutdown() has begun; no further admissions
  SpecInvalid,   ///< pre-flight validation failed (exit-2-class input error)
  Shed,          ///< batch-class job refused above the high-water mark
};

/// Stable wire name: "queue-full", "shutting-down", "spec-invalid", "shed".
const char* toString(RejectReason r);

/// Structured refusal filled by submit() whenever it returns 0.
struct Rejection {
  RejectReason reason = RejectReason::None;
  std::string detail;  ///< human-readable specifics (preflight message, ...)
};

/// Queue gauges and lifetime counters (daemon `stats`, overload tests).
/// Gauges are a consistent snapshot under the scheduler lock.
struct SchedulerStats {
  std::size_t queued = 0;        ///< jobs waiting for a worker
  std::size_t running = 0;       ///< jobs on a worker right now
  std::size_t queueDepth = 0;    ///< Options::queueDepth (admission cap)
  std::size_t highWater = 0;     ///< Options::highWater (shed threshold)
  bool degraded = false;         ///< occupancy >= highWater right now
  Real maxQueueAgeSeconds = 0;   ///< longest current queue wait
  std::uint64_t submitted = 0;   ///< submit() calls, admitted or not
  std::uint64_t admitted = 0;
  std::uint64_t finished = 0;        ///< terminal events delivered
  std::uint64_t shed = 0;            ///< batch refusals above high water
  std::uint64_t rejectedFull = 0;    ///< refusals at queueDepth
  std::uint64_t rejectedInvalid = 0; ///< pre-flight refusals
  std::uint64_t promoted = 0;        ///< aging promotions (a starved class
                                     ///< popped ahead of a waiting higher one)
};

class Scheduler {
 public:
  struct Options {
    std::size_t workers = 1;     ///< concurrent jobs
    std::size_t queueDepth = 64; ///< admission cap: queued + running jobs
    /// Shed threshold: once occupancy reaches this, batch-class
    /// submissions are refused (RejectReason::Shed) and stats() reports
    /// degraded. 0 or > queueDepth → derived as 3/4 of queueDepth (min 1).
    std::size_t highWater = 0;
    /// Aging: a waiting lower-priority class passed over this many pops is
    /// dispatched next regardless of higher-priority arrivals. Pure pop
    /// counting — deterministic. 0 → default 8.
    std::size_t agingThreshold = 0;
    /// Cheap parse-only submit validation; zero caps leave only the
    /// always-on empty/malformed-netlist checks (engine::preflightCheck).
    PreflightLimits preflight;
    Engine::Options engine;
  };

  Scheduler() : Scheduler(Options{}) {}
  explicit Scheduler(Options opts);
  ~Scheduler();  ///< shutdown(): cancels everything and joins the workers

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admit a job: assigns and returns its JobId (>= 1), arms its RunBudget
  /// (wall/newton/krylov/memory) from the spec's limits, and queues it in
  /// its priority class. Returns 0 — admission refused — and fills
  /// `rejection` (when non-null) with the structured reason: the queue is
  /// at queueDepth, the scheduler is shutting down, pre-flight validation
  /// failed, or a batch job arrived above the high-water mark. `sink`
  /// receives the job's whole event stream (Started .. Finished) and is
  /// kept alive by the scheduler until the Finished event is delivered.
  JobId submit(JobSpec spec, std::shared_ptr<EventSink> sink,
               Rejection* rejection = nullptr) RFIC_EXCLUDES(mu_);

  /// Request cancellation. Queued jobs finalize immediately (Finished with
  /// exit 5 is emitted from this thread); running jobs unwind at their next
  /// budget poll. Returns false for unknown or already-finished jobs.
  bool cancel(JobId id) RFIC_EXCLUDES(mu_);

  std::optional<JobInfo> info(JobId id) RFIC_EXCLUDES(mu_);
  std::vector<JobInfo> list() RFIC_EXCLUDES(mu_);

  /// Consistent snapshot of queue gauges and lifetime counters.
  SchedulerStats stats() RFIC_EXCLUDES(mu_);

  /// Block until the job finishes and return its result. Throws
  /// InvalidArgument for an unknown id.
  JobResult wait(JobId id) RFIC_EXCLUDES(mu_);

  /// Block until every admitted job has finished.
  void drain() RFIC_EXCLUDES(mu_);

  /// Stop admitting, cancel every queued and running job, join the
  /// workers. Idempotent.
  void shutdown() RFIC_EXCLUDES(mu_);

  Engine& engine() { return engine_; }

 private:
  struct Entry {
    JobSpec spec;  ///< its netlist is freed once the job is finalized
    std::shared_ptr<EventSink> sink;
    JobState state = JobState::Queued;
    diag::RunBudget budget;  ///< armed at submit; cancel() trips it
    JobResult result;
    bool finished = false;  ///< result valid + Finished event delivered
    std::chrono::steady_clock::time_point enqueuedAt{};  ///< for queue age
  };

  static constexpr std::size_t kClasses = 3;  ///< one queue per Priority

  void workerLoop();
  /// Dispatch discipline: pop an aged lower class if one crossed the
  /// threshold (highest such class first), else the highest non-empty
  /// class; tick the passed-over counter of every waiting lower class.
  /// Returns 0 when every queue is empty.
  JobId popNextLocked() RFIC_REQUIRES(mu_);
  bool queuesEmptyLocked() const RFIC_REQUIRES(mu_);
  /// Emits (optionally a Stderr line and) Finished, then marks the entry
  /// done. Called with mu_ held and the entry's state already terminal;
  /// drops the lock around the sink calls (sinks may block on I/O).
  void finalize(Entry& e, JobResult result, diag::UniqueLock& lock,
                const std::string& stderrText = {}) RFIC_REQUIRES(mu_);

  Options opts_;
  Engine engine_;

  diag::Mutex mu_;
  std::condition_variable cvWork_;   ///< workers: queue became non-empty
  std::condition_variable cvDone_;   ///< waiters: some job finished
  std::map<JobId, std::unique_ptr<Entry>> jobs_ RFIC_GUARDED_BY(mu_);
  std::deque<JobId> queues_[kClasses] RFIC_GUARDED_BY(mu_);
  std::size_t passedOver_[kClasses] RFIC_GUARDED_BY(mu_) = {0, 0, 0};
  JobId nextId_ RFIC_GUARDED_BY(mu_) = 1;
  std::size_t active_ RFIC_GUARDED_BY(mu_) = 0;  ///< queued + running
  bool stop_ RFIC_GUARDED_BY(mu_) = false;
  // Lifetime counters surfaced by stats().
  std::uint64_t submitted_ RFIC_GUARDED_BY(mu_) = 0;
  std::uint64_t admitted_ RFIC_GUARDED_BY(mu_) = 0;
  std::uint64_t finished_ RFIC_GUARDED_BY(mu_) = 0;
  std::uint64_t shed_ RFIC_GUARDED_BY(mu_) = 0;
  std::uint64_t rejectedFull_ RFIC_GUARDED_BY(mu_) = 0;
  std::uint64_t rejectedInvalid_ RFIC_GUARDED_BY(mu_) = 0;
  std::uint64_t promoted_ RFIC_GUARDED_BY(mu_) = 0;

  // allow-detached-thread: scheduler workers, joined in shutdown().
  std::vector<std::thread> workers_;  // lint: allow-detached-thread (joined)
};

}  // namespace rfic::engine
