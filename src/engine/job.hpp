// Job model of the simulation engine: what a client submits (JobSpec),
// what an execution produces (JobResult), and the event stream in between.
//
// The engine layer splits the old rficsim monolith along the seam the
// ROADMAP's "simulation-as-a-service" item names: a *job* is one netlist
// plus its analysis cards plus per-job isolation settings (RunBudget
// limits, a cooperative thread share), and executing a job yields a stream
// of Events — progress, rendered output chunks, a final structured result —
// instead of printf calls scattered through a main(). rficsim is now a
// thin client that replays the event stream onto stdout/stderr; rficd
// serializes the same stream as newline-delimited JSON over a socket.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "diag/convergence.hpp"
#include "perf/perf.hpp"

namespace rfic::engine {

using JobId = std::uint64_t;

/// Scheduling class of a job. The Scheduler keeps one FIFO queue per
/// class; High pops before Normal before Batch at dispatch time, with
/// deterministic aging so lower classes are never starved, and Batch is
/// the first class shed when the queue crosses its high-water mark
/// (scheduler.hpp has the full semantics). Running jobs are never
/// preempted — priority acts only at pop time.
enum class Priority : int { High = 0, Normal = 1, Batch = 2 };

/// Parse a wire name ("high", "normal", "batch"); false (out untouched) for
/// anything unrecognized.
bool parsePriority(const std::string& s, Priority& out);

/// One simulation request. The netlist text carries both the element cards
/// and the analysis control cards (.op/.tran/.ac/.noise/.hb/.print), same
/// dialect as the rficsim CLI; the remaining fields are the per-job
/// isolation contract a multi-tenant server needs.
struct JobSpec {
  JobId id = 0;           ///< assigned by the Scheduler; 0 for direct runs
  std::string label;      ///< client-chosen tag echoed in status listings
  std::string netlist;    ///< full netlist text (elements + analysis cards)

  /// Scheduling class (see Priority above). Affects only dispatch order
  /// and shedding — a job's output is bitwise identical in every class.
  Priority priority = Priority::Normal;

  // --- per-job RunBudget ----------------------------------------------
  Real timeoutSeconds = 0;        ///< wall-clock budget (0 = none)
  std::uint64_t newtonLimit = 0;  ///< total Newton iterations (0 = none)
  std::uint64_t krylovLimit = 0;  ///< total Krylov iterations (0 = none)
  /// Workspace byte budget (diag::MemAccount; 0 = none). A job whose
  /// grow-once workspaces charge past this unwinds cooperatively with
  /// exit code 6 — the allocation itself never fails.
  std::uint64_t maxBytes = 0;

  /// Cooperative thread share: max perf::ThreadPool lanes (caller +
  /// workers) this job's parallel sections may occupy; 0 = uncapped, 1 =
  /// fully inline. Enforced via ThreadPool::ScopedLaneCap for the duration
  /// of the job.
  std::size_t threadShare = 0;

  /// Sparse-LU column order for this job: "natural", "amd", or "" for
  /// the process default, which is "amd" unless the daemon was started
  /// with --ordering (sparse::ScopedOrderingOverride for the duration of
  /// the job). Unrecognized values reject the job with exit
  /// code 2 before any analysis runs.
  std::string ordering;

  // --- CLI passthrough (unused by the daemon) -------------------------
  std::string checkpointPath;  ///< transient checkpoint file ("" = off)
  bool resume = false;         ///< resume from checkpointPath
};

/// Structured summary of one executed analysis card. Full tabular output
/// (waveforms, sweeps, spectra) travels in the rendered Stdout events; this
/// struct carries the machine-readable headline a queue client needs to
/// triage a job without parsing text.
struct AnalysisOutcome {
  std::string card;     ///< ".op", ".tran", ".ac", ".noise", ".hb"
  std::string summary;  ///< the one-line "* .tran ..." header text
  diag::SolverStatus status = diag::SolverStatus::NotRun;
  bool ok = false;
};

/// Final state of a job, mirrored by Scheduler bookkeeping and the daemon's
/// status command.
enum class JobState { Queued, Running, Done, Cancelled };

const char* toString(JobState s);

/// What Engine::run returns (and the Finished event carries).
struct JobResult {
  /// Same contract as the rficsim process exit codes: 0 ok, 1 usage/parse/
  /// internal error, 2 bad cards or unknown nodes, 3 HB non-convergence,
  /// 4 budget expiry, 5 cancelled, 6 memory-budget expiry (maxBytes).
  int exitCode = 0;
  bool cancelled = false;
  /// Peak workspace bytes charged against the job's diag::MemAccount
  /// (0 when the job never grew a budget-tracked workspace).
  std::uint64_t peakBytes = 0;
  /// Set when the job failed before or outside analysis execution (parse
  /// error, no analysis cards, ...): the rendered diagnostic.
  std::string error;
  std::vector<AnalysisOutcome> analyses;
  perf::Snapshot perf;  ///< this job's counters (CounterScope-attributed)
};

/// One element of a job's event stream, delivered in order.
struct Event {
  enum class Kind {
    Started,       ///< job picked up by a worker (Scheduler-emitted)
    Stdout,        ///< rendered output chunk — exactly what rficsim prints
    Stderr,        ///< rendered diagnostic chunk (budget expiry, errors)
    AnalysisDone,  ///< one analysis card finished; `analysis` is filled
    Finished,      ///< terminal: `result` is filled (Scheduler-emitted)
  };

  Kind kind;
  JobId job = 0;
  std::string text;          ///< Stdout / Stderr payload
  AnalysisOutcome analysis;  ///< AnalysisDone payload
  JobResult result;          ///< Finished payload
};

/// Receiver of a job's event stream. Implementations must tolerate calls
/// from whichever worker thread runs the job; one sink may serve multiple
/// jobs concurrently (the daemon uses one sink per connection), so
/// implementations serialize internally as needed.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void onEvent(const Event& e) = 0;
};

/// Sink that discards everything (benches that only want JobResults).
class NullSink : public EventSink {
 public:
  void onEvent(const Event&) override {}
};

}  // namespace rfic::engine
