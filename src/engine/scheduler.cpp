#include "engine/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace rfic::engine {

const char* toString(RejectReason r) {
  switch (r) {
    case RejectReason::None: return "none";
    case RejectReason::QueueFull: return "queue-full";
    case RejectReason::ShuttingDown: return "shutting-down";
    case RejectReason::SpecInvalid: return "spec-invalid";
    case RejectReason::Shed: return "shed";
  }
  return "?";
}

Scheduler::Scheduler(Options opts) : opts_(opts), engine_(opts.engine) {
  if (opts_.workers == 0) opts_.workers = 1;
  if (opts_.queueDepth == 0) opts_.queueDepth = 1;
  if (opts_.highWater == 0 || opts_.highWater > opts_.queueDepth)
    opts_.highWater = std::max<std::size_t>(1, opts_.queueDepth * 3 / 4);
  if (opts_.agingThreshold == 0) opts_.agingThreshold = 8;
  workers_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i)
    // lint: allow-detached-thread — joined in shutdown()/~Scheduler.
    workers_.emplace_back([this] { workerLoop(); });
}

Scheduler::~Scheduler() { shutdown(); }

JobId Scheduler::submit(JobSpec spec, std::shared_ptr<EventSink> sink,
                        Rejection* rejection) {
  RFIC_REQUIRE(sink != nullptr, "Scheduler::submit: null sink");
  const auto refuse = [rejection](RejectReason why,
                                  std::string detail) -> JobId {
    if (rejection != nullptr) {
      rejection->reason = why;
      rejection->detail = std::move(detail);
    }
    return 0;
  };
  // Pre-flight outside the lock: a pure function of the spec, and the
  // point is to refuse garbage before it costs anyone anything.
  std::string preflight = preflightCheck(spec.netlist, opts_.preflight);

  diag::UniqueLock lock(mu_);
  ++submitted_;
  if (stop_)
    return refuse(RejectReason::ShuttingDown, "scheduler is shutting down");
  if (!preflight.empty()) {
    ++rejectedInvalid_;
    return refuse(RejectReason::SpecInvalid, std::move(preflight));
  }
  if (active_ >= opts_.queueDepth) {
    ++rejectedFull_;
    return refuse(RejectReason::QueueFull,
                  "queue at capacity (" + std::to_string(opts_.queueDepth) +
                      " jobs)");
  }
  // Graceful degradation: above the high-water mark only the interactive
  // classes are admitted; batch work is the first load shed.
  if (spec.priority == Priority::Batch && active_ >= opts_.highWater) {
    ++shed_;
    return refuse(RejectReason::Shed,
                  "overloaded: batch jobs shed above high-water mark (" +
                      std::to_string(opts_.highWater) + "), retry with backoff");
  }
  const JobId id = nextId_++;
  spec.id = id;
  auto e = std::make_unique<Entry>();
  e->spec = std::move(spec);
  e->sink = std::move(sink);
  // The budget is armed at admission, not at start: a wall-clock limit
  // covers time spent waiting in the queue as well, so a stale job can
  // expire mid-queue and never occupy a worker.
  if (e->spec.timeoutSeconds > 0)
    e->budget.setWallLimit(e->spec.timeoutSeconds);
  if (e->spec.newtonLimit > 0) e->budget.setNewtonLimit(e->spec.newtonLimit);
  if (e->spec.krylovLimit > 0) e->budget.setKrylovLimit(e->spec.krylovLimit);
  if (e->spec.maxBytes > 0) e->budget.setMemoryLimit(e->spec.maxBytes);
  e->enqueuedAt = std::chrono::steady_clock::now();
  const auto cls = static_cast<std::size_t>(e->spec.priority);
  RFIC_REQUIRE(cls < kClasses, "Scheduler::submit: bad priority");
  jobs_.emplace(id, std::move(e));
  queues_[cls].push_back(id);
  ++active_;
  ++admitted_;
  cvWork_.notify_one();
  return id;
}

bool Scheduler::cancel(JobId id) {
  diag::UniqueLock lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Entry& e = *it->second;
  if (e.finished || e.state == JobState::Done ||
      e.state == JobState::Cancelled)
    return false;
  e.budget.requestCancel();
  if (e.state == JobState::Running) return true;  // unwinds at next poll
  // Queued: finalize right here so the client hears promptly instead of
  // waiting for a worker to drain down to this entry.
  e.state = JobState::Cancelled;
  JobResult res;
  res.exitCode = 5;
  res.cancelled = true;
  res.error = "cancelled while queued";
  finalize(e, std::move(res), lock, "job cancelled while queued\n");
  return true;
}

std::optional<JobInfo> Scheduler::info(JobId id) {
  diag::LockGuard lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Entry& e = *it->second;
  return JobInfo{id, e.spec.label, e.state, e.result.exitCode};
}

std::vector<JobInfo> Scheduler::list() {
  diag::LockGuard lock(mu_);
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, ep] : jobs_)
    out.push_back(JobInfo{id, ep->spec.label, ep->state,
                          ep->result.exitCode});
  return out;
}

SchedulerStats Scheduler::stats() {
  diag::LockGuard lock(mu_);
  SchedulerStats s;
  s.queueDepth = opts_.queueDepth;
  s.highWater = opts_.highWater;
  const auto now = std::chrono::steady_clock::now();
  for (const auto& q : queues_) {
    for (const JobId id : q) {
      // Queue slots of cancelled/expired entries (finalized in place, id
      // left for the workers to skip) don't count as waiting jobs.
      const auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second->state != JobState::Queued)
        continue;
      ++s.queued;
      const Real age =
          std::chrono::duration<Real>(now - it->second->enqueuedAt).count();
      if (age > s.maxQueueAgeSeconds) s.maxQueueAgeSeconds = age;
    }
  }
  s.running = active_ >= s.queued ? active_ - s.queued : 0;
  s.degraded = active_ >= opts_.highWater;
  s.submitted = submitted_;
  s.admitted = admitted_;
  s.finished = finished_;
  s.shed = shed_;
  s.rejectedFull = rejectedFull_;
  s.rejectedInvalid = rejectedInvalid_;
  s.promoted = promoted_;
  return s;
}

JobResult Scheduler::wait(JobId id) {
  diag::UniqueLock lock(mu_);
  const auto it = jobs_.find(id);
  RFIC_REQUIRE(it != jobs_.end(), "Scheduler::wait: unknown job id");
  Entry& e = *it->second;
  while (!e.finished) cvDone_.wait(lock.native());
  return e.result;
}

void Scheduler::drain() {
  diag::UniqueLock lock(mu_);
  while (active_ != 0) cvDone_.wait(lock.native());
}

void Scheduler::shutdown() {
  {
    diag::UniqueLock lock(mu_);
    stop_ = true;  // no further submissions; workers exit once fifo_ drains
    // jobs_ is never erased from and stop_ blocks inserts, so iterating
    // while finalize() drops the lock per entry is safe; a concurrent
    // cancel() of the same entry loses the state race and backs off.
    for (auto& [id, ep] : jobs_) {
      Entry& e = *ep;
      if (e.finished || e.state == JobState::Done ||
          e.state == JobState::Cancelled)
        continue;
      e.budget.requestCancel();
      if (e.state != JobState::Queued) continue;  // running: unwinds itself
      e.state = JobState::Cancelled;
      JobResult res;
      res.exitCode = 5;
      res.cancelled = true;
      res.error = "cancelled: scheduler shutdown";
      finalize(e, std::move(res), lock, "job cancelled: scheduler shutdown\n");
    }
    cvWork_.notify_all();
  }
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
}

void Scheduler::finalize(Entry& e, JobResult result, diag::UniqueLock& lock,
                         const std::string& stderrText) {
  e.result = std::move(result);
  // The entry outlives its job (status and result read it); the netlist
  // need not. Kept, it grew a daemon by each job's netlist (51 KB for a
  // 576-node mesh) forever. No worker reads the spec of an entry being
  // finalized.
  std::string().swap(e.spec.netlist);
  std::shared_ptr<EventSink> sink = std::move(e.sink);
  Event fin;
  fin.kind = Event::Kind::Finished;
  fin.job = e.spec.id;
  fin.result = e.result;
  // Deliver outside the lock: a sink may block on socket I/O, and holding
  // mu_ there would stall every worker and submit(). The entry stays valid
  // (jobs_ never erases) and no other thread touches it while its state is
  // already terminal and `finished` is still false.
  lock.native().unlock();
  if (sink) {
    if (!stderrText.empty()) {
      Event se;
      se.kind = Event::Kind::Stderr;
      se.job = fin.job;
      se.text = stderrText;
      sink->onEvent(se);
    }
    sink->onEvent(fin);
  }
  lock.native().lock();
  e.finished = true;
  --active_;
  ++finished_;
  cvDone_.notify_all();
}

bool Scheduler::queuesEmptyLocked() const {
  for (const auto& q : queues_)
    if (!q.empty()) return false;
  return true;
}

JobId Scheduler::popNextLocked() {
  // An aged class preempts: the highest-priority waiting class whose
  // passed-over counter crossed the threshold pops first.
  std::size_t pick = kClasses;
  bool aged = false;
  for (std::size_t c = 1; c < kClasses; ++c) {
    if (!queues_[c].empty() && passedOver_[c] >= opts_.agingThreshold) {
      pick = c;
      aged = true;
      break;
    }
  }
  if (!aged) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (!queues_[c].empty()) {
        pick = c;
        break;
      }
    }
  }
  if (pick == kClasses) return 0;
  if (aged) {
    // A promotion only if the aged pop actually jumped a waiting higher
    // class — otherwise it was next in line anyway.
    for (std::size_t c = 0; c < pick; ++c) {
      if (!queues_[c].empty()) {
        ++promoted_;
        break;
      }
    }
  }
  const JobId id = queues_[pick].front();
  queues_[pick].pop_front();
  passedOver_[pick] = 0;  // the class's head advanced; restart its clock
  for (std::size_t c = pick + 1; c < kClasses; ++c)
    if (!queues_[c].empty()) ++passedOver_[c];
  return id;
}

void Scheduler::workerLoop() {
  for (;;) {
    Entry* e = nullptr;
    std::shared_ptr<EventSink> sink;
    {
      diag::UniqueLock lock(mu_);
      while (!stop_ && queuesEmptyLocked()) cvWork_.wait(lock.native());
      const JobId id = popNextLocked();
      if (id == 0) return;  // stop_ set and nothing left to drain
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      e = it->second.get();
      if (e->state != JobState::Queued) continue;  // cancelled while queued
      if (diag::budgetExceeded(&e->budget) && !e->budget.cancelled()) {
        // Expired while waiting in the queue: never run it.
        e->state = JobState::Done;
        JobResult res;
        res.exitCode = e->budget.memoryExceeded() ? 6 : 4;
        res.error = std::string("budget exceeded while queued (") +
                    e->budget.reason() + ")";
        finalize(*e, std::move(res), lock,
                 std::string("budget exceeded while queued (") +
                     e->budget.reason() + ")\n");
        continue;
      }
      e->state = JobState::Running;
      sink = e->sink;  // keep alive across the run without the lock
    }

    Event started;
    started.kind = Event::Kind::Started;
    started.job = e->spec.id;
    sink->onEvent(started);

    JobResult res = engine_.run(e->spec, *sink, &e->budget);

    {
      diag::UniqueLock lock(mu_);
      e->state = res.cancelled ? JobState::Cancelled : JobState::Done;
      finalize(*e, std::move(res), lock);
    }
  }
}

}  // namespace rfic::engine
