// Overload-hardening tests (DESIGN.md §11): priority classes with
// deterministic aging (starvation-freedom), structured admission
// rejections (queue-full / shed / shutting-down / spec-invalid),
// per-job memory budgets (exit 6), pre-flight validation, the mem-spike
// fault point, and the scheduler's stats gauges and counters.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "diag/resilience.hpp"
#include "engine/engine.hpp"
#include "engine/scheduler.hpp"

namespace {

using namespace rfic;
using engine::Event;
using engine::JobId;
using engine::Priority;
using engine::RejectReason;

const char* kRcNetlist =
    "V1 in 0 SIN(0 1 1k)\n"
    "R1 in out 1k\n"
    "C1 out 0 1u\n"
    ".print out\n"
    ".op\n"
    ".tran 10u 2m\n";

// Long enough (~200k BE steps) to hold the single worker while the test
// thread queues everything behind it; always cancelled, never waited out.
const char* kHeavyNetlist =
    "V1 in 0 SIN(0 1 1k)\n"
    "R1 in out 1k\n"
    "C1 out 0 1u\n"
    ".print out\n"
    ".tran 5e-8 1e-2\n";

const char* kOpNetlist =
    "V1 in 0 1\nR1 in out 1k\nR2 out 0 2k\n.print out\n.op\n";

engine::JobSpec spec(const std::string& netlist,
                     Priority pri = Priority::Normal) {
  engine::JobSpec s;
  s.netlist = netlist;
  s.priority = pri;
  return s;
}

/// Records each job's output plus the global order of Started events —
/// with one worker that order IS the scheduler's dispatch order.
class OrderSink : public engine::EventSink {
 public:
  void onEvent(const Event& e) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (e.kind == Event::Kind::Started) startOrder_.push_back(e.job);
    if (e.kind == Event::Kind::Stdout) stdoutText_[e.job] += e.text;
    if (e.kind == Event::Kind::Stderr) stderrText_[e.job] += e.text;
  }
  std::vector<JobId> startOrder() {
    std::lock_guard<std::mutex> lock(mu_);
    return startOrder_;
  }
  std::string out(JobId j) {
    std::lock_guard<std::mutex> lock(mu_);
    return stdoutText_[j];
  }
  std::string err(JobId j) {
    std::lock_guard<std::mutex> lock(mu_);
    return stderrText_[j];
  }

 private:
  std::mutex mu_;
  std::vector<JobId> startOrder_;
  std::map<JobId, std::string> stdoutText_, stderrText_;
};

/// Submit a heavy job and wait until a worker actually picks it up, so
/// everything submitted afterwards is queued behind it deterministically.
JobId blockWorker(engine::Scheduler& sched,
                  const std::shared_ptr<OrderSink>& sink) {
  const JobId id = sched.submit(spec(kHeavyNetlist), sink);
  EXPECT_NE(id, 0u);
  for (int i = 0; i < 5000; ++i) {
    const auto info = sched.info(id);
    EXPECT_TRUE(info.has_value());
    if (info->state != engine::JobState::Queued) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return id;
}

// ---------------------------------------------------------- priority names

TEST(Priority, WireNamesRoundTrip) {
  Priority p = Priority::High;
  EXPECT_TRUE(engine::parsePriority("normal", p));
  EXPECT_EQ(p, Priority::Normal);
  EXPECT_TRUE(engine::parsePriority("batch", p));
  EXPECT_EQ(p, Priority::Batch);
  EXPECT_TRUE(engine::parsePriority("high", p));
  EXPECT_EQ(p, Priority::High);
  EXPECT_FALSE(engine::parsePriority("urgent", p));
  EXPECT_EQ(p, Priority::High);  // unchanged on failure
}

// ------------------------------------------------------------- preflight

TEST(Preflight, AlwaysOnChecks) {
  const engine::PreflightLimits off;
  EXPECT_EQ(engine::preflightCheck(kOpNetlist, off), "");
  EXPECT_EQ(engine::preflightCheck("", off), "empty netlist");
  EXPECT_EQ(engine::preflightCheck("  \n\t\n", off), "empty netlist");
  const std::string bad = engine::preflightCheck("R1 in\n.op\n", off);
  EXPECT_NE(bad.find("malformed element card at line 1"), std::string::npos);
  // Comments, control cards, and '+' continuations are not element cards.
  EXPECT_EQ(engine::preflightCheck(
                "* comment\nV1 a 0 PWL(0 0\n+ 1m 5)\n.op\n", off),
            "");
}

TEST(Preflight, Caps) {
  engine::PreflightLimits lim;
  // kOpNetlist has exactly 3 element cards — over a cap of 2.
  lim.maxDevices = 2;
  EXPECT_NE(engine::preflightCheck(kOpNetlist, lim).find("too many devices"),
            std::string::npos);
  lim.maxDevices = 3;
  EXPECT_EQ(engine::preflightCheck(kOpNetlist, lim), "");
  lim.maxNodes = 2;  // {in, 0, out} = 3 distinct names
  EXPECT_NE(engine::preflightCheck(kOpNetlist, lim).find("too many nodes"),
            std::string::npos);
  lim.maxNodes = 3;
  EXPECT_EQ(engine::preflightCheck(kOpNetlist, lim), "");
  lim.maxNetlistBytes = 8;
  EXPECT_NE(engine::preflightCheck(kOpNetlist, lim).find("bytes (cap"),
            std::string::npos);
}

// ----------------------------------------------------- structured rejection

TEST(SchedulerRejection, SpecInvalidForBadNetlists) {
  engine::Scheduler::Options o;
  o.workers = 1;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<OrderSink>();
  engine::Rejection rej;
  EXPECT_EQ(sched.submit(spec(""), sink, &rej), 0u);
  EXPECT_EQ(rej.reason, RejectReason::SpecInvalid);
  EXPECT_NE(rej.detail.find("empty netlist"), std::string::npos);
  EXPECT_EQ(sched.submit(spec("R1 in\n.op\n"), sink, &rej), 0u);
  EXPECT_EQ(rej.reason, RejectReason::SpecInvalid);
  EXPECT_NE(rej.detail.find("malformed"), std::string::npos);
}

TEST(SchedulerRejection, SpecInvalidForPreflightCaps) {
  engine::Scheduler::Options o;
  o.workers = 1;
  o.preflight.maxDevices = 1;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<OrderSink>();
  engine::Rejection rej;
  EXPECT_EQ(sched.submit(spec(kOpNetlist), sink, &rej), 0u);
  EXPECT_EQ(rej.reason, RejectReason::SpecInvalid);
  EXPECT_NE(rej.detail.find("too many devices"), std::string::npos);
  const auto st = sched.stats();
  EXPECT_EQ(st.rejectedInvalid, 1u);
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.admitted, 0u);
}

TEST(SchedulerRejection, QueueFullAndShuttingDown) {
  engine::Scheduler::Options o;
  o.workers = 1;
  o.queueDepth = 2;
  o.highWater = 2;  // disable shedding below the full-queue check
  engine::Scheduler sched(o);
  auto sink = std::make_shared<OrderSink>();
  const JobId a = blockWorker(sched, sink);
  ASSERT_NE(sched.submit(spec(kOpNetlist), sink), 0u);
  engine::Rejection rej;
  EXPECT_EQ(sched.submit(spec(kOpNetlist), sink, &rej), 0u);
  EXPECT_EQ(rej.reason, RejectReason::QueueFull);
  EXPECT_EQ(sched.stats().rejectedFull, 1u);
  sched.cancel(a);
  sched.shutdown();
  EXPECT_EQ(sched.submit(spec(kOpNetlist), sink, &rej), 0u);
  EXPECT_EQ(rej.reason, RejectReason::ShuttingDown);
}

TEST(SchedulerRejection, BatchShedAboveHighWater) {
  engine::Scheduler::Options o;
  o.workers = 1;
  o.queueDepth = 8;
  o.highWater = 2;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<OrderSink>();
  const JobId blocker = blockWorker(sched, sink);  // occupancy 1
  // Below high water a batch job is admitted like anyone else.
  const JobId b1 = sched.submit(spec(kOpNetlist, Priority::Batch), sink);
  ASSERT_NE(b1, 0u);  // occupancy 2
  engine::Rejection rej;
  EXPECT_EQ(sched.submit(spec(kOpNetlist, Priority::Batch), sink, &rej), 0u);
  EXPECT_EQ(rej.reason, RejectReason::Shed);
  EXPECT_NE(rej.detail.find("high-water"), std::string::npos);
  // Interactive classes are NOT shed at the same occupancy.
  const JobId n1 = sched.submit(spec(kOpNetlist, Priority::Normal), sink);
  EXPECT_NE(n1, 0u);
  const JobId h1 = sched.submit(spec(kOpNetlist, Priority::High), sink);
  EXPECT_NE(h1, 0u);

  auto st = sched.stats();
  EXPECT_TRUE(st.degraded);
  EXPECT_EQ(st.shed, 1u);
  EXPECT_GE(st.maxQueueAgeSeconds, 0.0);

  sched.cancel(blocker);
  sched.drain();
  // Pressure gone: not degraded, batch admitted again.
  st = sched.stats();
  EXPECT_FALSE(st.degraded);
  EXPECT_EQ(st.queued, 0u);
  EXPECT_EQ(st.running, 0u);
  const JobId b2 = sched.submit(spec(kOpNetlist, Priority::Batch), sink);
  ASSERT_NE(b2, 0u);
  EXPECT_EQ(sched.wait(b2).exitCode, 0);
}

// -------------------------------------------------- priority dispatch order

TEST(SchedulerPriority, HighPopsBeforeNormalBeforeBatch) {
  engine::Scheduler::Options o;
  o.workers = 1;
  o.queueDepth = 16;
  o.highWater = 16;  // shedding off: this test is about pop order
  engine::Scheduler sched(o);
  auto sink = std::make_shared<OrderSink>();
  const JobId blocker = blockWorker(sched, sink);
  const JobId b = sched.submit(spec(kOpNetlist, Priority::Batch), sink);
  const JobId n = sched.submit(spec(kOpNetlist, Priority::Normal), sink);
  const JobId h = sched.submit(spec(kOpNetlist, Priority::High), sink);
  ASSERT_NE(b, 0u);
  ASSERT_NE(n, 0u);
  ASSERT_NE(h, 0u);
  sched.cancel(blocker);
  sched.drain();
  const auto order = sink->startOrder();
  // blocker first (it was running), then strictly by class despite the
  // submission order being batch, normal, high.
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], blocker);
  EXPECT_EQ(order[1], h);
  EXPECT_EQ(order[2], n);
  EXPECT_EQ(order[3], b);
}

TEST(SchedulerPriority, AgingTraceIsDeterministic) {
  engine::Scheduler::Options o;
  o.workers = 1;
  o.queueDepth = 16;
  o.highWater = 16;
  o.agingThreshold = 2;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<OrderSink>();
  const JobId blocker = blockWorker(sched, sink);
  std::vector<JobId> high;
  for (int i = 0; i < 5; ++i) {
    high.push_back(sched.submit(spec(kOpNetlist, Priority::High), sink));
    ASSERT_NE(high.back(), 0u);
  }
  const JobId batch = sched.submit(spec(kOpNetlist, Priority::Batch), sink);
  ASSERT_NE(batch, 0u);
  sched.cancel(blocker);
  sched.drain();
  // Pure pop counting, threshold 2: the batch job is passed over twice
  // (H1, H2), then promoted ahead of the remaining high jobs. Exactly:
  // H1 H2 B H3 H4 H5 — same trace every run.
  const std::vector<JobId> expected = {blocker, high[0], high[1], batch,
                                       high[2],  high[3], high[4]};
  EXPECT_EQ(sink->startOrder(), expected);
  EXPECT_EQ(sched.stats().promoted, 1u);
}

TEST(SchedulerPriority, BatchNeverStarvesUnderHighStream) {
  engine::Scheduler::Options o;
  o.workers = 1;
  o.queueDepth = 32;
  o.highWater = 32;
  o.agingThreshold = 3;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<OrderSink>();
  const JobId blocker = blockWorker(sched, sink);
  const JobId batch = sched.submit(spec(kOpNetlist, Priority::Batch), sink);
  ASSERT_NE(batch, 0u);
  std::vector<JobId> high;
  for (int i = 0; i < 12; ++i) {
    high.push_back(sched.submit(spec(kOpNetlist, Priority::High), sink));
    ASSERT_NE(high.back(), 0u);
  }
  sched.cancel(blocker);
  sched.drain();
  const auto order = sink->startOrder();
  ASSERT_EQ(order.size(), 14u);
  // Starvation-freedom: the batch job ran after at most agingThreshold
  // high-priority pops, not at the tail of the stream.
  std::size_t batchPos = 0;
  for (std::size_t i = 0; i < order.size(); ++i)
    if (order[i] == batch) batchPos = i;
  EXPECT_LE(batchPos, 1u + o.agingThreshold);
  EXPECT_GE(sched.stats().promoted, 1u);
}

TEST(SchedulerPriority, OutputBytesIdenticalAcrossClasses) {
  engine::Scheduler::Options o;
  o.workers = 1;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<OrderSink>();
  const JobId h = sched.submit(spec(kRcNetlist, Priority::High), sink);
  const JobId n = sched.submit(spec(kRcNetlist, Priority::Normal), sink);
  const JobId b = sched.submit(spec(kRcNetlist, Priority::Batch), sink);
  ASSERT_NE(h, 0u);
  ASSERT_NE(n, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(sched.wait(h).exitCode, 0);
  EXPECT_EQ(sched.wait(n).exitCode, 0);
  EXPECT_EQ(sched.wait(b).exitCode, 0);
  // Priority buys placement in the queue, never different numerics.
  EXPECT_EQ(sink->out(h), sink->out(n));
  EXPECT_EQ(sink->out(h), sink->out(b));
}

// ----------------------------------------------------------- memory budget

TEST(MemAccount, ChargePeakAndLimit) {
  diag::MemAccount acct;
  EXPECT_EQ(acct.currentBytes(), 0u);
  EXPECT_FALSE(acct.overLimit());  // no limit armed
  acct.charge(100);
  acct.charge(28);
  EXPECT_EQ(acct.currentBytes(), 128u);
  EXPECT_EQ(acct.peakBytes(), 128u);
  acct.setLimit(64);
  EXPECT_TRUE(acct.overLimit());
}

TEST(MemAccount, ScopeRoutesChargesAndBudgetTrips) {
  diag::RunBudget b;
  b.setMemoryLimit(256);
  {
    diag::MemScope scope(b.memAccount());
    diag::memCharge(300);
  }
  EXPECT_TRUE(diag::budgetExceeded(&b));
  EXPECT_TRUE(b.memoryExceeded());
  EXPECT_STREQ(b.reason(), "memory-bytes");
  EXPECT_FALSE(b.cancelled());
  // Charges outside any scope are dropped, not crashed on.
  diag::memCharge(1 << 20);
}

TEST(MemoryBudget, TinyBudgetUnwindsWithExit6) {
  engine::Scheduler::Options o;
  o.workers = 1;
  engine::Scheduler sched(o);  // fresh engine: the cold parse charge lands
  auto sink = std::make_shared<OrderSink>();
  engine::JobSpec s = spec(kRcNetlist);
  s.maxBytes = 64;  // under even the netlist's own parse footprint
  const JobId id = sched.submit(std::move(s), sink);
  ASSERT_NE(id, 0u);
  const auto res = sched.wait(id);
  EXPECT_EQ(res.exitCode, 6);
  EXPECT_FALSE(res.cancelled);
  EXPECT_GT(res.peakBytes, 64u);
  EXPECT_NE(sink->err(id).find("memory-bytes"), std::string::npos);
}

TEST(MemoryBudget, GenerousBudgetRunsToCompletion) {
  engine::Scheduler::Options o;
  o.workers = 1;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<OrderSink>();
  engine::JobSpec s = spec(kRcNetlist);
  s.maxBytes = 256ull << 20;
  const JobId id = sched.submit(std::move(s), sink);
  ASSERT_NE(id, 0u);
  const auto res = sched.wait(id);
  EXPECT_EQ(res.exitCode, 0);
  EXPECT_GT(res.peakBytes, 0u);
  EXPECT_LE(res.peakBytes, 256ull << 20);
  EXPECT_EQ(res.perf.memPeakBytes, res.peakBytes);
}

TEST(MemoryBudget, MemSpikeInjectionTripsRunningJob) {
  diag::FaultInjector::global().arm(diag::FaultPoint::MemSpike, 1);
  engine::Engine eng;
  OrderSink sink;
  const auto res = eng.run(spec(kOpNetlist), sink);
  EXPECT_EQ(res.exitCode, 6);
  // One-shot: the next run is untouched.
  OrderSink sink2;
  EXPECT_EQ(eng.run(spec(kOpNetlist), sink2).exitCode, 0);
  diag::FaultInjector::global().arm(diag::FaultPoint::MemSpike, 0);
}

// ------------------------------------------------------------------ stats

TEST(SchedulerStats, CountersAddUp) {
  engine::Scheduler::Options o;
  o.workers = 2;
  o.queueDepth = 8;
  o.highWater = 8;
  engine::Scheduler sched(o);
  auto sink = std::make_shared<OrderSink>();
  std::vector<JobId> ids;
  for (int i = 0; i < 4; ++i) {
    const JobId id = sched.submit(spec(kOpNetlist), sink);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  engine::Rejection rej;
  EXPECT_EQ(sched.submit(spec(""), sink, &rej), 0u);  // rejectedInvalid
  sched.drain();
  const auto st = sched.stats();
  EXPECT_EQ(st.submitted, 5u);
  EXPECT_EQ(st.admitted, 4u);
  EXPECT_EQ(st.finished, 4u);
  EXPECT_EQ(st.rejectedInvalid, 1u);
  EXPECT_EQ(st.rejectedFull, 0u);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.queued, 0u);
  EXPECT_EQ(st.running, 0u);
  EXPECT_EQ(st.queueDepth, 8u);
  EXPECT_EQ(st.highWater, 8u);
  EXPECT_FALSE(st.degraded);
  for (const JobId id : ids) EXPECT_EQ(sched.wait(id).exitCode, 0);
}

}  // namespace
