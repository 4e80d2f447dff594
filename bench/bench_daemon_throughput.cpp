// Daemon throughput bench — the engine/Scheduler layer under a mixed
// many-job workload, the load profile rficd serves (DESIGN.md §10).
//
// A fixed job list (~102 full mode, ~24 quick) mixing cheap .op sweeps,
// .tran runs on repeated and distinct topologies, and harmonic-balance
// jobs is pushed through one Scheduler twice: workers=1 (serial floor)
// and workers=hardware. Reported: jobs/sec for both, the speedup, the
// cross-job context-cache and FFT plan-cache hit counts that repeat
// topologies must produce (a serial run may miss each distinct topology
// at most once), and a zero-failures flag. A cancellation slice
// (every 17th job is cancelled right after submit) checks that
// cancellation under load neither fails jobs nor wedges the queue.
//
// Jobs are spread across the three priority classes cyclically (the
// mixed-priority load rficd serves); the scheduler runs with shedding
// disabled (highWater = queueDepth) and the bench gates on zero shed
// below the high-water mark, plus reports the aging-promotion count and
// the peak per-job workspace bytes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/scheduler.hpp"
#include "perf/thread_pool.hpp"

using namespace rfic;
using namespace rfic::bench;

namespace {

std::string rcJob(int rOhms) {
  return "V1 in 0 SIN(0 1 1k)\nR1 in out " + std::to_string(rOhms) +
         "\nC1 out 0 1u\n.print out\n.op\n.tran 10u 1m\n";
}

const char* kDividerOp =
    "V1 vdd 0 DC 5\nR1 vdd mid 2k\nR2 mid 0 3k\nD1 mid 0 DM\n"
    ".model DM D (IS=1e-14 N=1.6)\n.print mid\n.op\n";

const char* kDiodeHb =
    "V1 in 0 SIN(0 0.8 1meg)\nR1 in a 50\nD1 a out DM\nR2 out 0 1k\n"
    "C1 out 0 10n\n.model DM D (IS=1e-14 N=1.2)\n.print out\n.op\n"
    ".hb 1meg 7\n";

std::vector<engine::JobSpec> makeWorkload(std::size_t jobs) {
  std::vector<engine::JobSpec> specs;
  specs.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    engine::JobSpec s;
    switch (i % 6) {
      case 0:  // repeated topology: must hit the context cache
      case 3:
        s.netlist = kDividerOp;
        s.label = "divider";
        break;
      case 1:  // distinct RC topologies: always a cache miss
        s.netlist = rcJob(1000 + static_cast<int>(i) * 10);
        s.label = "rc-sweep";
        break;
      case 2:  // repeated HB topology: context + FFT plan cache reuse
        s.netlist = kDiodeHb;
        s.label = "hb";
        break;
      case 4:
        s.netlist = rcJob(4700);  // repeated transient topology
        s.label = "rc-repeat";
        break;
      default:
        s.netlist = kDividerOp;
        s.label = "divider";
        break;
    }
    s.threadShare = 1;  // scheduler-level parallelism only: jobs are small
    // Mixed-priority load: every class exercised; output must not depend
    // on class, so done/failed gates are unchanged by this assignment.
    s.priority = static_cast<engine::Priority>(i % 3);
    specs.push_back(std::move(s));
  }
  return specs;
}

struct RunStats {
  Real seconds = 0;
  std::size_t done = 0, cancelled = 0, failed = 0;
  std::size_t ctxHits = 0, ctxMisses = 0, planCacheHits = 0;
  std::uint64_t shed = 0, promoted = 0, memPeakBytes = 0;
};

RunStats runWorkload(std::size_t workers,
                     const std::vector<engine::JobSpec>& specs) {
  engine::Scheduler::Options o;
  o.workers = workers;
  o.queueDepth = specs.size() + 8;  // admission never the bottleneck here
  o.highWater = o.queueDepth;       // shedding off: every job must run
  engine::Scheduler sched(o);
  auto sink = std::make_shared<engine::NullSink>();

  Stopwatch sw;
  std::vector<engine::JobId> ids;
  std::vector<bool> wantCancel;
  ids.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const engine::JobId id = sched.submit(specs[i], sink);
    if (id == 0) continue;  // counted below as failed (should not happen)
    ids.push_back(id);
    // Cancellation slice: cancel every 17th job immediately. It either
    // finalizes as cancelled or — if a worker already finished it — Done;
    // both are healthy outcomes, anything else is a failure.
    const bool cancelled = (i % 17) == 16 && sched.cancel(id);
    wantCancel.push_back(cancelled);
  }

  RunStats st;
  st.failed += specs.size() - ids.size();
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const engine::JobResult r = sched.wait(ids[k]);
    st.ctxHits += r.perf.ctxHits;
    st.ctxMisses += r.perf.ctxMisses;
    st.planCacheHits += r.perf.planCacheHits;
    if (r.peakBytes > st.memPeakBytes) st.memPeakBytes = r.peakBytes;
    if (r.cancelled && wantCancel[k])
      ++st.cancelled;
    else if (r.exitCode == 0)
      ++st.done;
    else
      ++st.failed;
  }
  st.seconds = sw.seconds();
  const engine::SchedulerStats ss = sched.stats();
  st.shed = ss.shed;
  st.promoted = ss.promoted;
  return st;
}

}  // namespace

int main() {
  header("Daemon throughput — mixed jobs through the engine Scheduler");
  JsonReporter rep("daemon_throughput");
  perf::global().reset();

  const std::size_t jobs = quickMode() ? 24 : 102;
  // At least 2 workers even on one core: the point of the wide run is the
  // concurrent scheduling path (shared engine, contended context pool).
  const std::size_t wide =
      std::max<std::size_t>(2, perf::ThreadPool::global().concurrency());
  const auto specs = makeWorkload(jobs);

  std::printf("%-9s %-7s %-9s %-10s %-7s %-9s %-9s %-9s\n", "workers",
              "jobs", "done", "cancelled", "failed", "ctx hits", "plan hits",
              "jobs/s");
  rule();

  const RunStats serial = runWorkload(1, specs);
  const Real serialRate = serial.done / serial.seconds;
  std::printf("%-9zu %-7zu %-9zu %-10zu %-7zu %-9zu %-9zu %-9.1f\n",
              std::size_t{1}, jobs, serial.done, serial.cancelled,
              serial.failed, serial.ctxHits, serial.planCacheHits,
              serialRate);

  const RunStats par = runWorkload(wide, specs);
  const Real parRate = par.done / par.seconds;
  std::printf("%-9zu %-7zu %-9zu %-10zu %-7zu %-9zu %-9zu %-9.1f\n", wide,
              jobs, par.done, par.cancelled, par.failed, par.ctxHits,
              par.planCacheHits, parRate);
  rule();
  std::printf("scheduler speedup: %.2fx with %zu workers\n",
              parRate / serialRate, wide);

  const bool zeroFailures = serial.failed == 0 && par.failed == 0;
  // A serial run misses each distinct topology at most once: the pool
  // must keep the repeat topologies parked however many one-offs pass.
  std::set<std::string> topologies;
  for (const auto& s : specs) topologies.insert(engine::topologyKey(s.netlist));
  const bool cacheReuse = serial.ctxHits >= 1 && par.ctxHits >= 1 &&
                          serial.planCacheHits >= 1 &&
                          serial.ctxMisses <= topologies.size();
  // With highWater == queueDepth nothing may ever be shed: a nonzero
  // count means the load shedder fired below its high-water mark.
  const bool zeroShed = serial.shed == 0 && par.shed == 0;
  if (!zeroFailures)
    std::printf("FAILURE: %zu serial / %zu parallel jobs failed\n",
                serial.failed, par.failed);
  if (!cacheReuse)
    std::printf("FAILURE: expected cross-job cache hits and at most %zu "
                "serial misses (got %zu)\n",
                topologies.size(), serial.ctxMisses);
  if (!zeroShed)
    std::printf("FAILURE: %llu serial / %llu parallel jobs shed below "
                "high water\n",
                static_cast<unsigned long long>(serial.shed),
                static_cast<unsigned long long>(par.shed));
  std::printf("aging promotions: %llu serial, %llu parallel; "
              "mem peak %llu bytes\n",
              static_cast<unsigned long long>(serial.promoted),
              static_cast<unsigned long long>(par.promoted),
              static_cast<unsigned long long>(
                  std::max(serial.memPeakBytes, par.memPeakBytes)));

  rep.count("jobs", jobs);
  rep.count("workers_wide", wide);
  rep.metric("serial_s", serial.seconds);
  rep.metric("parallel_s", par.seconds);
  rep.metric("serial_jobs_per_s", serialRate);
  rep.metric("parallel_jobs_per_s", parRate);
  rep.metric("speedup", parRate / serialRate);
  rep.count("serial_done", serial.done);
  rep.count("parallel_done", par.done);
  rep.count("serial_cancelled", serial.cancelled);
  rep.count("parallel_cancelled", par.cancelled);
  rep.count("serial_failed", serial.failed);
  rep.count("parallel_failed", par.failed);
  rep.count("ctx_hits_serial", serial.ctxHits);
  rep.count("ctx_hits_parallel", par.ctxHits);
  rep.count("ctx_misses_serial", serial.ctxMisses);
  rep.count("plan_cache_hits_serial", serial.planCacheHits);
  rep.count("shed_serial", static_cast<std::size_t>(serial.shed));
  rep.count("shed_parallel", static_cast<std::size_t>(par.shed));
  rep.count("promoted_serial", static_cast<std::size_t>(serial.promoted));
  rep.count("promoted_parallel", static_cast<std::size_t>(par.promoted));
  rep.count("job_mem_peak_bytes",
            static_cast<std::size_t>(
                std::max(serial.memPeakBytes, par.memPeakBytes)));
  rep.flag("zero_failures", zeroFailures);
  rep.flag("cache_reuse", cacheReuse);
  rep.flag("zero_shed", zeroShed);
  rep.count("threads", perf::ThreadPool::global().concurrency());
  rep.counters("perf", perf::global().snapshot());

  return zeroFailures && cacheReuse && zeroShed ? 0 : 1;
}
