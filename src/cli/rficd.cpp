// rficd — simulation-as-a-service daemon.
//
// Serves the engine::Scheduler over a unix-domain socket speaking
// newline-delimited JSON (one flat object per line, both directions; see
// engine/json.hpp and DESIGN.md §10). Requests:
//
//   {"cmd":"submit","netlist":"...","label":"lna","timeout":5,
//    "newton":0,"krylov":0,"threads":1,"priority":"high|normal|batch",
//    "maxbytes":0,"ordering":"natural|amd"}
//       → {"event":"accepted","job":7}
//         (or {"event":"rejected","reason":"queue-full|shutting-down|
//          spec-invalid|shed","detail":"...","degraded":false})
//       then the job's streamed events on this connection:
//       {"event":"started","job":7}
//       {"event":"stdout","job":7,"text":"* .op (newton, 5 iterations)\n..."}
//       {"event":"analysis","job":7,"card":".op","ok":true,...}
//       {"event":"finished","job":7,"exit":0,"cancelled":false,
//        "peakBytes":18432,"evals":12,...,"ctxHits":1,"ctxMisses":0,...}
//         (every perf counter of the job, under its perf::Snapshot name)
//   {"cmd":"status"}            → one {"event":"job",...} line per job,
//                                 then {"event":"status-end","jobs":N}
//   {"cmd":"cancel","job":7}    → {"event":"cancel","job":7,"ok":true}
//   {"cmd":"result","job":7}    → blocks, then {"event":"result","job":7,...}
//   {"cmd":"stats"}             → {"event":"stats","queued":0,"running":1,
//                                  "queueDepth":64,"highWater":48,
//                                  "degraded":false,"shed":0,...,
//                                  "pooled":5,"probation":4,
//                                  "poolEvictions":12,"poolBytes":...,
//                                  "evals":...,"memPeakBytes":...,
//                                  "text":"..."}  (process perf totals)
//   {"cmd":"shutdown"}          → {"event":"bye"}, daemon drains and exits
//
// Overload behavior (DESIGN.md §11): submissions carry a priority class;
// the scheduler dispatches high > normal > batch with deterministic aging
// so no class starves. Above the high-water mark batch submissions are
// shed with a structured rejection and stats reports degraded=true —
// clients are expected to retry with backoff (tools/rficd_client.py does).
// A request line longer than 1 MiB is a protocol violation: the daemon
// replies with a structured error and drops the connection rather than
// buffering without bound.
//
// Closing a connection cancels the jobs it submitted (their events have
// nowhere to go); the daemon itself keeps running. Jobs from different
// connections share one Scheduler, hence one Engine context pool, one
// perf::ThreadPool, and one fft::PlanCache — repeat-topology submissions
// hit the warm caches whichever client sends them.
//
// Usage: rficd --socket <path> [--workers <n>] [--queue-depth <n>]
//              [--threads <n>] [--high-water <n>] [--aging <n>]
//              [--max-devices <n>] [--max-nodes <n>]
//              [--no-batch-eval] [--ordering <natural|amd>]
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "circuit/mna_workspace.hpp"
#include "diag/thread_annotations.hpp"
#include "engine/json.hpp"
#include "engine/scheduler.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"
#include "sparse/ordering.hpp"

namespace {

using namespace rfic;

// Shut down by the signal handler (shutdown()/close() are async-signal-safe
// per POSIX.1-2008) to break the accept loop on SIGINT/SIGTERM; also closed
// by the shutdown command. Note close() alone does NOT wake a thread
// blocked in accept() on Linux — shutdown() does.
std::atomic<int> gListenFd{-1};
std::atomic<bool> gStop{false};

extern "C" void onSignal(int) {
  gStop.store(true);
  const int fd = gListenFd.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

/// Append `,"<counter>":<value>` for every perf table row (the per-job
/// counters of a finished event, the process totals of a stats event).
void appendCounters(std::string& s, const perf::Snapshot& snap) {
  for (const perf::Row& row : perf::kRows)
    s += std::string(",\"") + row.name +
         "\":" + std::to_string(snap.*row.field);
}

/// Per-connection sink: serializes events (from any scheduler worker) and
/// command replies (from the connection thread) onto one socket, one JSON
/// line per write. Owns the fd; it closes only when the last reference —
/// scheduler workers still delivering Finished events included — drops.
class ConnectionSink : public engine::EventSink {
 public:
  explicit ConnectionSink(int fd) : fd_(fd) {
    // Slow-reader protection: a peer that stops draining its socket must
    // not wedge a scheduler worker inside send(). After the timeout the
    // send fails, the sink marks itself closed, and the job's remaining
    // events are dropped — the job itself runs to completion.
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  ~ConnectionSink() override { ::close(fd_); }

  void onEvent(const engine::Event& e) override {
    writeLine(render(e), true);
  }

  /// While held, scheduler events queue up instead of hitting the socket,
  /// so a command reply (e.g. "accepted") always precedes the job's event
  /// stream even though the worker may start the job immediately.
  void holdEvents() {
    diag::LockGuard lock(mu_);
    holding_ = true;
  }
  void releaseEvents() {
    std::vector<std::string> pending;
    {
      diag::LockGuard lock(mu_);
      holding_ = false;
      pending.swap(held_);
    }
    for (const auto& line : pending) writeLine(line);
  }

  void writeLine(const std::string& line) { writeLine(line, false); }

 private:
  void writeLine(const std::string& line, bool isEvent) {
    diag::LockGuard lock(mu_);
    if (closed_) return;
    if (isEvent && holding_) {
      held_.push_back(line);
      return;
    }
    std::string buf = line;
    buf += '\n';
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::send(fd_, buf.data() + off, buf.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        closed_ = true;  // peer went away; drop the rest silently
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

 public:
  /// Stop writing and unblock any reader; the fd itself stays allocated
  /// until the destructor so in-flight writers never race a reused fd.
  void markClosed() {
    diag::LockGuard lock(mu_);
    closed_ = true;
    ::shutdown(fd_, SHUT_RDWR);
  }

  int fd() const { return fd_; }

 private:
  static std::string render(const engine::Event& e) {
    using engine::jsonString;
    char head[96];
    std::string s;
    switch (e.kind) {
      case engine::Event::Kind::Started:
        std::snprintf(head, sizeof head,
                      "{\"event\":\"started\",\"job\":%llu}",
                      static_cast<unsigned long long>(e.job));
        return head;
      case engine::Event::Kind::Stdout:
      case engine::Event::Kind::Stderr:
        std::snprintf(head, sizeof head, "{\"event\":\"%s\",\"job\":%llu,",
                      e.kind == engine::Event::Kind::Stdout ? "stdout"
                                                            : "stderr",
                      static_cast<unsigned long long>(e.job));
        s = head;
        s += "\"text\":" + jsonString(e.text) + "}";
        return s;
      case engine::Event::Kind::AnalysisDone:
        std::snprintf(head, sizeof head,
                      "{\"event\":\"analysis\",\"job\":%llu,",
                      static_cast<unsigned long long>(e.job));
        s = head;
        s += "\"card\":" + jsonString(e.analysis.card);
        s += ",\"ok\":";
        s += e.analysis.ok ? "true" : "false";
        s += ",\"status\":" + jsonString(diag::toString(e.analysis.status));
        s += ",\"summary\":" + jsonString(e.analysis.summary) + "}";
        return s;
      case engine::Event::Kind::Finished: {
        const auto& r = e.result;
        std::snprintf(head, sizeof head,
                      "{\"event\":\"finished\",\"job\":%llu,\"exit\":%d,",
                      static_cast<unsigned long long>(e.job), r.exitCode);
        s = head;
        s += "\"cancelled\":";
        s += r.cancelled ? "true" : "false";
        if (!r.error.empty()) s += ",\"error\":" + jsonString(r.error);
        s += ",\"peakBytes\":" + std::to_string(r.peakBytes);
        appendCounters(s, r.perf);
        s += "}";
        return s;
      }
    }
    return "{\"event\":\"?\"}";
  }

  diag::Mutex mu_;
  const int fd_;
  bool closed_ RFIC_GUARDED_BY(mu_) = false;
  bool holding_ RFIC_GUARDED_BY(mu_) = false;
  std::vector<std::string> held_ RFIC_GUARDED_BY(mu_);
};

std::uint64_t toU64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

/// NDJSON line cap: a request line that exceeds this without a newline is
/// a protocol violation (or an attack) — the daemon refuses to buffer it
/// and drops the connection after a structured error.
constexpr std::size_t kMaxRequestLine = 1u << 20;  // 1 MiB

void handleConnection(engine::Scheduler& sched,
                      std::shared_ptr<ConnectionSink> sink) {
  std::vector<engine::JobId> myJobs;
  // Bytes received and not yet consumed: the start of one partial request
  // line. Only the bytes after `scanned` can hold a newline.
  std::string buf;
  std::size_t scanned = 0;
  char tmp[4096];
  bool bye = false;
  while (!bye) {
    const ssize_t n = ::recv(sink->fd(), tmp, sizeof tmp, 0);
    if (n <= 0) break;
    buf.append(tmp, static_cast<std::size_t>(n));
    std::size_t pos = buf.find('\n', scanned);
    if (pos == std::string::npos && buf.size() > kMaxRequestLine) {
      char out[128];
      std::snprintf(out, sizeof out,
                    "{\"event\":\"error\",\"error\":\"request line exceeds "
                    "%zu bytes; closing connection\"}",
                    kMaxRequestLine);
      sink->writeLine(out);
      break;
    }
    // Serve every complete line in place, then drop them in one erase.
    std::size_t start = 0;
    for (; !bye && pos != std::string::npos;
         pos = buf.find('\n', start)) {
      const std::string_view line(buf.data() + start, pos - start);
      start = pos + 1;
      if (line.empty()) continue;
      std::map<std::string, std::string> req;
      std::string err;
      if (!engine::parseFlatJson(line, req, &err)) {
        sink->writeLine("{\"event\":\"error\",\"error\":" +
                        engine::jsonString("bad request: " + err) + "}");
        continue;
      }
      const std::string cmd = req.count("cmd") ? req["cmd"] : "";
      if (cmd == "submit") {
        engine::JobSpec spec;
        spec.netlist = std::move(req["netlist"]);
        spec.label = req.count("label") ? req["label"] : "";
        if (req.count("timeout"))
          spec.timeoutSeconds = std::atof(req["timeout"].c_str());
        if (req.count("newton")) spec.newtonLimit = toU64(req["newton"]);
        if (req.count("krylov")) spec.krylovLimit = toU64(req["krylov"]);
        if (req.count("threads"))
          spec.threadShare = static_cast<std::size_t>(toU64(req["threads"]));
        if (req.count("maxbytes")) spec.maxBytes = toU64(req["maxbytes"]);
        if (req.count("priority") &&
            !engine::parsePriority(req["priority"], spec.priority)) {
          sink->writeLine(
              "{\"event\":\"rejected\",\"reason\":\"spec-invalid\","
              "\"detail\":" +
              engine::jsonString("unknown priority: " + req["priority"]) +
              ",\"degraded\":false}");
          continue;
        }
        if (req.count("ordering")) {
          sparse::Ordering ord;
          if (!sparse::parseOrdering(req["ordering"], ord)) {
            sink->writeLine(
                "{\"event\":\"rejected\",\"reason\":\"spec-invalid\","
                "\"detail\":" +
                engine::jsonString("unknown ordering: " + req["ordering"]) +
                ",\"degraded\":false}");
            continue;
          }
          spec.ordering = req["ordering"];
        }
        // Empty/malformed netlists are refused by the scheduler's
        // pre-flight check and arrive below as a SpecInvalid rejection.
        // Hold job events until the accepted line is on the wire: a worker
        // may pick the job up (and emit Started) before submit() returns.
        sink->holdEvents();
        engine::Rejection rej;
        const engine::JobId id = sched.submit(std::move(spec), sink, &rej);
        if (id == 0) {
          const bool degraded = sched.stats().degraded;
          sink->writeLine(
              std::string("{\"event\":\"rejected\",\"reason\":\"") +
              engine::toString(rej.reason) +
              "\",\"detail\":" + engine::jsonString(rej.detail) +
              ",\"degraded\":" + (degraded ? "true" : "false") + "}");
          sink->releaseEvents();
          continue;
        }
        myJobs.push_back(id);
        char out[64];
        std::snprintf(out, sizeof out, "{\"event\":\"accepted\",\"job\":%llu}",
                      static_cast<unsigned long long>(id));
        sink->writeLine(out);
        sink->releaseEvents();
      } else if (cmd == "status") {
        const auto jobs = sched.list();
        for (const auto& j : jobs) {
          char out[128];
          std::snprintf(out, sizeof out,
                        "{\"event\":\"job\",\"job\":%llu,\"state\":\"%s\","
                        "\"exit\":%d,",
                        static_cast<unsigned long long>(j.id),
                        engine::toString(j.state), j.exitCode);
          sink->writeLine(std::string(out) +
                          "\"label\":" + engine::jsonString(j.label) + "}");
        }
        char out[64];
        std::snprintf(out, sizeof out,
                      "{\"event\":\"status-end\",\"jobs\":%zu}", jobs.size());
        sink->writeLine(out);
      } else if (cmd == "cancel") {
        const engine::JobId id = toU64(req["job"]);
        const bool ok = sched.cancel(id);
        char out[80];
        std::snprintf(out, sizeof out,
                      "{\"event\":\"cancel\",\"job\":%llu,\"ok\":%s}",
                      static_cast<unsigned long long>(id),
                      ok ? "true" : "false");
        sink->writeLine(out);
      } else if (cmd == "result") {
        const engine::JobId id = toU64(req["job"]);
        try {
          const engine::JobResult r = sched.wait(id);
          char out[160];
          std::snprintf(out, sizeof out,
                        "{\"event\":\"result\",\"job\":%llu,\"exit\":%d,"
                        "\"cancelled\":%s,\"analyses\":%zu}",
                        static_cast<unsigned long long>(id), r.exitCode,
                        r.cancelled ? "true" : "false", r.analyses.size());
          sink->writeLine(out);
        } catch (const std::exception& ex) {
          sink->writeLine("{\"event\":\"error\",\"error\":" +
                          engine::jsonString(ex.what()) + "}");
        }
      } else if (cmd == "stats") {
        const engine::SchedulerStats st = sched.stats();
        const perf::Snapshot snap = perf::process().snapshot();
        char head[512];
        std::snprintf(
            head, sizeof head,
            "{\"event\":\"stats\",\"queued\":%zu,\"running\":%zu,"
            "\"queueDepth\":%zu,\"highWater\":%zu,\"degraded\":%s,"
            "\"maxQueueAge\":%.3f,\"submitted\":%llu,\"admitted\":%llu,"
            "\"finished\":%llu,\"shed\":%llu,\"rejectedFull\":%llu,"
            "\"rejectedInvalid\":%llu,\"promoted\":%llu",
            st.queued, st.running, st.queueDepth, st.highWater,
            st.degraded ? "true" : "false",
            static_cast<double>(st.maxQueueAgeSeconds),
            static_cast<unsigned long long>(st.submitted),
            static_cast<unsigned long long>(st.admitted),
            static_cast<unsigned long long>(st.finished),
            static_cast<unsigned long long>(st.shed),
            static_cast<unsigned long long>(st.rejectedFull),
            static_cast<unsigned long long>(st.rejectedInvalid),
            static_cast<unsigned long long>(st.promoted));
        std::string line = head;
        const engine::Engine::PoolStats pool = sched.engine().poolStats();
        std::snprintf(head, sizeof head,
                      ",\"pooled\":%zu,\"probation\":%zu,"
                      "\"poolEvictions\":%llu,\"poolBytes\":%llu",
                      pool.pooled, pool.probation,
                      static_cast<unsigned long long>(pool.poolEvictions),
                      static_cast<unsigned long long>(pool.poolBytes));
        line += head;
        appendCounters(line, snap);
        sink->writeLine(line + ",\"text\":" +
                        engine::jsonString(perf::format(snap)) + "}");
      } else if (cmd == "shutdown") {
        sink->writeLine("{\"event\":\"bye\"}");
        gStop.store(true);
        const int fd = gListenFd.exchange(-1);
        if (fd >= 0) {
          ::shutdown(fd, SHUT_RDWR);  // wakes the thread blocked in accept
          ::close(fd);
        }
        bye = true;
      } else {
        sink->writeLine("{\"event\":\"error\",\"error\":" +
                        engine::jsonString("unknown cmd: " + cmd) + "}");
      }
    }
    buf.erase(0, start);
    scanned = buf.size();
  }
  // Connection gone: its event stream has no reader, so cancel whatever it
  // submitted that is still queued or running. Finished jobs are untouched.
  for (const engine::JobId id : myJobs) sched.cancel(id);
  sink->markClosed();
}

}  // namespace

int main(int argc, char** argv) {
  std::string socketPath;
  engine::Scheduler::Options sopts;
  sopts.workers = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (flag == "--socket") {
      socketPath = value();
    } else if (flag == "--workers") {
      const long n = std::atol(value().c_str());
      if (n < 1) {
        std::fprintf(stderr, "--workers: positive count required\n");
        return 1;
      }
      sopts.workers = static_cast<std::size_t>(n);
    } else if (flag == "--queue-depth") {
      const long n = std::atol(value().c_str());
      if (n < 1) {
        std::fprintf(stderr, "--queue-depth: positive count required\n");
        return 1;
      }
      sopts.queueDepth = static_cast<std::size_t>(n);
    } else if (flag == "--threads") {
      const long n = std::atol(value().c_str());
      if (n < 1) {
        std::fprintf(stderr, "--threads: positive count required\n");
        return 1;
      }
      perf::ThreadPool::setGlobalThreads(static_cast<std::size_t>(n));
    } else if (flag == "--high-water") {
      const long n = std::atol(value().c_str());
      if (n < 1) {
        std::fprintf(stderr, "--high-water: positive count required\n");
        return 1;
      }
      sopts.highWater = static_cast<std::size_t>(n);
    } else if (flag == "--aging") {
      const long n = std::atol(value().c_str());
      if (n < 1) {
        std::fprintf(stderr, "--aging: positive pop count required\n");
        return 1;
      }
      sopts.agingThreshold = static_cast<std::size_t>(n);
    } else if (flag == "--max-devices") {
      const long n = std::atol(value().c_str());
      if (n < 1) {
        std::fprintf(stderr, "--max-devices: positive count required\n");
        return 1;
      }
      sopts.preflight.maxDevices = static_cast<std::size_t>(n);
    } else if (flag == "--max-nodes") {
      const long n = std::atol(value().c_str());
      if (n < 1) {
        std::fprintf(stderr, "--max-nodes: positive count required\n");
        return 1;
      }
      sopts.preflight.maxNodes = static_cast<std::size_t>(n);
    } else if (flag == "--no-batch-eval") {
      // Pin the scalar reference device walk (bitwise identical; debug aid).
      circuit::MnaWorkspace::setBatchedEvalDefault(false);
    } else if (flag == "--ordering") {
      // Process-default pivot pre-ordering; jobs can override per submit.
      const std::string v = value();
      sparse::Ordering ord;
      if (!sparse::parseOrdering(v, ord)) {
        std::fprintf(stderr, "--ordering: expected natural|amd, got '%s'\n",
                     v.c_str());
        return 1;
      }
      sparse::setOrderingDefault(ord);
    } else {
      std::fprintf(stderr,
                   "usage: rficd --socket <path> [--workers <n>] "
                   "[--queue-depth <n>] [--threads <n>] [--high-water <n>] "
                   "[--aging <n>] [--max-devices <n>] [--max-nodes <n>] "
                   "[--no-batch-eval] [--ordering <natural|amd>]\n");
      return 1;
    }
  }
  if (socketPath.empty()) {
    std::fprintf(stderr, "rficd: --socket <path> is required\n");
    return 1;
  }
  sockaddr_un addr{};
  if (socketPath.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "rficd: socket path too long (%zu bytes, max %zu)\n",
                 socketPath.size(), sizeof addr.sun_path - 1);
    return 1;
  }

  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd < 0) {
    std::perror("rficd: socket");
    return 1;
  }
  ::unlink(socketPath.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  if (::bind(listenFd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    std::perror("rficd: bind");
    return 1;
  }
  if (::listen(listenFd, 16) != 0) {
    std::perror("rficd: listen");
    return 1;
  }
  gListenFd.store(listenFd);
  std::fprintf(stderr, "rficd: listening on %s (%zu workers, queue %zu)\n",
               socketPath.c_str(), sopts.workers, sopts.queueDepth);

  engine::Scheduler sched(sopts);
  std::vector<std::thread> connThreads;  // lint: allow-detached-thread (joined)
  std::vector<std::weak_ptr<ConnectionSink>> conns;
  while (!gStop.load()) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) break;  // listener closed by signal/shutdown, or error
    auto sink = std::make_shared<ConnectionSink>(fd);
    conns.push_back(sink);
    // lint: allow-detached-thread — joined below before exit.
    connThreads.emplace_back(
        [&sched, sink]() mutable { handleConnection(sched, std::move(sink)); });
  }
  // Listener is gone. Unblock every connection still reading, join them,
  // then drain the scheduler (shutdown cancels queued + running jobs).
  for (auto& w : conns)
    if (auto s = w.lock()) s->markClosed();
  for (auto& t : connThreads) t.join();
  sched.shutdown();
  const int fd = gListenFd.exchange(-1);
  if (fd >= 0) ::close(fd);
  ::unlink(socketPath.c_str());
  std::fprintf(stderr, "rficd: shut down cleanly\n");
  return 0;
}
