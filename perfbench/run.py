#!/usr/bin/env python3
"""End-to-end benchmark of rficsim and rficd, with a traced per-layer run.

  python3 perfbench/run.py --workload mesh_cold --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds
rficsim, rficd and the traced runner (perfbench/rfic_trace.cpp) into
.bench_build/. Each run prints its metrics as the last line of stdout:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Workloads (perfbench/README.md has the reasons and the layer table):
  mesh_cold   one `rficsim --threads 2 --ordering amd` process per netlist,
              one at a time: a new 60x60 RC mesh transient each job
  daemon_mix  a real `rficd --workers 2`, three closed-loop connections
              over its unix socket, a mix of warm and cold jobs
  hb_mixer    one `rficsim --threads 1` process per netlist, one at a time:
              the MOSFET switching mixer under two-tone harmonic balance.
              Not listed in BENCHMARK.json: on a shared host its times
              follow the host's load more than the program (README.md)

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run instead. `--record-reference` rewrites
perfbench/reference.json from the current build.
"""

import argparse
import json
import math
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import netlists  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
RFICSIM = os.path.join(BUILD, "repo", "src", "rficsim")
RFICD = os.path.join(BUILD, "repo", "src", "rficd")
TRACE = os.path.join(BUILD, "rfic_trace")
REFERENCE = os.path.join(HERE, "reference.json")

MIN_TRACED_JOBS = 12
HARD_STOP_S = 150       # a run must end within 180 s
# setup_s is the median of this many set-ups before and after the timed
# jobs, so its samples span the run's host conditions.
SETUP_BEFORE, SETUP_AFTER = 3, 2
SPREAD = 1.15           # range of the per-job scales (netlists.py)
RTOL = 1e-5             # output check, relative
HB_RTOL = 1e-4          # ... for harmonic-balance tones
HB_FLOOR = 1e-3         # tones below this share of the largest are skipped

# CLI workloads: flags, netlist maker, and the fewest timed jobs of a run
# (p90 needs >= 10 samples beyond it). hb_mixer runs at one lane so that
# its traced layer times are wall times that add up to the job.
CLI = {
    "hb_mixer": {"args": ["--threads", "1"], "min_jobs": 150,
                 "make": lambda rng: netlists.mixer(
                     netlists.draw_scale(rng, SPREAD),
                     netlists.draw_scale(rng, SPREAD))},
    "mesh_cold": {"args": ["--threads", "2", "--ordering", "amd"],
                  "min_jobs": 100,
                  "make": lambda rng: netlists.mesh(
                      60, "tran", netlists.draw_scale(rng, SPREAD))},
}

# Daemon job kinds, each a netlist maker taking the connection's rng.
MESH24_TRAN = netlists.mesh(24, "tran")
MESH24_AC = netlists.mesh(24, "ac")
DAEMON_KINDS = {
    "lpf": lambda rng: netlists.LPF,
    "diode_hb": lambda rng: netlists.DIODE_HB,
    "rc_ac": lambda rng: netlists.RC_AC,
    "mesh_tran": lambda rng: MESH24_TRAN,
    "mesh_cold": lambda rng: netlists.mesh(
        24, "tran", netlists.draw_scale(rng, SPREAD)),
    "mesh_ac": lambda rng: MESH24_AC,
}
# The set-up pass: one job of every repeat topology.
WARM_KINDS = ["lpf", "diode_hb", "rc_ac", "mesh_tran", "mesh_ac"]
# The job mix of each of the three connections, as jobs of each kind per
# deck of 100. A connection deals its deck in a seeded shuffled order, so
# every run has the same shares. README.md explains them.
DAEMON_DECK = {"lpf": 8, "diode_hb": 7, "rc_ac": 7,
               "mesh_tran": 30, "mesh_cold": 35, "mesh_ac": 13}
DAEMON_CONNECTIONS = 3
DAEMON_WORKERS = 2
DAEMON_WARMUP_JOBS = 300  # untimed traffic before the measured window
DAEMON_MIN_JOBS = 1000  # p99 needs >= 10 samples beyond it
REPLAY_JOBS = 300       # traced daemon jobs replayed through rfic_trace

# Exact work counts that must repeat on every job of a kind.
COUNT_KEYS = ["fftCount", "evals", "factorizations", "refactorizations",
              "factorFillNnz", "hbNewton", "hbGmres"]

# Per-layer self times (s) of a traced job: the counter-timed layers, with
# the documented subsets subtracted from their parents so no two overlap,
# then each span's wall time minus the counter-timed work inside it.
COUNTER_LAYERS = {
    "circuit.eval_s": lambda c: c["evalNs"],
    "sparse.ordering_s": lambda c: c["orderingNs"],
    "sparse.factor_s": lambda c: c["factorNs"] - c["orderingNs"],
    "sparse.refactor_s": lambda c: c["refactorNs"] - c["refactorParallelNs"],
    "sparse.refactor_parallel_s": lambda c: c["refactorParallelNs"],
    "sparse.solve_s": lambda c: c["solveNs"],
    "fft.s": lambda c: c["fftNs"],
}
SPAN_LAYERS = {
    "engine.topology_key": "engine.topology_key_s",
    "circuit.parse": "circuit.parse_s",
    "circuit.mna_build": "circuit.mna_build_s",
    "analysis.dc": "analysis.dc_s",
    "analysis.tran": "analysis.tran_s",
    "analysis.ac": "analysis.ac_s",
    "analysis.noise": "analysis.noise_s",
    "hb.setup": "hb.setup_s",
    "hb.solve": "hb.krylov_s",
    # Exec, loading, static set-up and exit of a CLI job: the client's wall
    # time minus the runner's own main() time.
    "cli.process": "cli.process_s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build --

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: run from the repository root "
                         "(src/CMakeLists.txt not found)")
    os.makedirs(WORK, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                  "rficsim", "rficd", "rfic_trace"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")


# -------------------------------------------------------------- helpers --

def percentile(values, p):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(p / 100 * len(v)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def calibrate():
    """Median of three timings of a fixed compute loop (host speed)."""
    ts = []
    for _ in range(3):
        r = subprocess.run([TRACE, "--calib"], capture_output=True, text=True,
                           check=True)
        ts.append(json.loads(r.stdout)["calib_ns"] * 1e-9)
    return statistics.median(ts)


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


# ------------------------------------------------- output check (shared) --

def parse_output(text):
    """rficsim's rendered output -> the key/value form rfic_trace prints."""
    out = {}
    section, cols, last = None, [], None
    hb_node = None

    def close_tran():
        if section == "tran" and last is not None:
            for name, v in zip(cols, last):
                out["tran:" + name] = v

    for line in text.splitlines():
        f = line.split()
        if not f:
            continue
        if line.startswith("* ."):
            close_tran()
            section, last = f[1][1:], None
            if section == "noise":
                node = f[3][2:-1]
                out["noise:" + node] = []
            continue
        if section == "op":
            out["op:" + f[0][2:-1]] = float(f[1])
        elif section == "tran":
            if f[0] == "time":
                cols = [c[2:-1] for c in f[1:]]
            else:
                last = [float(x) for x in f[1:]]
        elif section == "ac":
            if f[0] == "freq":
                cols = [c[3:-2] for c in f[1::2]]
                for c in cols:
                    out["ac:" + c] = []
            else:
                for c, x in zip(cols, f[1::2]):
                    out["ac:" + c].append(float(x))
        elif section == "noise":
            if f[0] != "freq":
                out["noise:" + node].append(float(f[1]))
        elif section == "hb":
            if f[0] == "spectrum":
                hb_node = f[2][2:-2]
                out["hb:" + hb_node] = []
            elif f[0] != "freq":
                out["hb:" + hb_node].append([int(f[1]), int(f[2]),
                                             float(f[3])])
    close_tran()
    return out


def close(x, r, rtol, atol):
    return abs(x - r) <= rtol * abs(r) + atol


def check_outputs(out, ref):
    """True when `out` matches the reference within tolerance."""
    for key, r in ref.items():
        x = out.get(key)
        if x is None:
            return False
        if key.startswith("hb:"):
            top = max(a for _, _, a in r)
            got = {(k1, k2): a for k1, k2, a in x}
            for k1, k2, a in r:
                if a < HB_FLOOR * top:
                    continue
                if (k1, k2) not in got or not close(
                        got[(k1, k2)], a, HB_RTOL, 1e-6 * top):
                    return False
        elif isinstance(r, list):
            if len(x) != len(r) or not all(
                    close(a, b, RTOL, 1e-12) for a, b in zip(x, r)):
                return False
        elif not close(x, r, RTOL, 1e-12):
            return False
    return True


# ------------------------------------------------------------ CLI runs ----

def run_process(cmd, path):
    """Run one job process; returns (wall_s, cpu_s, maxrss_kb, rc, stdout)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd + [path], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, p.returncode,
            out.decode())


def cli_jobs(name, seed):
    """Endless seeded stream of netlist paths for a CLI workload."""
    rng = random.Random(f"{name}:{seed}")
    make = CLI[name]["make"]
    i = 0
    while True:
        path = os.path.join(WORK, f"{name}_{i % 2}.cir")
        with open(path, "w") as f:
            f.write(make(rng))
        yield path
        i += 1


def run_cli(name, seed, seconds, trace):
    ref = load_reference()[name]
    cmd = [RFICSIM] + CLI[name]["args"]
    jobs = cli_jobs(name, seed)
    calib0 = calibrate()
    attempted = failed = 0

    def rficsim_job(path):
        nonlocal attempted, failed
        wall, cpu, rss, rc, out = run_process(cmd, path)
        ok = rc == 0 and check_outputs(parse_output(out), ref["outputs"])
        attempted += 1
        failed += 0 if ok else 1
        return wall, cpu, rss

    # Set-up: cold runs before the first timed job, as a user pays them.
    setups = [rficsim_job(next(jobs))[0] for _ in range(SETUP_BEFORE)]
    t0 = time.perf_counter()
    walls, cpus, rss, traced = [], [], [], []
    tcmd = [TRACE] + CLI[name]["args"]
    need = MIN_TRACED_JOBS if trace else CLI[name]["min_jobs"]
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and
                                      len(walls) >= need):
            break
        path = next(jobs)
        w, c, m = rficsim_job(path)
        walls.append(w)
        cpus.append(c)
        rss.append(m)
        if trace:
            # The traced twin of the same netlist, right after it.
            wall, _, _, rc, out = run_process(tcmd, path)
            rec = json.loads(out) if rc == 0 else {"exit": rc}
            ok = rec["exit"] == 0 and check_outputs(rec["outputs"],
                                                    ref["outputs"])
            attempted += 1
            failed += 0 if ok else 1
            if ok:
                rec["client_s"] = wall
                traced.append(rec)
    setups += [rficsim_job(next(jobs))[0] for _ in range(SETUP_AFTER)]
    calib1 = calibrate()
    log(f"perfbench: {name}: {len(walls)} jobs in "
        f"{time.perf_counter() - t0:.1f} s; host.calib_s {calib0:.4f} -> "
        f"{calib1:.4f}")
    if len(walls) < need:
        log(f"perfbench: only {len(walls)} jobs (wanted {need})")
    if trace:
        metrics = cli_layers(traced, walls, ref["counts"])
        metrics["host.calib_s"] = metric((calib0 + calib1) / 2, "s")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "latency_s_p50": metric(statistics.median(walls), "s"),
            "latency_s_tail": metric(percentile(walls, 90), "s"),
            "jobs_per_s": metric(len(walls) / sum(walls), "1/s"),
            "cpu_s_per_job": metric(statistics.fmean(cpus), "s"),
            "peak_rss_mb": metric(max(rss) / 1024, "MB"),
        }
    return attempted, failed, metrics


def layer_times(rec):
    """Non-overlapping layer self times (s) of one traced job."""
    c = rec["counters"]
    out = {name: f(c) * 1e-9 for name, f in COUNTER_LAYERS.items()}
    for span, name in SPAN_LAYERS.items():
        out[name] = rec["span_self_ns"].get(span, 0) * 1e-9
    return out


def count_metrics(recs, ref_counts):
    """Mean work counts per job, plus the number of jobs whose exact counts
    differ from the recorded ones. On daemon_mix only cold jobs are
    compared: a warm job's counts depend on its context's history (a mesh
    transient on a context built by a mesh AC job factors once more)."""
    drift = 0
    for r in recs:
        rc = ref_counts.get(r["kind"]) if "kind" in r else ref_counts
        if rc is None:
            continue
        bad = [k for k in COUNT_KEYS if r["counters"][k] != rc[k]]
        if bad:
            drift += 1
            log(f"perfbench: COUNT DRIFT in {r.get('kind', '')} {bad}: "
                f"{ {k: r['counters'][k] for k in bad} } vs recorded "
                f"{ {k: rc[k] for k in bad} }")
    mean = lambda k: statistics.fmean(r["counters"][k] for r in recs)
    fft = sum(r["counters"]["fftCount"] for r in recs)
    fft_ns = sum(r["counters"]["fftNs"] for r in recs)
    return {
        "fft.count": metric(mean("fftCount"), "count"),
        "fft.ns_per_transform": metric(fft_ns / fft if fft else 0.0, "ns"),
        "fft.plan_misses": metric(mean("planCacheMisses"), "count"),
        "hb.newton": metric(mean("hbNewton"), "count"),
        "hb.gmres": metric(mean("hbGmres"), "count"),
        "sparse.factorizations": metric(mean("factorizations"), "count"),
        "sparse.refactorizations": metric(mean("refactorizations"), "count"),
        "sparse.fill_nnz": metric(max(r["counters"]["factorFillNnz"]
                                      for r in recs), "count"),
        "sparse.refactor_levels": metric(max(r["counters"]["refactorLevels"]
                                             for r in recs), "count"),
        "circuit.evals": metric(mean("evals"), "count"),
        "diag.mem_peak_mb": metric(max(r["counters"]["memPeakBytes"]
                                       for r in recs) / 2**20, "MB"),
        "counts.drift_jobs": metric(drift, "count"),
    }


def layer_metrics(recs, wall_key):
    """Mean per-job layer times, other_s and coverage over traced jobs."""
    per_job = [layer_times(r) for r in recs]
    out = {name: metric(statistics.fmean(j[name] for j in per_job), "s")
           for name in per_job[0]}
    wall = statistics.fmean(wall_key(r) for r in recs)
    covered = sum(v["value"] for v in out.values())
    out["other_s"] = metric(wall - covered, "s")
    out["coverage"] = metric(covered / wall, "ratio")
    return out


def cli_layers(traced, untraced_walls, ref_counts):
    for r in traced:
        r["span_self_ns"]["cli.process"] = (r["client_s"] * 1e9 -
                                            r["main_ns"])
    m = layer_metrics(traced, lambda r: r["client_s"])
    m.update(count_metrics(traced, ref_counts))
    traced_p50 = statistics.median(r["client_s"] for r in traced)
    m["trace.overhead_frac"] = metric(
        traced_p50 / statistics.median(untraced_walls) - 1, "ratio")
    for k in ("engine.ctx_hit_ratio", "engine.queue_wait_s_p50",
              "engine.run_s_p50", "cli.ack_s_p50"):
        m[k] = metric(0.0, "ratio" if "ratio" in k else "s")
    return m


# --------------------------------------------------------- daemon runs ----

class Daemon:
    """A running rficd; stops it (and waits for it) on close()."""

    def __init__(self):
        self.sock_path = os.path.relpath(os.path.join(WORK, "rficd.sock"))
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.proc = subprocess.Popen(
            [RFICD, "--socket", self.sock_path, "--workers",
             str(DAEMON_WORKERS), "--threads", "1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def connect(self, deadline):
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                s.settimeout(60)  # a stalled daemon fails the run
                return s
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise SystemExit("perfbench: rficd did not start")
                time.sleep(0.0005)

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Conn:
    def __init__(self, sock):
        self.sock = sock
        self.buf = b""
        self.job = None
        self.next_job = None

    def send(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")

    def events(self):
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise SystemExit("perfbench: rficd closed a connection")
        self.buf += chunk
        *lines, self.buf = self.buf.split(b"\n")
        return [json.loads(line) for line in lines]


def submit(conn, kind, netlist):
    conn.job = {"kind": kind, "netlist": netlist, "t_submit":
                time.perf_counter(), "stdout": []}
    conn.send({"cmd": "submit", "netlist": netlist, "threads": 1,
               "label": kind})


def read_job(conn):
    """Blocks until the connection's job ends."""
    while "event" not in conn.job:
        handle(conn, conn.events())


def handle(conn, events):
    """Records a job's events; returns True when the job has ended."""
    now = time.perf_counter()
    for ev in events:
        kind = ev.get("event")
        if kind == "accepted":
            conn.job["t_ack"] = now
        elif kind == "started":
            conn.job["t_start"] = now
        elif kind == "stdout":
            conn.job["stdout"].append(ev["text"])
        elif kind in ("finished", "rejected"):
            conn.job["t_done"] = now
            conn.job["event"] = ev
    return "event" in conn.job


def drive(conns, stop):
    """Closed loop: each connection sends its next job when the previous
    one's `finished` (or `rejected`) event arrives, until stop() is true.
    Returns the ended jobs."""
    done = []
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
        submit(c, *c.next_job())
    busy = len(conns)
    while busy:
        ready = sel.select(timeout=60)
        if not ready:
            raise SystemExit("perfbench: rficd stopped answering")
        for key, _ in ready:
            c = key.data
            if handle(c, c.events()):
                done.append(c.job)
                if stop(len(done)):
                    busy -= 1
                    sel.unregister(c.sock)
                else:
                    submit(c, *c.next_job())
    sel.close()
    return done


class Checker:
    """Output check of daemon jobs, run after the timed window. Repeat
    topologies return identical text, so results are cached by text."""

    def __init__(self, ref):
        self.ref = ref
        self.seen = {}
        self.attempted = self.failed = 0

    def __call__(self, jobs):
        for j in jobs:
            ev = j["event"]
            text = "".join(j["stdout"])
            key = (j["kind"], text)
            if key not in self.seen:
                self.seen[key] = check_outputs(parse_output(text),
                                               self.ref["outputs"][j["kind"]])
            ok = (ev.get("event") == "finished" and ev.get("exit") == 0 and
                  self.seen[key])
            self.attempted += 1
            self.failed += not ok
            j["stdout"] = None


def daemon_setup(daemon):
    """Spawn-to-ready plus one pass over every repeat topology; returns
    (seconds, the first connection, the set-up jobs)."""
    t0 = time.perf_counter()
    conn = Conn(daemon.connect(time.monotonic() + 30))
    jobs = []
    for kind in WARM_KINDS:
        submit(conn, kind, DAEMON_KINDS[kind](None))
        read_job(conn)
        jobs.append(conn.job)
    return time.perf_counter() - t0, conn, jobs


def job_stream(seed, index):
    """The seeded job sequence of connection `index`."""
    rng = random.Random(f"daemon_mix:{seed}:{index}")
    deck = []

    def next_job():
        if not deck:
            deck.extend(k for k, n in DAEMON_DECK.items() for _ in range(n))
            rng.shuffle(deck)
        kind = deck.pop()
        return kind, DAEMON_KINDS[kind](rng)
    return next_job


def run_daemon(seed, seconds, trace):
    ref = load_reference()["daemon_mix"]
    check = Checker(ref)
    calib0 = calibrate()
    setups = []
    daemon = None

    def set_up():
        d = Daemon()
        dt, conn, jobs = daemon_setup(d)
        setups.append(dt)
        check(jobs)
        return d, conn

    try:
        for _ in range(SETUP_BEFORE):
            if daemon is not None:
                daemon.close()
            daemon, first = set_up()
        conns = [first] + [Conn(daemon.connect(time.monotonic() + 30))
                           for _ in range(DAEMON_CONNECTIONS - 1)]
        for i, c in enumerate(conns):
            c.next_job = job_stream(seed, i)
        check(drive(conns, lambda n: n >= DAEMON_WARMUP_JOBS))
        # The traced run measures an untraced half first, for the overhead.
        phases = []
        peak_rss = None

        def stop(n):
            # rficd's RSS grows with the jobs it has run, so its peak is
            # read after a fixed number of jobs, not at the end of the run.
            nonlocal peak_rss
            if n == DAEMON_MIN_JOBS and peak_rss is None:
                peak_rss = daemon.peak_rss_mb()
            elapsed = time.perf_counter() - t0
            return elapsed >= HARD_STOP_S or (elapsed >= span and n >= need)

        for traced in ([False, True] if trace else [False]):
            need = 0 if trace else DAEMON_MIN_JOBS
            span = seconds / 2 if trace else seconds
            cpu0 = daemon.cpu_s()
            t0 = time.perf_counter()
            jobs = drive(conns, stop)
            elapsed = time.perf_counter() - t0
            phases.append((jobs, len(jobs) / elapsed,
                           (daemon.cpu_s() - cpu0) / len(jobs)))
        if peak_rss is None:
            peak_rss = daemon.peak_rss_mb()
        for c in conns:
            c.sock.close()
        for _ in range(SETUP_AFTER):
            daemon.close()
            daemon, first = set_up()
            first.sock.close()
    finally:
        if daemon is not None:
            daemon.close()
    for jobs, _, _ in phases:
        check(jobs)
    calib1 = calibrate()
    jobs, rate, cpu = phases[0]
    lat = [j["t_done"] - j["t_submit"] for j in jobs]
    log(f"perfbench: daemon_mix: {len(jobs)} jobs at {rate:.1f}/s, "
        f"context hit ratio {hit_ratio(jobs):.3f}; "
        f"host.calib_s {calib0:.4f} -> {calib1:.4f}")
    if not trace:
        return check.attempted, check.failed, {
            "setup_s": metric(statistics.median(setups), "s"),
            "latency_s_p50": metric(statistics.median(lat), "s"),
            "latency_s_tail": metric(percentile(lat, 99), "s"),
            "jobs_per_s": metric(rate, "1/s"),
            "cpu_s_per_job": metric(cpu, "s"),
            "peak_rss_mb": metric(peak_rss, "MB"),
        }
    tjobs = phases[1][0]
    m = daemon_layers(tjobs, ref)
    tlat = [j["t_done"] - j["t_submit"] for j in tjobs]
    m["trace.overhead_frac"] = metric(
        statistics.median(tlat) / statistics.median(lat) - 1, "ratio")
    m["host.calib_s"] = metric((calib0 + calib1) / 2, "s")
    return check.attempted, check.failed, m


def topology(netlist):
    """The element and .model cards: jobs with equal topology share a
    context (engine::topologyKey has the exact rule)."""
    return "\n".join(
        line for line in netlist.splitlines()
        if line and line[0] != "*" and
        (line[0] != "." or line.lower().startswith(".model")))


def hit_ratio(jobs):
    fin = [j["event"] for j in jobs if j["event"].get("event") == "finished"]
    hits = sum(e["ctxHits"] for e in fin)
    return hits / max(1, hits + sum(e["ctxMisses"] for e in fin))


def daemon_layers(jobs, ref):
    """Engine metrics from the traced daemon run, layer times from replaying
    its first jobs through rfic_trace with the daemon's hit/miss outcome."""
    fin = [j for j in jobs if j["event"].get("event") == "finished"]
    m = {
        "engine.ctx_hit_ratio": metric(hit_ratio(fin), "ratio"),
        "engine.queue_wait_s_p50": metric(statistics.median(
            j["t_start"] - j["t_submit"] for j in fin), "s"),
        "engine.run_s_p50": metric(statistics.median(
            j["t_done"] - j["t_start"] for j in fin), "s"),
        "cli.ack_s_p50": metric(statistics.median(
            j["t_ack"] - j["t_submit"] for j in fin), "s"),
    }
    sample = fin[:REPLAY_JOBS]
    # Park a context only when a later job reuses it, as the daemon did.
    later_warm, keep = set(), []
    for j in reversed(sample):
        keep.append(topology(j["netlist"]) in later_warm)
        if j["event"]["ctxHits"]:
            later_warm.add(topology(j["netlist"]))
    keep.reverse()
    warmup = [DAEMON_KINDS[kind](None) for kind in WARM_KINDS]
    path = os.path.join(WORK, "replay.jobs")
    with open(path, "w") as f:
        for text in warmup:  # the set-up pass; its records are dropped
            f.write("%%job 0 1\n" + text)
        for j, k in zip(sample, keep):
            f.write(f"%%job {j['event']['ctxHits']} {int(k)}\n")
            f.write(j["netlist"])
    r = subprocess.run([TRACE, "--threads", "1", "--replay", path],
                       capture_output=True, text=True, check=True)
    recs = [json.loads(line) for line in r.stdout.splitlines()][len(warmup):]
    for j, rec in zip(sample, recs):
        state = "warm" if j["event"]["ctxHits"] else "cold"
        rec["kind"] = f"{j['kind']}/{state}"
        if not check_outputs(rec["outputs"], ref["outputs"][j["kind"]]):
            log(f"perfbench: replayed {rec['kind']} output mismatch")
    m.update(layer_metrics(recs, lambda r: r["wall_ns"] * 1e-9))
    m.update(count_metrics(recs, ref["counts"]))
    return m


# ------------------------------------------------------------ reference --

def record_reference():
    """Rewrite reference.json from the current build: outputs from rficsim,
    exact counts from a cold rfic_trace run, all on the unscaled circuits."""
    ref = {}
    unscaled = {"hb_mixer": netlists.mixer(), "mesh_cold":
                netlists.mesh(60, "tran")}
    for name, spec in CLI.items():
        path = os.path.join(WORK, f"{name}_ref.cir")
        with open(path, "w") as f:
            f.write(unscaled[name])
        out = run_process([RFICSIM] + spec["args"], path)[4]
        rec = json.loads(run_process([TRACE] + spec["args"], path)[4])
        ref[name] = {"outputs": parse_output(out),
                     "counts": {k: rec["counters"][k] for k in COUNT_KEYS}}
    dm = {"outputs": {}, "counts": {}}
    for kind, make in DAEMON_KINDS.items():
        text = MESH24_TRAN if kind == "mesh_cold" else make(None)
        path = os.path.join(WORK, f"{kind}_ref.cir")
        with open(path, "w") as f:
            f.write(text)
        dm["outputs"][kind] = parse_output(run_process([RFICSIM], path)[4])
        rec = json.loads(run_process([TRACE, "--threads", "1"], path)[4])
        dm["counts"][f"{kind}/cold"] = {k: rec["counters"][k]
                                        for k in COUNT_KEYS}
    ref["daemon_mix"] = dm
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"perfbench: wrote {REFERENCE}")


# ----------------------------------------------------------------- main --

def main():
    # Turn a termination request into SystemExit, so the daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(CLI) + ["daemon_mix"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    build()
    if args.record_reference:
        record_reference()
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "daemon_mix":
        attempted, failed, metrics = run_daemon(args.seed, args.seconds,
                                                bool(args.trace))
    else:
        attempted, failed, metrics = run_cli(args.workload, args.seed,
                                             args.seconds, bool(args.trace))
    if not args.trace:
        metrics["ok_frac"] = metric(1 - failed / attempted, "ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
