#!/usr/bin/env python3
"""Chaos harness for the rficd daemon (DESIGN.md section 11).

Drives real daemon processes over real unix sockets through hostile
client behavior — malformed and oversized requests, mid-stream
disconnects with running jobs, lazy readers, cancel/submit races,
memory-budget-busting submissions, an overload flood against a tiny
queue, and a mem-spike fault-injected instance — and asserts the three
daemon invariants:

  1. the daemon never crashes (every phase ends with a live process that
     still answers a round-trip),
  2. no admitted job leaks (every accepted job reaches a terminal state),
  3. exactly one `finished` event is delivered per admitted job.

Usage: rficd_chaos.py <rficd> <examples_dir>
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import time

DIVIDER = None  # loaded from examples in main()

# Long enough to keep a worker busy for the whole overload phase; always
# cancelled, never waited out.
HEAVY = ("V1 in 0 SIN(0 1 1k)\nR1 in out 1k\nC1 out 0 1u\n"
         ".print out\n.tran 5e-8 1e-1\n")


def tiny_op(seed):
    """A fresh-topology .op netlist (unique R value => unique context)."""
    return (f"V1 in 0 1\nR1 in out {1000 + seed}\nR2 out 0 {2000 + seed}\n"
            ".op\n")


class Client:
    def __init__(self, path, retries=100):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        for i in range(retries):
            try:
                self.sock.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if i == retries - 1:
                    raise
                time.sleep(0.05)
        self.buf = b""
        self.events = []  # job-stream events set aside while matching

    def send(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")

    def send_raw(self, data):
        self.sock.sendall(data)

    def recv(self, timeout=120):
        self.sock.settimeout(timeout)
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def wait_for(self, pred, timeout=120):
        """Next message matching pred; anything else (job-stream events of
        other jobs, cancel acks, ...) is stashed, never dropped — the
        exactly-one-finished-event invariant depends on that."""
        for i, m in enumerate(self.events):
            if pred(m):
                return self.events.pop(i)
        deadline = time.monotonic() + timeout
        while True:
            assert time.monotonic() < deadline, \
                f"timed out; stashed events: {self.events[-5:]}"
            msg = self.recv(timeout=timeout)
            if pred(msg):
                return msg
            self.events.append(msg)

    def submit(self, netlist, **extra):
        """Submit and return (job_id_or_None, reply)."""
        self.send({"cmd": "submit", "netlist": netlist, **extra})
        msg = self.wait_for(
            lambda m: m.get("event") in ("accepted", "rejected"))
        if msg.get("event") == "accepted":
            return msg["job"], msg
        return None, msg

    def wait_started(self, job, timeout=120):
        return self.wait_for(
            lambda m: m.get("event") == "started" and m.get("job") == job,
            timeout)

    def wait_finished(self, job, timeout=120):
        return self.wait_for(
            lambda m: m.get("event") == "finished" and m.get("job") == job,
            timeout)

    def drain_finished(self, jobs, timeout=120):
        """Collect finished events until every job in `jobs` has exactly
        one; assert no job ever gets a second one."""
        counts = {j: 0 for j in jobs}
        finished = {}
        deadline = time.monotonic() + timeout
        while any(c == 0 for c in counts.values()):
            left = deadline - time.monotonic()
            assert left > 0, f"timed out waiting for finished: {counts}"
            msg = self.wait_for(lambda m: m.get("event") == "finished",
                                timeout=left)
            j = msg.get("job")
            if j in counts:
                counts[j] += 1
                assert counts[j] == 1, f"duplicate finished for job {j}"
                finished[j] = msg
        return finished

    def stats(self):
        self.send({"cmd": "stats"})
        return self.wait_for(lambda m: m.get("event") == "stats")

    def settled_stats(self, pred, timeout=30):
        """Poll stats until `pred(st)` holds. The scheduler delivers a
        job's finished event before it settles the gauge counters under
        the lock, so a snapshot taken right after a finished event can
        briefly lag the wire; gauges are eventually consistent."""
        deadline = time.monotonic() + timeout
        while True:
            st = self.stats()
            if pred(st):
                return st
            assert time.monotonic() < deadline, \
                f"stats never settled: {st}"
            time.sleep(0.05)

    def states(self):
        """{job_id: state} via the status command."""
        self.send({"cmd": "status"})
        out = {}
        while True:
            msg = self.wait_for(
                lambda m: m.get("event") in ("job", "status-end"))
            if msg.get("event") == "status-end":
                return out
            out[msg["job"]] = msg.get("state")

    def close(self):
        self.sock.close()


class Daemon:
    def __init__(self, rficd, tmpdir, name, extra_args=(), env_extra=None):
        self.sock_path = os.path.join(tmpdir, f"{name}.sock")
        env = dict(os.environ)
        if env_extra:
            env.update(env_extra)
        self.proc = subprocess.Popen(
            [rficd, "--socket", self.sock_path, *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)

    def alive(self):
        return self.proc.poll() is None

    def shutdown_clean(self):
        cli = Client(self.sock_path)
        cli.send({"cmd": "shutdown"})
        assert cli.recv().get("event") == "bye"
        rc = self.proc.wait(timeout=60)
        assert rc == 0, \
            f"daemon exit {rc}: {self.proc.stderr.read()[:400]}"

    def kill(self):
        if self.alive():
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()


def phase_malformed(d):
    """Garbage, binary, nested JSON, missing fields: structured error or
    rejection every time, connection stays usable."""
    cli = Client(d.sock_path)
    cli.send_raw(b"this is not json\n")
    assert cli.recv().get("event") == "error"
    cli.send_raw(b"\x00\x01\xfe\xff{{{\n")
    assert cli.recv().get("event") == "error"
    cli.send_raw(b'{"cmd":{"nested":"object"}}\n')
    assert cli.recv().get("event") == "error"
    cli.send_raw(b'{"unterminated": "stri\n')
    assert cli.recv().get("event") == "error"
    cli.send_raw(b"\n\n\n")  # blank lines are ignored, not errors
    cli.send({"cmd": "submit"})  # no netlist -> pre-flight rejection
    msg = cli.recv()
    assert msg.get("event") == "rejected", msg
    assert msg.get("reason") == "spec-invalid", msg
    cli.send({"cmd": "submit", "netlist": DIVIDER,
              "priority": "urgent"})  # unknown class -> spec-invalid
    msg = cli.recv()
    assert msg.get("reason") == "spec-invalid", msg
    # Connection is still fully functional after all of the above.
    job, _ = cli.submit(DIVIDER, label="post-garbage")
    fin = cli.wait_finished(job)
    assert fin["exit"] == 0, fin
    cli.close()
    print("ok   malformed requests: structured errors, connection usable")


def phase_oversized(d):
    """A request line just under 1 MiB is served; one over it is answered
    with an error and the connection is dropped; the daemon itself stays
    up."""
    cap = 1 << 20
    # A submit padded with a trailing comment to 16 bytes under the cap. It
    # reaches the daemon in many reads, so the newline search has to carry
    # over from one read to the next.
    def submit_line(pad):
        netlist = DIVIDER + "* " + "x" * pad + "\n"
        return json.dumps({"cmd": "submit", "netlist": netlist}).encode()
    line = submit_line(0)
    line = submit_line(cap - 16 - len(line))
    assert len(line) == cap - 16, len(line)
    cli = Client(d.sock_path)
    cli.send_raw(line + b"\n")
    msg = cli.wait_for(lambda m: m.get("event") in ("accepted", "rejected"))
    assert msg.get("event") == "accepted", msg
    fin = cli.wait_finished(msg["job"])
    assert fin["exit"] == 0, fin
    cli.close()

    cli = Client(d.sock_path)
    cli.send_raw(b"x" * ((1 << 20) + 8192))  # no newline, > 1 MiB cap
    msg = cli.recv()
    assert msg.get("event") == "error", msg
    assert "exceeds" in msg.get("error", ""), msg
    try:
        # Daemon closed its end; we eventually see EOF.
        while True:
            cli.recv(timeout=30)
    except (ConnectionError, OSError):
        pass
    cli.close()
    assert d.alive(), "daemon died on oversized request"
    # Fresh connection works.
    cli2 = Client(d.sock_path)
    assert "queueDepth" in cli2.stats()
    cli2.close()
    print("ok   line under the cap served; oversized line: error + drop, "
          "daemon alive")


def phase_disconnect(d):
    """Disconnect with a running job: the job must reach a terminal state
    (cancelled) and the daemon must not leak it."""
    cli = Client(d.sock_path)
    job, _ = cli.submit(HEAVY, label="abandoned")
    # Wait for it to actually start, then vanish without a word.
    cli.wait_started(job)
    cli.sock.close()
    # From a second connection, poll until the abandoned job is terminal.
    cli2 = Client(d.sock_path)
    deadline = time.monotonic() + 60
    while True:
        st = cli2.states().get(job)
        if st in ("cancelled", "done"):
            break
        assert time.monotonic() < deadline, \
            f"abandoned job stuck in state {st!r}"
        time.sleep(0.1)
    assert st == "cancelled", st
    cli2.close()
    print("ok   mid-stream disconnect: running job cancelled, not leaked")


def phase_lazy_reader(d):
    """A client that submits and then stops reading for a while must not
    wedge the daemon; events are waiting when it comes back."""
    cli = Client(d.sock_path)
    job, _ = cli.submit(DIVIDER, label="lazy")
    time.sleep(1.0)  # don't read anything while the job runs
    # Daemon must still serve others during the stall.
    other = Client(d.sock_path)
    job2, _ = other.submit(DIVIDER, label="concurrent-with-lazy")
    fin2 = other.wait_finished(job2)
    assert fin2["exit"] == 0
    other.close()
    fin = cli.wait_finished(job)  # backlog is intact
    assert fin["exit"] == 0, fin
    cli.close()
    print("ok   lazy reader: backlog preserved, daemon not wedged")


def phase_cancel_races(d):
    """Submit/cancel races: every admitted job gets exactly one finished
    event with exit 0 (ran first) or 5 (cancel won)."""
    cli = Client(d.sock_path)
    jobs = []
    for i in range(12):
        job, _ = cli.submit(tiny_op(i), label=f"race-{i}")
        assert job is not None
        cli.send({"cmd": "cancel", "job": job})
        jobs.append(job)
    fins = cli.drain_finished(jobs)
    exits = sorted({f["exit"] for f in fins.values()})
    assert set(exits) <= {0, 5}, exits
    cli.close()
    print(f"ok   cancel/submit races: 12 jobs, one terminal event each, "
          f"exits {exits}")


def phase_memory_budget(d):
    """A budget-busting submission unwinds with exit 6 and reports peak
    bytes; a generous budget leaves the same netlist untouched."""
    cli = Client(d.sock_path)
    # Fresh topology so the cold parse charge hits this job's account.
    job, _ = cli.submit(tiny_op(9001), label="mem-bust", maxbytes=64)
    fin = cli.wait_finished(job)
    assert fin["exit"] == 6, fin
    assert fin.get("peakBytes", 0) > 64, fin
    job2, _ = cli.submit(tiny_op(9002), label="mem-ok",
                         maxbytes=256 * 1024 * 1024)
    fin2 = cli.wait_finished(job2)
    assert fin2["exit"] == 0, fin2
    assert fin2.get("peakBytes", 0) > 0, fin2
    cli.close()
    print(f"ok   memory budget: exit 6 at 64 B (peak "
          f"{fin['peakBytes']} B), exit 0 when generous")


def phase_overload(rficd, tmpdir):
    """Flood a tiny queue: batch shed above high water, queue-full at
    depth, degraded flag set, full recovery after drain."""
    d = Daemon(rficd, tmpdir, "overload",
               ["--workers", "1", "--queue-depth", "4",
                "--high-water", "2", "--aging", "2"])
    try:
        cli = Client(d.sock_path)
        blocker, _ = cli.submit(HEAVY, label="blocker")  # occupancy 1
        admitted = [blocker]
        b1, _ = cli.submit(tiny_op(100), label="b1", priority="batch")
        assert b1 is not None  # occupancy 2 (below high water at admission)
        admitted.append(b1)
        shed_job, msg = cli.submit(tiny_op(101), label="b2",
                                   priority="batch")
        assert shed_job is None and msg["reason"] == "shed", msg
        assert msg.get("degraded") is True, msg
        n1, _ = cli.submit(tiny_op(102), label="n1")  # occupancy 3
        n2, _ = cli.submit(tiny_op(103), label="n2")  # occupancy 4
        assert n1 is not None and n2 is not None
        admitted += [n1, n2]
        full_job, msg = cli.submit(tiny_op(104), label="n3")
        assert full_job is None and msg["reason"] == "queue-full", msg

        # queued/running settle once the worker pops the blocker; the
        # active total (queued + running) is 4 from admission onward.
        st = cli.settled_stats(
            lambda s: s["queued"] == 3 and s["running"] == 1)
        assert st["degraded"] is True, st
        assert st["shed"] >= 1 and st["rejectedFull"] >= 1, st
        assert st["maxQueueAge"] >= 0.0, st

        # Unblock and drain; every admitted job terminates exactly once.
        cli.send({"cmd": "cancel", "job": blocker})
        fins = cli.drain_finished(admitted)
        assert fins[blocker]["exit"] == 5
        for j in (b1, n1, n2):
            assert fins[j]["exit"] == 0, fins[j]

        # Recovery: pressure gone, batch admitted again, not degraded.
        st = cli.settled_stats(
            lambda s: s["queued"] == 0 and s["running"] == 0
            and s["finished"] == len(admitted))
        assert st["degraded"] is False, st
        b3, _ = cli.submit(tiny_op(105), label="b3", priority="batch")
        assert b3 is not None
        assert cli.wait_finished(b3)["exit"] == 0
        cli.close()
        d.shutdown_clean()
        print("ok   overload: shed->queue-full->degraded, clean recovery")
    finally:
        d.kill()


def phase_mem_spike(rficd, tmpdir):
    """A fault-injected memory spike (RFIC_INJECT_FAULT=mem-spike) trips
    the budget of the running job: exit 6, daemon unharmed."""
    d = Daemon(rficd, tmpdir, "memspike",
               ["--workers", "1"],
               env_extra={"RFIC_INJECT_FAULT": "mem-spike:1"})
    try:
        cli = Client(d.sock_path)
        job, _ = cli.submit(DIVIDER, label="spiked")
        fin = cli.wait_finished(job)
        assert fin["exit"] == 6, fin
        # The one-shot injection is spent; the next job runs normally.
        job2, _ = cli.submit(DIVIDER, label="after-spike")
        fin2 = cli.wait_finished(job2)
        assert fin2["exit"] == 0, fin2
        cli.close()
        d.shutdown_clean()
        print("ok   mem-spike injection: exit 6 once, clean after")
    finally:
        d.kill()


def main():
    global DIVIDER
    rficd, examples = sys.argv[1], sys.argv[2]
    with open(os.path.join(examples, "divider.cir")) as f:
        DIVIDER = f.read()
    tmpdir = tempfile.mkdtemp(prefix="rficd_chaos_")

    d = Daemon(rficd, tmpdir, "chaos", ["--workers", "2"])
    try:
        phase_malformed(d)
        phase_oversized(d)
        phase_disconnect(d)
        phase_lazy_reader(d)
        phase_cancel_races(d)
        phase_memory_budget(d)

        # Post-chaos round trip: structured stats are coherent and the
        # daemon still simulates correctly, then exits 0.
        cli = Client(d.sock_path)
        st = cli.settled_stats(
            lambda s: s["queued"] == 0 and s["running"] == 0)
        for key in ("queued", "running", "queueDepth", "highWater",
                    "degraded", "shed", "promoted", "admitted", "finished",
                    "memPeakBytes", "text"):
            assert key in st, f"stats missing {key}: {sorted(st)}"
        assert st["admitted"] >= st["finished"] > 0, st
        assert st["memPeakBytes"] > 0, st
        job, _ = cli.submit(DIVIDER, label="post-chaos")
        assert cli.wait_finished(job)["exit"] == 0
        cli.close()
        d.shutdown_clean()
        print("ok   post-chaos: stats coherent, clean shutdown")
    finally:
        d.kill()

    phase_overload(rficd, tmpdir)
    phase_mem_spike(rficd, tmpdir)
    print("rficd_chaos: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
