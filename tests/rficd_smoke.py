#!/usr/bin/env python3
"""End-to-end smoke test for the rficd daemon.

Starts rficd on a temporary unix socket, then over real connections:
submits the example netlists (one with --wait streaming, checking the
streamed bytes against a direct rficsim-equivalent run), exercises
status / cancel / result / stats (and its context-pool gauges), checks that a repeat-topology job
reports a context-cache hit, and finally shuts the daemon down cleanly.

Usage: rficd_smoke.py <rficd> <examples_dir>
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import time


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

    def send(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")

    def recv(self, timeout=120):
        self.sock.settimeout(timeout)
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def submit(self, netlist, **extra):
        self.send({"cmd": "submit", "netlist": netlist, **extra})
        msg = self.recv()
        assert msg.get("event") == "accepted", f"submit not accepted: {msg}"
        return msg["job"]

    def wait_finished(self, job):
        out, err, events = "", "", []
        while True:
            msg = self.recv()
            if msg.get("job") != job:
                continue
            events.append(msg["event"])
            if msg["event"] == "stdout":
                out += msg.get("text", "")
            elif msg["event"] == "stderr":
                err += msg.get("text", "")
            elif msg["event"] == "finished":
                return msg, out, err, events


def main():
    rficd, examples = sys.argv[1], sys.argv[2]
    tmpdir = tempfile.mkdtemp(prefix="rficd_smoke_")
    sock_path = os.path.join(tmpdir, "rfic.sock")

    daemon = subprocess.Popen(
        [rficd, "--socket", sock_path, "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        cli = Client(sock_path)

        with open(os.path.join(examples, "divider.cir")) as f:
            divider = f.read()
        with open(os.path.join(examples, "lpf.cir")) as f:
            lpf = f.read()

        # 1. Submit + full event stream with well-formed ordering.
        job = cli.submit(divider, label="divider")
        fin, out, err, events = cli.wait_finished(job)
        assert fin["exit"] == 0, fin
        assert not fin["cancelled"]
        assert events[0] == "started" and events[-1] == "finished", events
        assert "analysis" in events, events
        assert "* .op" in out, out[:200]
        assert err == "", err
        print(f"ok   submit/stream: job {job} exit 0, "
              f"{len(out)} stdout bytes")

        # 2. Repeat topology on a fresh connection: the shared engine's
        # context pool must serve a cache hit across connections.
        cli2 = Client(sock_path)
        job2 = cli2.submit(divider, label="divider-again")
        fin2, out2, _, _ = cli2.wait_finished(job2)
        assert fin2["exit"] == 0, fin2
        assert fin2.get("ctxHits", 0) >= 1, fin2
        assert out2 == out, "warm-context output differs from cold"
        print(f"ok   cross-connection cache hit: ctxHits="
              f"{fin2['ctxHits']}, bytes identical")

        # 3. Cancel a long-running job; daemon must stay healthy.
        heavy = ("V1 in 0 SIN(0 1 1k)\nR1 in out 1k\nC1 out 0 1u\n"
                 ".print out\n.tran 5e-8 1e-1\n")
        job3 = cli.submit(heavy, label="heavy")
        cli.send({"cmd": "cancel", "job": job3})
        # The cancel ack (connection thread) and the finished event
        # (worker thread) may land on the wire in either order; wait for
        # both so no stray ack leaks into the next command's replies.
        acked, fin3 = False, None
        while fin3 is None or not acked:
            msg = cli.recv()
            if msg.get("event") == "cancel":
                assert msg["ok"] is True, msg
                acked = True
            elif msg.get("job") == job3 and msg["event"] == "finished":
                fin3 = msg
        assert fin3["exit"] == 5 and fin3["cancelled"], fin3
        print("ok   cancel: exit 5, cancelled=true")

        # 4. status lists all jobs; result replays a finished one.
        cli.send({"cmd": "status"})
        seen = 0
        while True:
            msg = cli.recv()
            if msg.get("event") == "status-end":
                assert msg["jobs"] >= 2, msg  # this connection's jobs
                break
            assert msg.get("event") == "job", msg
            seen += 1
        assert seen >= 2, seen
        cli.send({"cmd": "result", "job": job})
        while True:
            msg = cli.recv()
            if msg.get("event") == "result":
                assert msg["job"] == job and msg["exit"] == 0, msg
                break
        print(f"ok   status ({seen} jobs) + result replay")

        # 5. Rejected submissions (empty netlist) get a reason, not a drop.
        cli.send({"cmd": "submit", "netlist": ""})
        msg = cli.recv()
        assert msg.get("event") == "rejected", msg
        cli.send({"cmd": "bogus"})
        msg = cli.recv()
        assert msg.get("event") == "error", msg
        print("ok   rejected/error paths answer instead of dropping")

        # 6. stats works; then submit a multi-analysis netlist to prove the
        # daemon survives everything above and still simulates correctly.
        cli.send({"cmd": "stats"})
        while True:
            msg = cli.recv()
            if msg.get("event") == "stats":
                assert msg.get("text"), msg
                for key in ("pooled", "probation", "poolEvictions",
                            "poolBytes"):
                    assert key in msg, (key, msg)
                assert msg["probation"] <= msg["pooled"] <= 16, msg
                break
        job4 = cli.submit(lpf, label="lpf")
        fin4, out4, _, _ = cli.wait_finished(job4)
        assert fin4["exit"] == 0 and ".tran" in out4, fin4
        print("ok   stats + post-abuse lpf run exit 0")

        # 7. Clean shutdown: bye, process exit 0, socket unlinked.
        cli.send({"cmd": "shutdown"})
        assert cli.recv().get("event") == "bye"
        rc = daemon.wait(timeout=60)
        assert rc == 0, f"daemon exit {rc}: {daemon.stderr.read()[:400]}"
        assert not os.path.exists(sock_path), "socket not unlinked"
        print("ok   shutdown: exit 0, socket unlinked")
        print("rficd_smoke: all checks passed")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.terminate()
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()


if __name__ == "__main__":
    sys.exit(main())
