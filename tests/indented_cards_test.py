#!/usr/bin/env python3
"""rficsim and rficd read an indented netlist alike.

A card's class comes from its first non-blank byte in every pass over the
text (rficd's preflight, the engine's card scan and topology key, the
parser), so a tab-indented `.op`, a blank-indented comment and an indented
`.print` are a control card, a comment and a print card to both programs.
The test runs such a netlist through `rficsim -` and through a real rficd
on a temporary unix socket, and requires exit 0 from both with the same
output bytes.

Usage: indented_cards_test.py <rficsim> <rficd>
"""

import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from rficd_smoke import Client  # noqa: E402

NETLIST = ("* divider with indented cards\n"
           "V1 in 0 DC 2\n"
           "  * a comment indented by blanks\n"
           "R1 in out 1k\n"
           "\tR2 out 0 1k\n"
           " \t.print out\n"
           "\t.op\n")


def main():
    rficsim, rficd = sys.argv[1], sys.argv[2]
    sim = subprocess.run([rficsim, "-"], input=NETLIST.encode(),
                         capture_output=True, timeout=60)
    assert sim.returncode == 0, (sim.returncode, sim.stderr)
    assert b"* .op" in sim.stdout, sim.stdout
    print(f"ok   rficsim: exit 0, {len(sim.stdout)} stdout bytes")

    tmpdir = tempfile.mkdtemp(prefix="rfic_indented_")
    sock_path = os.path.join(tmpdir, "rfic.sock")
    daemon = subprocess.Popen([rficd, "--socket", sock_path, "--workers", "1"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        cli = Client(sock_path)
        job = cli.submit(NETLIST, label="indented")
        fin, out, err, _ = cli.wait_finished(job)
        assert fin["exit"] == 0, fin
        assert err == "", err
        assert out.encode() == sim.stdout, (out, sim.stdout)
        print("ok   rficd: exit 0, output identical to rficsim")
        cli.send({"cmd": "shutdown"})
        assert daemon.wait(timeout=30) == 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
