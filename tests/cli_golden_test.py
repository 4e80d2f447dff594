#!/usr/bin/env python3
"""Golden-output test for the rficsim CLI.

The engine refactor promises that rficsim stays a byte-compatible thin
client: same stdout, same stderr, same exit codes as the monolithic
binary. This runs every example netlist and compares against committed
golden captures, then checks the documented error exit codes.

Every golden must also come out byte-identical under each flag set in
FLAG_MATRIX: the pivot ordering, the worker-thread count and the scalar
device walk change how the work is done, never the printed result.

Usage: cli_golden_test.py <rficsim> <examples_dir> <golden_dir>
"""

import subprocess
import sys
import tempfile
import os

# Flag sets every golden is checked under (the first is the default run).
FLAG_MATRIX = (
    [],
    ["--ordering", "natural"],
    ["--ordering", "amd"],
    ["--threads", "1"],
    ["--threads", "4"],
    ["--no-batch-eval"],
    ["--ordering", "natural", "--threads", "4", "--no-batch-eval"],
)


def run(binary, args):
    return subprocess.run([binary] + args, capture_output=True, timeout=300)


def main():
    binary, examples, golden = sys.argv[1], sys.argv[2], sys.argv[3]
    failures = []

    for name in ("divider", "lpf", "rc_ac", "diode_hb"):
        cir = os.path.join(examples, name + ".cir")
        with open(os.path.join(golden, name + ".out"), "rb") as f:
            want = f.read()
        for flags in FLAG_MATRIX:
            label = " ".join([name] + flags)
            p = run(binary, flags + [cir])
            if p.returncode != 0:
                failures.append(f"{label}: exit {p.returncode} (want 0); "
                                f"stderr={p.stderr[:200]!r}")
            elif p.stdout != want:
                failures.append(f"{label}: stdout differs from golden "
                                f"({len(p.stdout)} vs {len(want)} bytes)")
            elif p.stderr != b"":
                failures.append(f"{label}: unexpected stderr "
                                f"{p.stderr[:200]!r}")
            else:
                print(f"ok   {label}: {len(want)} bytes byte-identical, "
                      f"exit 0")

    # Error-path contract: exit 2 for usage-class mistakes, with a
    # diagnostic naming the offending node (the old code walked off the
    # node table instead).
    cases = [
        ("unknown .print node", "R1 a 0 1k\n.print nosuch\n.op\n", 2,
         b"unknown node 'nosuch'"),
        ("ground .print node", "R1 a 0 1k\n.print 0\n.op\n", 2, b"ground"),
        ("no analysis cards", "R1 a 0 1k\n", 2, b"no analysis cards"),
        ("parse error with line info",
         "V1 in 0 DC 5\nR1 in out notanumber\n.op\n", 1, b"line 2"),
    ]
    for label, netlist, wantrc, needle in cases:
        with tempfile.NamedTemporaryFile(
                "w", suffix=".cir", delete=False) as f:
            f.write(netlist)
            path = f.name
        try:
            p = run(binary, [path])
            if p.returncode != wantrc:
                failures.append(f"{label}: exit {p.returncode} "
                                f"(want {wantrc})")
            elif needle not in p.stderr:
                failures.append(f"{label}: stderr {p.stderr[:200]!r} "
                                f"missing {needle!r}")
            else:
                print(f"ok   {label}: exit {wantrc}, diagnostic present")
        finally:
            os.unlink(path)

    # Usage text still goes to stderr with exit 1 when no file is given
    # (the seed binary's behavior, kept bit-for-bit).
    p = run(binary, [])
    if p.returncode != 1 or b"usage:" not in p.stderr:
        failures.append(f"no-args usage: exit {p.returncode}, "
                        f"stderr={p.stderr[:120]!r}")
    else:
        print("ok   no-args usage: exit 1")

    if failures:
        print("\nFAILURES:")
        for f in failures:
            print("  " + f)
        return 1
    print("cli_golden_test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
