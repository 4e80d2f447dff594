"""Seeded netlist generators for the benchmark workloads.

Every generated circuit is a scaled copy of one fixed base circuit. A job
draws an impedance scale `a` (R -> aR, C -> C/a, MOSFET KP -> KP/a) and,
for harmonic balance, a time scale `s` (C -> C/s, frequencies -> s*f).
Neither scale changes any node voltage as a function of phase, so every
job has one stored reference output and the same work counts, while its
element values -- and so its topology key -- are new. Transients are not
time-scaled: a rescaled step and stop time need not divide into the same
number of steps.
"""

import random

def fmt(x):
    return f"{x:.9g}"


def mixer(a=1.0, s=1.0):
    """The double-balanced MOSFET switching mixer of bench/mixer_circuit.hpp
    (RF 1 MHz, LO 10 MHz) without its cubic RF-path conductance, which has
    no netlist card."""
    r = lambda ohm: fmt(ohm * a)
    c = lambda farad: fmt(farad / (a * s))
    f = lambda hz: fmt(hz * s)
    return "\n".join([
        "* double-balanced MOSFET switching mixer",
        f"Vrfp rfsp 0 SIN(0 0.05 {f(1e6)})",
        f"Vrfm rfsm 0 SIN(0 0.05 {f(1e6)} 180)",
        f"Rsp rfsp rfp {r(200)}",
        f"Rsm rfsm rfm {r(200)}",
        f"Crfp rfp 0 {c(2e-13)}",
        f"Crfm rfm 0 {c(2e-13)}",
        f"Vlop lop 0 SQUARE(0 3 {f(1e7)} 0.08) AXIS=FAST",
        f"Vlom lom 0 SQUARE(3 0 {f(1e7)} 0.08) AXIS=FAST",
        "M1 outp lop rfp SW",
        "M2 outm lom rfp SW",
        "M3 outp lom rfm SW",
        "M4 outm lop rfm SW",
        f"Rlp outp 0 {r(1000)}",
        f"Rlm outm 0 {r(1000)}",
        f"Clp outp 0 {c(2e-13)}",
        f"Clm outm 0 {c(2e-13)}",
        f".model SW NMOS (VTO=0.7 KP={fmt(8e-3 / a)} LAMBDA=0)",
        ".print outp outm",
        ".op",
        f".hb {f(1e6)} 3 {f(1e7)} 9",
        "",
    ])


def mesh(size, analysis, a=1.0):
    """RC grid of size*size nodes, driven at one corner and printed at the
    other. The relative value spread is fixed (it is drawn from a constant
    seed); `a` scales the impedances as described above."""
    rng = random.Random(size)
    lines = [f"* RC mesh {size}x{size}", "V1 n0_0 0 SIN(0 1 1meg)"]
    for i in range(size):
        for j in range(size):
            if j + 1 < size:
                lines.append(f"Rh{i}_{j} n{i}_{j} n{i}_{j + 1} "
                             f"{fmt(100 * rng.uniform(0.75, 1.25) * a)}")
            if i + 1 < size:
                lines.append(f"Rv{i}_{j} n{i}_{j} n{i + 1}_{j} "
                             f"{fmt(100 * rng.uniform(0.75, 1.25) * a)}")
            lines.append(f"Cg{i}_{j} n{i}_{j} 0 "
                         f"{fmt(1e-12 * rng.uniform(0.75, 1.25) / a)}")
    lines.append(f".print n{size - 1}_{size - 1}")
    lines.append(".tran 0.1u 2u" if analysis == "tran" else
                 ".ac dec 2 1k 1meg")
    lines.append("")
    return "\n".join(lines)


# The repeat-topology jobs of the daemon mix: fixed netlists (the circuits
# of examples/netlists), so every submission after the first hits the
# engine's context cache while the cache keeps them.
LPF = """* First-order RC low-pass driven by a 1 kHz sine
V1 in 0 SIN(0 1 1k)
R1 in out 1k
C1 out 0 1u
.print out
.op
.tran 10u 5m
"""

DIODE_HB = """* Diode rectifier pumped at 1 MHz: single-tone harmonic balance
V1 in 0 SIN(0 0.8 1meg)
R1 in a 50
D1 a out DM
R2 out 0 1k
C1 out 0 10n
.model DM D (IS=1e-14 N=1.2)
.print out
.op
.hb 1meg 7
"""

RC_AC = """* RC low-pass: AC magnitude/phase sweep and output noise
V1 in 0 SIN(0 1 1k)
R1 in out 10k
C1 out 0 1n
.print out
.op
.ac dec 5 1e2 1e6
.noise out dec 5 1e2 1e6
"""


def draw_scale(rng, spread):
    """A scale factor, log-uniform in [1/spread, spread]."""
    return spread ** rng.uniform(-1, 1)
