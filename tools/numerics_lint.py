#!/usr/bin/env python3
"""Repo-specific numerics lint for the rfic library.

Statically enforces the project's numerics contracts — the rules that keep
the delicate kernels (matrix-implicit HB, Floquet/phase-noise, IES3) from
drifting into silent-wrong-answer territory:

  float-eq      No == / != between floating-point expressions in solver
                code. Exact-zero guards must go through
                rfic::diag::exactlyZero() so the intent is auditable;
                tolerance tests must use an explicit threshold.
  raw-new       No raw new / delete. The library owns memory through
                containers and smart pointers only.
  data-alias    No pointer captured from X.data() may be used after a
                subsequent X.resize()/push_back()/assign() in the same
                function — the classic invalidated-alias UB.
  entry-check   Every registered public solver entry point must validate
                its input dimensions (RFIC_REQUIRE / diag::check*) near the
                top of its body.
  status        Iterative-solver translation units must report structured
                convergence statuses (diag::SolverStatus), not bare bools.
  detached-thread
                Library code must not create std::thread directly — all
                parallelism goes through perf::ThreadPool (fixed workers,
                joined in the destructor, nested-inline safe). src/perf is
                the one sanctioned exception. `.detach()` is rejected
                everywhere, tests included: a detached thread outlives the
                state it captured.
  mutable-capture
                A `mutable` by-value lambda handed to a pool dispatch
                (parallelFor) gets copied per dispatch and mutates its own
                private copy — workspace handles silently diverge across
                workers. Capture workspaces by reference (the pool joins
                before the dispatch returns) or keep the lambda immutable.
  scalar-exp    No std::exp/std::expm1 in src/circuit device-evaluation
                code outside junction_kernels.hpp. The batched SoA engine
                and the scalar stamp walk are bitwise-identical only
                because both evaluate junction exponentials through the
                same shared inline kernels; a stray scalar exponential in a
                device file forks the implementations and silently breaks
                the --no-batch-eval golden-reference contract.
  sparse-hash   No std::unordered_map / unordered_set (or their multi
                forms) under src/sparse. The sparse layer works on flat
                index arrays: hash containers are slow on the analysis'
                access patterns, and their iteration order would make
                pivot tie-breaks depend on the standard library.
  counter-member
                perf::Counters lives only in src/perf. Elsewhere in the
                library a Counters data member or a Counters* / &
                parameter is a private counting path that mirrors
                perf::global() (and drifts from it); bump perf::global()
                and read totals from a CounterScope (perf::measured).
                Locals that a CounterScope installs are fine.
  text-stream   No std::istringstream / std::stringstream / std::getline
                in src/circuit or src/engine. Netlist text goes through
                circuit/lexer.hpp, the one lexer every pass over a job's
                text shares (preflight, card scan, topology key, parser):
                a second line loop re-reads the text with its own rules
                and drifts from the others.
  newton-loop   No chargeNewton( / FaultPoint::NanInResidual /
                FaultPoint::SingularJacobian under src/ outside the Newton
                kernel (src/diag/newton.hpp) and src/diag/resilience.*.
                Every Newton loop runs through diag::runNewton, which owns
                the per-iteration budget charge and the fault seams; a
                site that charges or fires them itself is a hand-rolled
                loop drifting from the kernel.

Escape hatch: append  // lint: allow-<rule>  to a flagged line when the
pattern is intentional (used sparingly; each use is visible in review).

Usage: numerics_lint.py [repo_root]   (exit 0 = clean, 1 = violations)
"""

import re
import sys
from pathlib import Path

LINT_DIRS = ("src", "tests", "bench", "examples")
CPP_EXTS = {".cpp", ".hpp", ".h", ".cc"}

# Solver translation units held to the strictest rules (float-eq applies
# only here; raw-new and data-alias apply everywhere).
SOLVER_DIRS = (
    "src/numeric",
    "src/sparse",
    "src/fft",
    "src/analysis",
    "src/hb",
    "src/mpde",
    "src/phasenoise",
    "src/rom",
    "src/extraction",
)

# (file, function signature regex) pairs: the function body must contain a
# dimension/argument validation within its first VALIDATION_WINDOW lines.
ENTRY_POINTS = [
    ("src/sparse/krylov.cpp", r"IterativeResult gmres\("),
    ("src/sparse/krylov.cpp", r"IterativeResult conjugateGradient\("),
    ("src/analysis/shooting.cpp", r"PSSResult shootingPSS\("),
    ("src/analysis/shooting.cpp", r"PSSResult shootingOscillatorPSS\("),
    ("src/analysis/dc.cpp", r"DCResult dcOperatingPoint\("),
    ("src/hb/harmonic_balance.cpp", r"HBSolution HarmonicBalance::solve\("),
    ("src/phasenoise/phase_noise.cpp",
     r"PhaseNoiseResult analyzeOscillatorPhaseNoise\("),
]
VALIDATION_RE = re.compile(r"RFIC_REQUIRE|RFIC_CHECK|diag::check")
VALIDATION_WINDOW = 12  # lines of body searched for the first validation

# Translation units that implement iterative solvers: each must mention the
# structured status type, and its matching header must carry a status field.
STATUS_UNITS = [
    ("src/sparse/krylov.cpp", "src/sparse/krylov.hpp"),
    ("src/analysis/shooting.cpp", "src/analysis/shooting.hpp"),
    ("src/analysis/dc.cpp", "src/analysis/dc.hpp"),
    ("src/hb/harmonic_balance.cpp", "src/hb/harmonic_balance.hpp"),
]

FLOAT_LIT = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
# A comparison where at least one side is an unambiguous float literal
# (contains a decimal point or an exponent). Integer literals are excluded:
# `n == 0` on a size_t is fine and ubiquitous.
FLOAT_ONLY_LIT = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
FLOAT_EQ_RE = re.compile(
    r"(?:" + FLOAT_ONLY_LIT + r"\s*[=!]=)|(?:[=!]=\s*" + FLOAT_ONLY_LIT + r")"
)
# Calls whose result is always floating point; comparing them with == / !=
# against anything is flagged.
FLOAT_CALL_EQ_RE = re.compile(
    r"(?:norm2|normInf|std::abs|std::norm|std::sqrt)\s*\([^()]*\)\s*[=!]=")

THREAD_RE = re.compile(r"\bstd::thread\b")
DETACH_RE = re.compile(r"[.>]\s*detach\s*\(\s*\)")
# A lambda whose capture list takes anything by value (capture-default `=`
# or a bare identifier) and whose body is marked `mutable`.
MUTABLE_LAMBDA_RE = re.compile(
    r"\[([^\]]*)\]\s*(?:\([^)]*\)\s*)?mutable\b")
POOL_DISPATCH_RE = re.compile(r"\bparallelFor\s*\(")
BY_VALUE_CAPTURE_RE = re.compile(r"(?:^|,)\s*(?:=|\w+\s*(?:,|$))")

SCALAR_EXP_RE = re.compile(r"\bstd::(?:exp|expm1)\s*\(")
HASH_CONTAINER_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")
TEXT_STREAM_RE = re.compile(
    r"\bstd::(?:istringstream|stringstream)\b|\bstd::getline\s*\(")
# Directories whose text handling goes through circuit/lexer.hpp.
TEXT_DIRS = ("src/circuit/", "src/engine/")

NEWTON_LOOP_RE = re.compile(
    r"\bchargeNewton\s*\(|\bFaultPoint::(?:NanInResidual|SingularJacobian)\b")
# The kernel and the budget / fault-point definitions it uses.
NEWTON_KERNEL_FILES = ("src/diag/newton.hpp", "src/diag/resilience.hpp",
                       "src/diag/resilience.cpp")

COUNTERS_RE = re.compile(r"\bperf::Counters\b(\s*[*&])?")

NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_:<]")
DELETE_RE = re.compile(r"(?<![\w.])delete(\[\])?\s+[A-Za-z_(*]")
DATA_CAPTURE_RE = re.compile(r"[*&]?\s*(\w+)\s*=\s*(\w+)\.data\(\)")
MUTATOR_RE = r"\.(?:resize|push_back|emplace_back|assign|clear|shrink_to_fit)\("


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line structure
    and any `lint: allow-...` directives (kept so per-line opt-outs work)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            comment = text[i:j]
            m = re.search(r"lint:\s*allow-[\w-]+", comment)
            out.append(" " * 2 + (m.group(0) if m else "") )
            out.append(" " * max(0, (j - i) - len(out[-1]) - 2))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            block = text[i:j + 2]
            out.append(re.sub(r"[^\n]", " ", block))
            i = j + 2
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            out.append(q + " " * max(0, j - i - 1) + (q if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def allowed(line, rule):
    return f"allow-{rule}" in line


def statement_head(clean, pos):
    """Text from the last `;`, `{` or `}` before pos up to pos."""
    j = max(clean.rfind(c, 0, pos) for c in ";{}")
    return clean[j + 1:pos]


def enclosing_block_head(clean, pos):
    """Head of the innermost brace block containing pos (the `class X`,
    `void f(...)` or `namespace n` before its `{`); "" at file scope."""
    depth = 0
    for i in range(pos - 1, -1, -1):
        if clean[i] == "}":
            depth += 1
        elif clean[i] == "{":
            if depth == 0:
                return statement_head(clean, i)
            depth -= 1
    return ""


def is_class_head(head):
    return ("(" not in head and not re.search(r"\benum\b", head)
            and re.search(r"\b(?:class|struct|union)\b", head) is not None)


class Linter:
    def __init__(self, root):
        self.root = Path(root)
        self.violations = []

    def flag(self, path, lineno, rule, msg):
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{lineno}: [{rule}] {msg}")

    def lint_file(self, path):
        raw = path.read_text()
        clean = strip_comments_and_strings(raw)
        lines = clean.splitlines()
        rel = str(path.relative_to(self.root))
        in_solver = any(rel.startswith(d) for d in SOLVER_DIRS)
        in_library = rel.startswith("src/")
        in_pool_impl = rel.startswith("src/perf")
        in_device_eval = (rel.startswith("src/circuit/")
                          and not rel.endswith("junction_kernels.hpp"))
        in_sparse = rel.startswith("src/sparse/")
        in_text = rel.startswith(TEXT_DIRS)
        in_newton_scope = in_library and rel not in NEWTON_KERNEL_FILES

        self.lint_pool_dispatches(path, clean, lines)
        if in_library and not in_pool_impl:
            self.lint_counter_members(path, clean, lines)

        data_aliases = []  # (ptr, container, lineno), reset at function end
        for num, line in enumerate(lines, 1):
            if re.match(r"^[})]", line):
                data_aliases = []

            # raw-new: applies everywhere.
            if not allowed(line, "raw-new"):
                if "operator new" not in line and NEW_RE.search(line):
                    self.flag(path, num, "raw-new",
                              "raw `new` — use containers or make_unique/"
                              "make_shared")
                if ("operator delete" not in line and "= delete" not in line
                        and DELETE_RE.search(line)):
                    self.flag(path, num, "raw-new",
                              "raw `delete` — ownership must be automatic")

            # data-alias: pointer from .data() used across a reallocation.
            m = DATA_CAPTURE_RE.search(line)
            if m:
                data_aliases.append((m.group(1), m.group(2), num))
            for ptr, cont, where in data_aliases:
                if re.search(r"\b" + re.escape(cont) + MUTATOR_RE, line) \
                        and not allowed(line, "data-alias"):
                    self.flag(path, num, "data-alias",
                              f"`{cont}` reallocated while `{ptr}` (from "
                              f"{cont}.data() at line {where}) may still "
                              "alias its old buffer")

            # float-eq: solver code only.
            if in_solver and not allowed(line, "float-eq") \
                    and "operator==" not in line and "operator!=" not in line:
                if FLOAT_EQ_RE.search(line) or FLOAT_CALL_EQ_RE.search(line):
                    self.flag(path, num, "float-eq",
                              "floating-point == / != — use an explicit "
                              "tolerance or diag::exactlyZero()")

            # scalar-exp: junction exponentials belong in the shared
            # kernels header, where both evaluation paths inline them.
            if in_device_eval and not allowed(line, "scalar-exp") \
                    and SCALAR_EXP_RE.search(line):
                self.flag(path, num, "scalar-exp",
                          "scalar std::exp in device-eval code — move the "
                          "expression into junction_kernels.hpp so the "
                          "batched and scalar paths share one bitwise "
                          "implementation")

            # sparse-hash: the sparse layer keeps flat index structures.
            if in_sparse and not allowed(line, "sparse-hash") \
                    and HASH_CONTAINER_RE.search(line):
                self.flag(path, num, "sparse-hash",
                          "hash container in the sparse layer — use flat "
                          "index arrays (row/column lists, a dense scatter "
                          "array)")

            # text-stream: netlist text goes through the one lexer.
            if in_text and not allowed(line, "text-stream") \
                    and TEXT_STREAM_RE.search(line):
                self.flag(path, num, "text-stream",
                          "stream line handling in src/circuit or "
                          "src/engine — split the text with "
                          "circuit/lexer.hpp (LineReader, CardReader, "
                          "nextWord, spiceTokens)")

            # newton-loop: budget charges and Newton fault seams belong to
            # the kernel.
            if in_newton_scope and not allowed(line, "newton-loop") \
                    and NEWTON_LOOP_RE.search(line):
                self.flag(path, num, "newton-loop",
                          "Newton budget charge or fault point outside "
                          "diag/newton.hpp — run the loop through "
                          "diag::runNewton (it charges each iteration and "
                          "hands the call site its fault seams)")

            # detached-thread: raw std::thread in library code (src/perf is
            # the sanctioned owner); .detach() everywhere.
            if not allowed(line, "detached-thread"):
                if in_library and not in_pool_impl and THREAD_RE.search(line):
                    self.flag(path, num, "detached-thread",
                              "raw std::thread in library code — use "
                              "perf::ThreadPool (fixed workers, joined in "
                              "the destructor)")
                if DETACH_RE.search(line):
                    self.flag(path, num, "detached-thread",
                              "detached thread — it outlives the state it "
                              "captured; join instead")

    def lint_pool_dispatches(self, path, clean, lines):
        """mutable-capture: scan the argument window of every parallelFor
        call for a `mutable` lambda with by-value captures. Whole-text scan
        because the lambda usually starts a line or two below the call."""
        for m in POOL_DISPATCH_RE.finditer(clean):
            window = clean[m.end():m.end() + 600]
            lm = MUTABLE_LAMBDA_RE.search(window)
            if not lm:
                continue
            captures = lm.group(1)
            if not BY_VALUE_CAPTURE_RE.search(captures):
                continue  # reference-only captures: mutable is harmless
            lineno = clean[:m.end() + lm.start()].count("\n") + 1
            if allowed(lines[lineno - 1], "mutable-capture"):
                continue
            self.flag(path, lineno, "mutable-capture",
                      "mutable by-value lambda dispatched to the pool — "
                      "each worker mutates a private copy, so workspace "
                      "state diverges; capture by reference or drop "
                      "`mutable`")

    def lint_counter_members(self, path, clean, lines):
        """counter-member: a perf::Counters data member, or a pointer /
        reference to one in a parameter list."""
        for m in COUNTERS_RE.finditer(clean):
            lineno = clean[:m.start()].count("\n") + 1
            if allowed(lines[lineno - 1], "counter-member"):
                continue
            head = statement_head(clean, m.start())
            if m.group(1) and head.count("(") > head.count(")"):
                self.flag(path, lineno, "counter-member",
                          "perf::Counters pointer/reference parameter — "
                          "bump perf::global() once instead of a second "
                          "counter")
            elif not m.group(1) and is_class_head(
                    enclosing_block_head(clean, m.start())):
                self.flag(path, lineno, "counter-member",
                          "perf::Counters data member — bump perf::global() "
                          "and read totals from a CounterScope "
                          "(perf::measured)")

    def lint_entry_points(self):
        for rel, sig in ENTRY_POINTS:
            path = self.root / rel
            if not path.exists():
                self.flag(path if path.is_absolute() else self.root / rel, 1,
                          "entry-check", f"registered entry point file "
                          f"{rel} is missing")
                continue
            text = strip_comments_and_strings(path.read_text())
            lines = text.splitlines()
            found_sig = False
            for i, line in enumerate(lines):
                if re.search(sig, line):
                    found_sig = True
                    body = "\n".join(lines[i:i + VALIDATION_WINDOW])
                    if not VALIDATION_RE.search(body):
                        self.flag(path, i + 1, "entry-check",
                                  f"solver entry point `{sig}` does not "
                                  "validate its inputs (RFIC_REQUIRE / "
                                  "diag::check*) near the top of its body")
                    break
            if not found_sig:
                self.flag(path, 1, "entry-check",
                          f"expected entry point matching `{sig}` not found "
                          "(update ENTRY_POINTS if it moved)")

    def lint_status(self):
        for cpp_rel, hpp_rel in STATUS_UNITS:
            cpp, hpp = self.root / cpp_rel, self.root / hpp_rel
            if cpp.exists() and "SolverStatus" not in cpp.read_text():
                self.flag(cpp, 1, "status",
                          "iterative solver does not set a structured "
                          "diag::SolverStatus")
            if hpp.exists() and not re.search(
                    r"SolverStatus\s+status", hpp.read_text()):
                self.flag(hpp, 1, "status",
                          "solver result struct lacks a "
                          "`diag::SolverStatus status` field")

    def run(self):
        for d in LINT_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix in CPP_EXTS and path.is_file():
                    self.lint_file(path)
        self.lint_entry_points()
        self.lint_status()
        return self.violations


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    violations = Linter(root).run()
    if violations:
        print(f"numerics_lint: {len(violations)} violation(s)")
        for v in violations:
            print("  " + v)
        return 1
    print("numerics_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
