#!/usr/bin/env python3
"""Compare fresh bench JSON artifacts against the committed baselines.

Usage:
    python3 tools/bench_compare.py [--fresh DIR] [--baseline DIR]
                                   [--threshold PCT]

Each BENCH_<name>.json in the baseline directory (default bench/baseline/)
is matched against the file of the same name in the fresh directory
(default: the current working directory, where the benches write their
artifacts). Numeric keys are diffed; wall-clock keys (ending in `_s` or
`_ns`) get a ratio column and are flagged when they regress by more than
the threshold (default 25%).

Work-count keys (suffixes in WORK_COUNT_SUFFIXES: evaluations and
evaluation reuses, factorizations, refactorizations and refactor skips, Newton/GMRES
iterations, transforms, workspace growth events, fill and the symbolic
analysis's supernode steps and flops — which depend only on the pattern
and the pivots) are
machine-independent, so they GATE: the exit code is 1 when one differs
from its baseline while both files ran in the same quick mode. Benches in
SCHEDULING_DEPENDENT are exempt (their counts follow thread scheduling).
Wall-clock keys stay informational — bench machines differ. Exit code 2
means unreadable inputs. Refresh a baseline by copying a representative
BENCH_*.json over bench/baseline/ and committing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


WORK_COUNT_SUFFIXES = (".evals", ".eval_reuses", ".factorizations",
                       ".refactorizations", ".refactor_skips", ".newton",
                       ".gmres", ".fft_count", ".fill", ".factor_fill_nnz",
                       ".workspace_growth", ".supernode_steps",
                       ".supernode_flops")
SCHEDULING_DEPENDENT = {"BENCH_daemon_throughput.json"}


def is_work_count(key: str) -> bool:
    return key.endswith(WORK_COUNT_SUFFIXES)


def load(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_file(base_path: Path, fresh_path: Path,
                 threshold: float) -> tuple[int, int]:
    """Print the comparison; return (wall-clock regressions, count drifts)."""
    base = load(base_path)
    fresh = load(fresh_path)
    regressions = 0
    drifts = 0
    print(f"\n== {base_path.name} ==")
    same_mode = base.get("quick") == fresh.get("quick")
    gated = same_mode and base_path.name not in SCHEDULING_DEPENDENT
    if not same_mode:
        print(f"  note: quick-mode mismatch (baseline quick={base.get('quick')}, "
              f"fresh quick={fresh.get('quick')}) — ratios are not comparable "
              f"and work counts are not gated")
    rows = []
    for key, bval in base.items():
        if key in ("bench", "quick"):
            continue
        fval = fresh.get(key)
        counted = gated and is_work_count(key)
        if fval is None:
            mark = ""
            if counted:
                mark = "COUNT DRIFT (missing)"
                drifts += 1
            rows.append((key, bval, "(missing)", mark))
            continue
        if not (is_number(bval) and is_number(fval)):
            mark = "" if bval == fval else "changed"
            rows.append((key, bval, fval, mark))
            continue
        timed = key.endswith("_s") or key.endswith("_ns")
        if timed and bval > 0:
            ratio = fval / bval
            mark = f"{ratio:6.2f}x"
            if ratio > 1.0 + threshold / 100.0:
                mark += f"  REGRESSION (> {threshold:g}%)"
                regressions += 1
            elif ratio < 1.0 - threshold / 100.0:
                mark += "  improved"
            rows.append((key, f"{bval:.6g}", f"{fval:.6g}", mark))
        else:
            mark = "" if bval == fval else "changed"
            if counted and bval != fval:
                mark = "COUNT DRIFT"
                drifts += 1
            rows.append((key, bval, fval, mark))
    new_keys = sorted(set(fresh) - set(base) - {"bench", "quick"})
    for key in new_keys:
        rows.append((key, "(new)", fresh[key], ""))
    width = max((len(r[0]) for r in rows), default=10)
    for key, bval, fval, mark in rows:
        print(f"  {key:<{width}}  {str(bval):>14}  {str(fval):>14}  {mark}")
    return regressions, drifts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", default=".",
                    help="directory holding fresh BENCH_*.json (default: cwd)")
    ap.add_argument("--baseline", default="bench/baseline",
                    help="directory holding committed baselines")
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="wall-clock regression flag threshold in percent")
    args = ap.parse_args()

    base_dir = Path(args.baseline)
    fresh_dir = Path(args.fresh)
    baselines = sorted(base_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {base_dir}", file=sys.stderr)
        return 2

    total = 0
    drifts = 0
    compared = 0
    for base_path in baselines:
        fresh_path = fresh_dir / base_path.name
        if not fresh_path.exists():
            print(f"\n== {base_path.name} ==\n  fresh artifact not found "
                  f"in {fresh_dir} — run the bench first")
            continue
        try:
            regressions, drifted = compare_file(base_path, fresh_path,
                                                args.threshold)
            total += regressions
            drifts += drifted
            compared += 1
        except (OSError, json.JSONDecodeError) as e:
            print(f"cannot compare {base_path.name}: {e}", file=sys.stderr)
            return 2

    print(f"\n{compared}/{len(baselines)} benches compared; "
          f"{total} wall-clock regression(s) over {args.threshold:g}% "
          f"(informational, non-gating); {drifts} work-count drift(s) "
          f"(gating)")
    return 1 if drifts else 0


if __name__ == "__main__":
    sys.exit(main())
