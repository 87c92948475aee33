"""Alternating parent/change pairs of one benchmark workload, with a verdict.

    python scripts/ab_pairs.py --base ../parent --change . \
        --workload cluster_fresh_5t --seed 17 --pairs 10 --seconds 14

Runs ``benchmarks/perf/run.py --workload W --seed S --seconds T`` in each
checkout (the parent can be a ``git worktree`` or a ``git archive`` of
the parent commit), alternating which side runs first, and reads each
run's final JSON line.  A run whose line says ``correct: false`` or
``failed > 0``, or that exits non-zero, stops the script: its numbers
are not evidence.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the change's win count and a verdict by the
carried-forward rules:

- ``gain``: the change wins at least 9/10 of the pairs (ties count for
  neither) and its median beats the parent's by more than the parent's
  interquartile range;
- ``worse past bound``: the change's median is worse than the parent's
  by more than the metric's ``bound`` (a fraction of the parent median);
- ``unresolved``: either side's interquartile range exceeds ``bound``
  of the parent median, unless every change run beats every parent run;
- ``within bound``: none of the above.

With ``--trace 1`` the runs report per-layer metrics instead; those have
no bound, so only ``gain`` or ``no gain`` is printed.  ``--out FILE``
appends every run's line, tagged with its side and pair, as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(base: Sequence[float], change: Sequence[float],
         better: str) -> int:
    """Pairs in which the change reads strictly better."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    """Judge one metric's paired runs (see the module docstring)."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    b1, b_median, b3 = quartiles(base)
    c1, c_median, c3 = quartiles(change)
    gap = sign * (c_median - b_median)  # > 0: the change is better
    if 10 * wins(base, change, better) >= 9 * len(base) and gap > b3 - b1:
        return "gain"
    if bound is None:
        return "no gain"
    scale = abs(b_median) or 1.0
    if -gap / scale > bound:
        return "worse past bound"
    every_run_better = min(sign * c for c in change) > max(
        sign * b for b in base
    )
    if max(b3 - b1, c3 - c1) / scale > bound and not every_run_better:
        return "unresolved"
    return "within bound"


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> Dict:
    """One benchmark run in ``checkout``; its result line, checked."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}  # each checkout imports its own src
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) > 0:
        raise SystemExit(
            f"{checkout}: refused run (correct={result.get('correct')}, "
            f"failed={result.get('failed')}): {lines[-1]}"
        )
    return result


def report(runs: Dict[str, List[Dict]], declared: Sequence[Dict]) -> str:
    """The per-metric table over both sides' runs."""
    rows = [f"{'metric':<44}{'parent q1/med/q3':>26}"
            f"{'change q1/med/q3':>26}{'wins':>7}  verdict"]
    pairs = len(runs["base"])
    for metric in declared:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        judged = verdict(base, change, metric["better"], metric.get("bound"))
        cells = []
        for values in (base, change):
            q1, median, q3 = quartiles(values)
            cells.append(f"{q1:.4g}/{median:.4g}/{q3:.4g}")
        rows.append(
            f"{name:<44}{cells[0]:>26}{cells[1]:>26}"
            f"{wins(base, change, metric['better']):>4}/{pairs:<2}  {judged}"
        )
    return "\n".join(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append every run's result line here")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs: Dict[str, List[Dict]] = {"base": [], "change": []}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed,
                              args.seconds, args.trace)
            runs[side].append(result)
            if args.out is not None:
                with args.out.open("a") as out:
                    out.write(json.dumps({
                        "side": side, "pair": pair,
                        "workload": args.workload, "seed": args.seed,
                        "trace": args.trace, **result,
                    }) + "\n")
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{args.seconds:g} s windows")
    print(report(runs, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
