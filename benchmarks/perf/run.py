"""The Thetis serving benchmark: one command, every metric by name.

    python -m benchmarks.perf.run --seed 17            # all four workloads
    python -m benchmarks.perf.run --seed 17 --smoke    # small and quick
    python -m benchmarks.perf.run --seed 17 --repeat-check

and, as ``BENCHMARK.json`` declares it, one workload at a time:

    python3 benchmarks/perf/run.py --workload entity_hot_1t --seed 3 \\
        --seconds 10 --trace 0

which ends with one JSON line: the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks.perf: no src/repro under {ROOT}; nothing to measure")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import metrics  # noqa: E402
from benchmarks.perf.oracle import Oracle  # noqa: E402
from benchmarks.perf.workloads import (  # noqa: E402
    FULL, SMOKE, WORKLOADS, Lake, Run, Scale, execute, generate_lake, plan,
    timed,
)

#: Scratch space; inside the checkout because the benchmark may write
#: nowhere else.  Removed when the command ends.
SCRATCH = ROOT / ".perf_tmp"

Values = Dict[str, Optional[float]]


class Measured:
    """The numbers of one workload: an untraced run, maybe a traced one."""

    def __init__(self, untraced: Run, traced: Optional[Run],
                 lake: Lake) -> None:
        self.runs = [run for run in (untraced, traced) if run is not None]
        self.end_to_end: Values = dict(metrics.end_to_end(
            untraced.window, untraced.setup_times, untraced.peak_rss_mb))
        self.per_layer: Values = {}
        if traced is not None:
            self.per_layer.update(metrics.counters(
                untraced.window, untraced.before, untraced.after,
                lake.build_s, len(lake.tables)))
            self.per_layer.update(metrics.spans(
                traced.trace, traced.window,
                metrics.search_p50_ms(untraced.window)))
        self.searches = sum(
            1 for s in untraced.window.samples if s.request.path == "/search")

    @property
    def attempted(self) -> int:
        return sum(run.attempted for run in self.runs)

    @property
    def failed(self) -> int:
        return sum(run.failed for run in self.runs)


def measure(name: str, lake: Lake, oracle: Oracle, seed: int, scale: Scale,
            trace_factor: Optional[float], workdir: Path) -> Measured:
    untraced = execute(plan(name, lake, seed, scale), lake, oracle, workdir,
                       setups=scale.setups)
    traced = None
    if trace_factor is not None:
        traced = execute(
            plan(name, lake, seed, scale.shrunk(trace_factor)),
            lake, oracle, workdir, traced=True)
    return Measured(untraced, traced, lake)


def report(name: str, measured: Measured) -> None:
    """Print the phases and every metric of one workload, by name."""
    print(f"workload {name}: {WORKLOADS[name]}")
    for run in measured.runs:
        kind = "traced" if run.trace is not None else "untraced"
        for phase, (sent, failed) in run.phases.items():
            print(f"  phase {kind} {phase}: sent {sent} ok {sent - failed} "
                  f"failed {failed}")
    print(f"  samples: {measured.searches} searches in the measured window")
    for group in (measured.end_to_end, measured.per_layer):
        for metric, value in group.items():
            if value is None:
                print(f"  warning: {metric} omitted (probe not resolved)")
            else:
                print(f"metric {name} {metric} {value:.6g} "
                      f"{metrics.UNITS[metric]}")
    sys.stdout.flush()


def run_set(names: Sequence[str], seed: int, scale: Scale,
            trace_factor: Optional[float]) -> Dict[str, Measured]:
    """Generate the lake once, then measure each named workload on it."""
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        lake = generate_lake(seed, scale, workdir / "lake")
        oracle = Oracle(lake.directory)
        results = {}
        for name in names:
            results[name] = measure(name, lake, oracle, seed, scale,
                                    trace_factor, workdir)
            report(name, results[name])
        return results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()


def result_line(measured: Measured, traced: bool) -> str:
    """The contract's last line: correct / attempted / failed / metrics."""
    group = measured.per_layer if traced else measured.end_to_end
    return json.dumps({
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            # An unresolved probe has no number; the contract wants every
            # declared name, so it reports 0 (and a warning above).
            name: {"value": value or 0.0, "unit": metrics.UNITS[name]}
            for name, value in group.items()
        },
    })


def repeat_check(seed: int, scale: Scale) -> int:
    """Two full sets; fail where a pair differs by more than its bound."""
    first = run_set(list(WORKLOADS), seed, scale, None)
    second = run_set(list(WORKLOADS), seed, scale, None)
    worst = 0
    print(f"{'workload':<18}{'metric':<16}{'run 1':>12}{'run 2':>12}"
          f"{'change':>9}{'bound':>7}")
    for name in WORKLOADS:
        for metric, _unit, _better, bound in metrics.END_TO_END:
            a = first[name].end_to_end[metric]
            b = second[name].end_to_end[metric]
            change = abs(b - a) / a if a else float("inf")
            flag = "" if change <= bound else "  FAIL"
            worst += bool(flag)
            print(f"{name:<18}{metric:<16}{a:>12.5g}{b:>12.5g}"
                  f"{change:>9.3f}{bound:>7.2f}{flag}")
    return 1 if worst else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.run", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload and end with the "
                             "result line BENCHMARK.json describes")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured window (--workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics (--workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="200-table lake, 5 s / 60-request windows")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run every workload twice and compare")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload:
        if args.smoke:
            scale = SMOKE
        elif args.trace:
            # Half the time untraced (the reference the overhead is
            # measured against, and the counters), half traced.
            scale = timed(args.seconds / 2.0, setups=1)
        else:
            scale = timed(args.seconds)
        factor = 1.0 if args.trace else None
        measured = run_set([args.workload], args.seed, scale,
                           factor)[args.workload]
        print(result_line(measured, bool(args.trace)))
        return 0
    scale = SMOKE if args.smoke else FULL
    if args.repeat_check:
        return repeat_check(args.seed, scale)
    results = run_set(list(WORKLOADS), args.seed, scale,
                      0.5 if args.smoke else 0.25)
    failed = sum(measured.failed for measured in results.values())
    print(f"{len(results)} workloads, oracle parity held on all, "
          f"{failed} failed requests")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
