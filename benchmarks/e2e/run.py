"""End-to-end benchmark of the ``repro`` CLI and query server.

One workload, as the harness calls it (the last stdout line is the
result as JSON)::

    python benchmarks/e2e/run.py --workload cli-cold --seed 3 --seconds 20 --trace 0

Every workload, each once untraced and once traced, with a summary::

    python benchmarks/e2e/run.py

Run-to-run spread of each end-to-end metric next to its bound, from N
untraced runs per workload on seeds ``seed .. seed+N-1``::

    python benchmarks/e2e/run.py --repeat 2 --trace 0

Run it from the repository root.  Workloads, metrics and their bounds
are defined in ``BENCHMARK.json``; ``README.md`` explains them.  With
``--trace 0`` the result carries the ``end_to_end`` metrics, with
``--trace 1`` the ``per_layer`` ones.  The exit code is non-zero when an
output check fails or the program is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"


def _print_metrics(title: str, specs: list[dict], values: dict) -> None:
    print(title)
    for spec in specs:
        value, samples = values[spec["name"]]
        print(f"  {spec['name']:32s} {value:14.6g} {spec['unit']:8s} n={samples}")


def run_one(args, spec: dict) -> int:
    from workloads import run_workload

    # Byte-compile up front, untimed, so the first run in a fresh
    # checkout does not time the compiler.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/repro"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    trace = args.trace == 1
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    print(f"== {args.workload} (seed {args.seed}, {args.seconds:g} s{', traced' if trace else ''})")
    print("\n".join(result.lines))
    _print_metrics("end-to-end (untraced run)", spec["end_to_end"], result.end_to_end)
    if trace:
        _print_metrics("per-layer (traced run)", spec["per_layer"], result.per_layer)
    tally = result.tally
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    chosen = result.per_layer if trace else result.end_to_end
    metrics = {
        m["name"]: {"value": chosen[m["name"]][0], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _spread(values: list[float]) -> float | None:
    """Quartile distance over the median (range for fewer than 4 runs)."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / median
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / median


def run_suite(args, spec: dict) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    repeat = args.repeat or 1
    status = 0

    def child(name: str, seed: int, trace: int) -> dict | None:
        nonlocal status
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            return json.loads(lines[-1])["metrics"] if lines else None
        except (ValueError, KeyError):
            return None

    summary = []
    for name in names:
        runs = [child(name, args.seed + i, 0) for i in range(repeat)]
        runs = [run for run in runs if run is not None]
        for metric in spec["end_to_end"]:
            values = [run[metric["name"]]["value"] for run in runs]
            if values:
                summary.append((name, metric, values, _spread(values)))
        if args.trace != 0:
            child(name, args.seed, 1)
    print(f"\nsummary: {repeat} untraced run(s) per workload, seeds {args.seed}..{args.seed + repeat - 1}")
    print(f"  {'workload':11s} {'metric':17s} {'unit':5s} {'median':>11s} {'spread':>7s} {'bound':>6s}")
    for name, metric, values, spread in summary:
        shown = "-" if spread is None else f"{spread:.1%}"
        verdict = "" if spread is None or spread <= metric["bound"] / 3 else "  above a third of the bound"
        print(
            f"  {name:11s} {metric['name']:17s} {metric['unit']:5s} "
            f"{statistics.median(values):11.5g} {shown:>7s} {metric['bound']:6.0%}{verdict}"
        )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="one workload from BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: traced rerun, per-layer metrics; 0: untraced only")
    parser.add_argument("--repeat", type=int, default=None,
                        help="untraced runs per workload, reported with their spread")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no repro source tree and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload is not None and args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is not None and args.repeat is None:
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
