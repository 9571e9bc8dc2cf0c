"""Collect bench runs into one JSON list, a point of the benchmark trajectory.

Collect (the JSON list goes to stdout):

    python3 tools/bench_trajectory.py [--tree NAME=DIR ...] [--workloads W ...]
        [--seeds N ...] [--seconds T] > BENCH_<n>.json

Each run is ``bench/run.py --workload W --seed N --seconds T --trace 0`` in
the checkout ``DIR`` (default: the one holding this script, named
``head``), under the Python that runs this script, one run at a time.
For every workload and seed, each tree runs once; the order of the trees
rotates from one workload and seed to the next, so no tree always runs
first.  A run becomes one object: the bench's header fields
(``workload``, ``seed``, ``seconds``, ``trace``, ``python``, ``nproc``,
``commit``), the number of timed ``passes`` the run made, the tree's
``NAME`` as ``tree``, and the result JSON of the run's last line
(``correct``, ``attempted``, ``failed``, ``metrics``).
The exit code is 1 when a run exits nonzero; a run whose output holds
no header, pass count or result is reported on stderr and left out.

Check files against that schema (exit code 1 on the first bad file):

    python3 tools/bench_trajectory.py --check BENCH_*.json

Summarize one file as Markdown tables, one per workload:

    python3 tools/bench_trajectory.py --summary BENCH_<n>.json

Untraced runs pair by workload, seed and order of appearance: the i-th
run of one tree at a workload and seed pairs with the i-th run of every
other tree there, and a run without a partner is left out.  For
``passes`` and every end-to-end metric, a table gives each tree's median
and quartiles over its paired runs (trees in order of first appearance)
and, for each later tree, its median's change from the first tree's, the
first tree's interquartile range relative to its median, and in how
many pairs the later tree did better (strictly, in the metric's
``better`` direction in ``BENCHMARK.json``).

Standard library only; the bench itself is not changed or imported.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("law-closure", "desk-check", "task-sync")
_RUN = re.compile(r"^# pslens bench workload=(\S+) seed=(-?\d+) seconds=(\S+) trace=([01])$", re.M)
_HOST = re.compile(r"^# python (\S+) nproc (\d+) commit (\S+)$", re.M)
_PASSES = re.compile(r"^# (\d+) passes of ", re.M)
HEADER = {"workload": str, "seed": int, "seconds": float, "trace": int, "python": str, "nproc": int, "commit": str}
RUN = {"passes": int, "tree": str}
RESULT = {"correct": bool, "attempted": int, "failed": int, "metrics": dict}


def parse_run(text: str) -> dict:
    """The header fields, the pass count and the last-line result JSON of one bench run's output."""
    run, host, passes = _RUN.search(text), _HOST.search(text), _PASSES.search(text)
    lines = text.rstrip("\n").splitlines()
    if run is None or host is None or passes is None:
        raise ValueError("no bench header or pass count in the output")
    workload, seed, seconds, trace = run.groups()
    python, nproc, commit = host.groups()
    point = {"workload": workload, "seed": int(seed), "seconds": float(seconds), "trace": int(trace),
             "python": python, "nproc": int(nproc), "commit": commit, "passes": int(passes.group(1))}
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise ValueError("the last line is not a result object")
    return {**point, **result}


def end_to_end() -> dict[str, str]:
    """The end-to-end metric names, each with its ``better`` direction."""
    return {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def problems(points) -> list[str]:
    """What makes ``points`` not a list of trajectory objects (empty when it is one)."""
    if not isinstance(points, list) or not points:
        return ["not a non-empty JSON list"]
    out = []
    names = end_to_end()
    for k, p in enumerate(points):
        if not isinstance(p, dict):
            out.append(f"[{k}] is not an object")
            continue
        for key, kind in {**HEADER, **RUN, **RESULT}.items():
            v = p.get(key)
            ok = isinstance(v, (int, float)) if kind is float else type(v) is kind
            if not ok:
                out.append(f"[{k}] {key!r} is missing or not a {kind.__name__}")
        metrics = p.get("metrics") if isinstance(p.get("metrics"), dict) else {}
        for name, m in metrics.items():
            if not (isinstance(m, dict) and isinstance(m.get("value"), (int, float)) and isinstance(m.get("unit"), str)):
                out.append(f"[{k}] metric {name!r} is not a value with a unit")
        if p.get("trace") == 0:
            out += [f"[{k}] end-to-end metric {name!r} is missing" for name in names if name not in metrics]
        if extra := set(p) - set(HEADER) - set(RUN) - set(RESULT):
            out.append(f"[{k}] unknown keys {sorted(extra)}")
    return out


def _quartiles(values: list) -> list:
    return statistics.quantiles(values if len(values) > 1 else values * 2, n=4, method="inclusive")


def summary(points: list) -> list[str]:
    """The Markdown lines of the ``--summary`` report of ``points`` (see the module docstring)."""
    better = end_to_end()
    points = [p for p in points if p["trace"] == 0]
    trees = list(dict.fromkeys(p["tree"] for p in points))
    runs = defaultdict(list)  # (workload, seed, tree) -> its runs, in order of appearance
    for p in points:
        runs[p["workload"], p["seed"], p["tree"]].append(p)
    out = []
    for workload in dict.fromkeys(p["workload"] for p in points):
        seeds = list(dict.fromkeys(p["seed"] for p in points if p["workload"] == workload))
        pairs = [pair for seed in seeds for pair in zip(*(runs[workload, seed, t] for t in trees))]
        if not pairs:
            continue
        later = trees[1:]
        out += [f"#### {workload}: {len(pairs)} pairs, seeds {', '.join(map(str, seeds))}", "",
                "| metric | " + " | ".join(f"{t} median [q1, q3]" for t in trees) + " | "
                + " | ".join(f"{t} vs {trees[0]} | {trees[0]} IQR | {t} won" for t in later) + " |",
                "| --- " * (1 + len(trees) + 3 * len(later)) + "|"]
        for name in ["passes", *better]:
            values = [[run["passes"] if name == "passes" else run["metrics"][name]["value"] for run in tree_runs]
                      for tree_runs in zip(*pairs)]
            quartiles = [_quartiles(v) for v in values]
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in quartiles]
            base, sign = quartiles[0], 1 if better.get(name) == "higher" else -1
            for v, q in zip(values[1:], quartiles[1:]):
                won = f"{sum(sign * (b - a) > 0 for a, b in zip(values[0], v))}/{len(v)}" if name in better else ""
                cells += [f"{q[1] / base[1] - 1:+.1%}", f"{(base[2] - base[0]) / base[1]:.1%}", won]
            out.append(f"| {name} | " + " | ".join(cells) + " |")
        out.append("")
    return out


def collect(trees: list[tuple[str, Path]], workloads: list[str], seeds: list[int], seconds: float) -> tuple[list, bool]:
    points, ok = [], True
    for k, (workload, seed) in enumerate((w, s) for w in workloads for s in seeds):
        for name, tree in trees[k % len(trees):] + trees[: k % len(trees)]:
            argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
            print(f"{name} {workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
            if done.returncode:
                ok = False
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
            try:
                point = parse_run(done.stdout)
            except ValueError as exc:  # no result to keep: the runs before and after it still are
                ok = False
                print(f"{name} {workload} seed {seed}: skipped, {exc}", file=sys.stderr)
                continue
            points.append({**{key: point.pop(key) for key in [*HEADER, "passes"]}, "tree": name, **point})
    return points, ok


def _tree(arg: str) -> tuple[str, Path]:
    name, sep, path = arg.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=DIR, got {arg!r}")
    return name, Path(path).resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=_tree, action="append", help="NAME=DIR of a checkout to run (repeatable)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--check", nargs="+", metavar="FILE", help="check these files instead of collecting")
    parser.add_argument("--summary", metavar="FILE", help="summarize this file instead of collecting")
    args = parser.parse_args(argv)
    if args.summary:
        print("\n".join(summary(json.loads(Path(args.summary).read_text()))))
        return 0
    if args.check:
        for path in args.check:
            try:
                found = problems(json.loads(Path(path).read_text()))
            except (OSError, ValueError) as exc:
                found = [str(exc)]
            print(f"{path}: {'ok' if not found else '; '.join(found[:10])}")
            if found:
                return 1
        return 0
    points, ok = collect(args.tree or [("head", ROOT)], args.workloads, args.seeds, args.seconds)
    print(json.dumps(points, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
