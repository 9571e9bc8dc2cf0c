"""pslens benchmark: one command per workload run.

    python3 bench/run.py --workload law-closure|desk-check|task-sync \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout.  ``pslens`` is imported from the
checkout's own ``src/`` by absolute path, never from the environment,
so where ``src/`` is missing the command fails without printing a
result.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed
``SETUP_REPEATS`` times and reported as a median.  Then the workload's
fixed work list is replayed in passes for about ``--seconds``, at least
once, and each op's latency is the median across passes.  All times are
scaled to a nominal host speed (see ``hostspeed.py``).  ``--trace 1``
makes one untraced and one traced pass, and reports the per-layer
metrics of the traced pass and the tracing overhead; its spans are
written to ``.bench_out/``.

Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output agreed with its oracle and every gate held.
``bench/README.md`` says what each metric means and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
VARIANTS = ("plain", "elaborated")


def commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile, as the mean of the order statistics within one
    percentile of it: a kernel estimate that one op in a sparse tail
    cannot swing."""
    ranked = sorted(values)
    n = len(ranked)
    lo = max(min(int((q - 0.01) * n), n - 1), 0)
    hi = max(int((q + 0.01) * n) + 1, lo + 1)
    return statistics.fmean(ranked[lo:hi])


def ms(seconds: list[float]) -> tuple[float, float]:
    """Median and 95th percentile in milliseconds (0 for no samples)."""
    if not seconds:
        return 0.0, 0.0
    return quantile(seconds, 0.5) * 1e3, quantile(seconds, 0.95) * 1e3


def p50_ms(ns: list[int]) -> float:
    return statistics.median(ns) / 1e6 if ns else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def digest(outcomes: list) -> str:
    return hashlib.sha256("\n".join(o.digest for o in outcomes).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_pass(workload, inputs, seed: int, rec, speed: HostSpeed) -> list:
    """One closed-loop pass over the work list, times scaled to nominal speed.

    An op that raises counts as a failed op; the pass goes on.
    """
    from workloads import Outcome

    outcomes, intervals = [], []
    for op in workload.work(inputs, seed, rec):
        speed.tick()
        start = perf_counter()
        try:
            outcomes.append(op(rec))
        except Exception as exc:  # a library error is a wrong outcome, not a bench crash
            outcomes.append(Outcome(perf_counter() - start, False, f"raised {type(exc).__name__}: {exc}"))
        intervals.append((start, perf_counter()))
    speed.tick()
    for outcome, (start, end) in zip(outcomes, intervals):
        scale = speed.scale(start, end)
        outcome.seconds *= scale
        for key, value in outcome.info.items():
            if isinstance(value, float):
                outcome.info[key] = value * scale
    return outcomes


def timed_passes(workload, inputs, seed: int, seconds: float, speed: HostSpeed, rec) -> list[list]:
    """Replay the work list for about ``seconds``, at least once.

    The pass count is fixed after the first pass, so a run makes as many
    passes as fit its time at the speed it started with.
    """
    start = perf_counter()
    passes = [run_pass(workload, inputs, seed, rec, speed)]
    count = int(seconds / (perf_counter() - start))
    while len(passes) < count:
        passes.append(run_pass(workload, inputs, seed, rec, speed))
    return passes


def typical(passes: list[list]) -> list:
    """Per op, the median of its scaled times across passes."""
    out = []
    for reps in zip(*passes):
        info = {
            key: statistics.median(o.info[key] for o in reps) if isinstance(value, float) else value
            for key, value in reps[0].info.items()
        }
        out.append(dataclasses.replace(reps[0], seconds=statistics.median(o.seconds for o in reps), info=info))
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(outcomes: list, setup_s: float) -> dict:
    """The gated metrics, which every workload reports."""
    ops = [o.seconds for o in outcomes if o.kind == "op"]
    p50, p95 = ms(ops)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ratio(len(ops), sum(ops)), "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p95": (p95, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def workload_view(name: str, outcomes: list, attempted: list, e2e: dict) -> dict:
    """The same run under the workload's own metric names; ``attempted``
    holds every outcome of every pass."""
    failed = sum(not o.ok for o in attempted)
    out = {"error_rate": (ratio(failed, len(attempted)), "1")}
    if name != "task-sync":
        out["verdicts_per_s"] = e2e["ops_per_s"]
        out["verdict_ms_p50"] = e2e["op_ms_p50"]
        out["verdict_ms_p95"] = e2e["op_ms_p95"]
        return out
    opens = [o.seconds for o in outcomes if o.kind == "open"]
    out["open_s"] = (statistics.median(opens) if opens else 0.0, "s")
    out["save_ms_p50"] = (ms([o.info["save"] for o in outcomes if "save" in o.info])[0], "ms")
    for variant in VARIANTS:
        p50, p95 = ms([o.info["put"] for o in outcomes if "put" in o.info and o.info["variant"] == variant])
        out[f"{variant}.put_ms_p50"] = (p50, "ms")
        out[f"{variant}.put_ms_p95"] = (p95, "ms")
    out["sync_rounds_per_s"] = e2e["ops_per_s"]
    return out


def layer_metrics(rec, traced: list, untraced: list) -> dict:
    """Per-layer metrics of one traced pass (see bench/README.md)."""
    calls, counts, distinct = rec.calls, rec.counts, rec.distinct
    m = {}

    failing = counts["laws.failing_reports"]
    m["laws.check_s"] = (rec.total_s("laws.check"), "s")
    m["laws.self_s"] = (sum(rec.self_ns("laws.check")) / 1e9, "s")
    m["laws.universe_cells"] = (counts["laws.universe_cells"], "count")
    m["laws.failing_reports"] = (failing, "count")
    m["laws.recheck_s"] = (rec.total_s("laws.recheck"), "s")
    m["laws.recheck_confirmed_ratio"] = (ratio(counts["laws.recheck_confirmed"], failing), "ratio")

    top_puts = calls["lens.put"] + len(rec.durations_ns("pipeline.put"))
    refused = counts["lens.put_refused"] + counts["pipeline.put_refused"]
    m["lens.get_calls"] = (calls["lens.get"], "count")
    m["lens.put_calls"] = (calls["lens.put"], "count")
    m["lens.get_s"] = (rec.total_s("lens.get"), "s")
    m["lens.put_s"] = (rec.total_s("lens.put"), "s")
    m["lens.put_refused"] = (counts["lens.put_refused"], "count")
    m["lens.put_refused_ratio"] = (ratio(refused, top_puts), "ratio")
    m["lens.get_distinct_ratio"] = (ratio(distinct["lens.get"], calls["lens.get"]), "ratio")
    m["lens.put_distinct_ratio"] = (ratio(distinct["lens.put"], calls["lens.put"]), "ratio")

    queries = [f"iposet.{op}" for op in ("le", "ident", "contains")]
    for query in queries:
        m[f"{query}_calls"] = (calls[query], "count")
    m["iposet.query_s"] = (sum(rec.total_s(q) for q in queries), "s")
    m["iposet.query_distinct_ratio"] = (
        ratio(sum(distinct[q] for q in queries), sum(calls[q] for q in queries)),
        "ratio",
    )
    for stage in ("construct", "verify", "duplicable", "join"):
        m[f"iposet.{stage}_s"] = (rec.total_s(f"iposet.{stage}"), "s")
    m["iposet.join_calls"] = (len(rec.durations_ns("iposet.join")), "count")

    for stage in ("check_condition", "check_sufficient", "state_elimination", "gen_iposet"):
        m[f"updates.{stage}_s"] = (rec.total_s(f"updates.{stage}"), "s")
    m["updates.spaces"] = (counts["updates.spaces"], "count")
    m["updates.satisfying"] = (counts["updates.satisfying"], "count")

    load_s = rec.total_s("tasks.load_tasks")
    m["tasks.load_tasks_s"] = (load_s, "s")
    m["tasks.load_rows_per_s"] = (ratio(counts["tasks.rows_loaded"], load_s), "1/s")
    m["tasks.load_delta_ms_p50"] = (p50_ms(rec.durations_ns("tasks.load_delta")), "ms")
    m["tasks.dump_tasks_ms"] = (p50_ms(rec.durations_ns("tasks.dump_tasks")), "ms")

    # Per put command, the time in each pipeline stage and in the preservation check.
    puts = {v: {rid for rid, r in enumerate(rec.requests) if r["name"] == "cli.put" and r.get("variant") == v}
            for v in VARIANTS}
    stages = [("lens.put", "pipeline.put"), ("lens.get", "pipeline.get"), ("lens.apply", "pipeline.apply"),
              ("lens.merge", "pipeline.merge"), ("lens.filter_put", "pipeline.filter_put"),
              ("lens.filter_get", "pipeline.filter_get"), ("tasks.preserve", "tasks.le")]
    for label, span in stages:
        per_request = rec.per_request_ns(span)
        for v in VARIANTS:
            m[f"{v}.{label}_ms_p50"] = (p50_ms([ns for rid, ns in per_request.items() if rid in puts[v]]), "ms")
    m["cli.self_ms_p50"] = (p50_ms(rec.self_ns("cli.put")), "ms")
    m["cli.edit_ms_p50"] = (p50_ms(rec.durations_ns("cli.edit")), "ms")

    plain, with_spans = end_to_end(untraced, 0.0), end_to_end(traced, 0.0)
    for name in ("ops_per_s", "op_ms_p50", "op_ms_p95"):
        value, unit = with_spans[name]
        m[f"overhead.{name}"] = (value - plain[name][0], unit)
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def emit(lines: dict, prefix: str) -> None:
    for name, (value, unit) in lines.items():
        print(f"{prefix} {name} = {value:.6g} {unit}")


def run(args, workload, speed: HostSpeed, import_s: float) -> int:
    from spans import NoRecorder, Recorder

    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, seconds = speed.timed(lambda: workload.setup(args.seed))
        setups.append(seconds)
    setup_s = import_s + statistics.median(setups)
    checks = list(workload.gates(inputs))

    start = perf_counter()
    if args.trace:
        rec = Recorder()
        passes = [run_pass(workload, inputs, args.seed, NoRecorder(), speed),
                  run_pass(workload, inputs, args.seed, rec, speed)]
        metrics = layer_metrics(rec, passes[1], passes[0])
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        rec.write(spans_path)
        print(f"# spans written to {spans_path.relative_to(ROOT)} ({len(rec.spans)} spans, {len(rec.aggs)} aggregates)")
    else:
        passes = timed_passes(workload, inputs, args.seed, args.seconds, speed, NoRecorder())
        metrics = end_to_end(typical(passes), setup_s)
    loop = sorted(speed.samples)
    print(f"# {len(passes)} passes of {len(passes[0])} outcomes in {perf_counter() - start:.2f} s; "
          f"reference loop {statistics.median(loop) * 1e6:.0f} us median, {loop[0] * 1e6:.0f}-{loop[-1] * 1e6:.0f} us "
          f"over {len(loop)} samples (nominal {HostSpeed.NOMINAL_S * 1e6:.0f} us)")

    checks.append(("every pass gives the same digest", len({digest(p) for p in passes}) == 1))
    work_gate = getattr(workload, "work_gate", None)
    if work_gate:
        checks.append(work_gate(passes[0]))
    for label, ok in checks:
        print(f"# gate {'ok  ' if ok else 'FAIL'} {label}")
    outcomes = [o for p in passes for o in p]
    wrong = [o for o in outcomes if not o.ok]
    for o in wrong[:20]:
        print(f"# oracle disagrees: {o.digest[:300]}")
    if len(wrong) > 20:
        print(f"# ... and {len(wrong) - 20} more")
    print(f"# digest {workload.name} {digest(passes[0])} ({len(passes[0])} outcomes)")

    if args.trace:
        emit(metrics, "layer")
    else:
        emit(metrics, "metric")
        emit(workload_view(workload.name, typical(passes), outcomes, metrics), "metric")

    failed = sum(not o.ok for o in outcomes) + sum(not ok for _, ok in checks)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes) + len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["law-closure", "desk-check", "task-sync"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pslens" / "__init__.py").is_file():
        print(f"error: no pslens package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    speed = HostSpeed()

    def import_pslens():
        import pslens.cli  # noqa: F401  (the front end is part of every import)

    _, import_s = speed.timed(import_pslens)
    import pslens

    if Path(pslens.__file__).resolve().parent != SRC / "pslens":
        print(f"error: pslens resolved to {pslens.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"# pslens bench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# python {platform.python_version()} nproc {nproc} commit {commit()}")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = {
            "law-closure": workloads.LawClosure,
            "desk-check": workloads.DeskCheck,
            "task-sync": lambda: workloads.TaskSync(workdir),
        }[args.workload]()
        return run(args, workload, speed, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
