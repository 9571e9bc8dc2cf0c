"""The trajectory collector's parser and schema check, on canned bench output."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

RESULT = {
    "correct": True,
    "attempted": 1221,
    "failed": 0,
    "metrics": {
        "setup_s": {"value": 0.31, "unit": "s"},
        "ops_per_s": {"value": 402.6, "unit": "1/s"},
        "op_ms_p50": {"value": 1.14, "unit": "ms"},
        "op_ms_p95": {"value": 7.98, "unit": "ms"},
        "peak_rss_mb": {"value": 30.95, "unit": "MB"},
    },
}

CANNED = f"""# pslens bench workload=law-closure seed=2 seconds=25.0 trace=0
# python 3.11.7 nproc 2 commit a285f842aa651f00fbe07a04fe33b51e37f2e58c
# 9 passes of 1218 outcomes in 25.31 s; reference loop 103 us median, 61-139 us over 239 samples (nominal 110 us)
# gate ok   every pass gives the same digest
# digest law-closure 0ed3629b2d20a8e9d9cd5ff60a9bb2ce49cff6744620ee54d1e27156fe79e004 (1218 outcomes)
metric setup_s = 0.31 s
{json.dumps(RESULT)}
"""


def test_parse_run_reads_the_header_fields_and_the_last_line():
    point = trajectory.parse_run(CANNED)
    assert point == {
        "workload": "law-closure",
        "seed": 2,
        "seconds": 25.0,
        "trace": 0,
        "python": "3.11.7",
        "nproc": 2,
        "commit": "a285f842aa651f00fbe07a04fe33b51e37f2e58c",
        "passes": 9,
        **RESULT,
    }
    assert trajectory.problems([{**point, "tree": "head"}]) == []


def test_parse_run_refuses_output_without_a_header_a_pass_count_or_a_result():
    with pytest.raises(ValueError):
        trajectory.parse_run(CANNED.split("\n", 1)[1])
    with pytest.raises(ValueError):
        trajectory.parse_run(CANNED.replace("# 9 passes", "# passes"))
    with pytest.raises(ValueError):
        trajectory.parse_run(CANNED.rsplit("{", 1)[0])


def _fake_tree(root, name, body):
    """A checkout whose ``bench/run.py`` is ``body``."""
    (root / name / "bench").mkdir(parents=True)
    (root / name / "bench" / "run.py").write_text(body)
    return f"{name}={root / name}"


def test_collect_skips_a_run_without_a_result_and_keeps_the_others(tmp_path, capsys):
    (tmp_path / "canned.txt").write_text(CANNED)
    good = _fake_tree(tmp_path, "good", f"import sys\nsys.stdout.write(open({str(tmp_path / 'canned.txt')!r}).read())\n")
    bad = _fake_tree(tmp_path, "bad", "import sys\nsys.exit(2)\n")
    argv = ["--workloads", "law-closure", "--seeds", "1", "2", "--seconds", "1"]
    assert trajectory.main(["--tree", bad, "--tree", good, *argv]) == 1
    out, err = capsys.readouterr()
    points = json.loads(out)
    assert [p["tree"] for p in points] == ["good", "good"] and trajectory.problems(points) == []
    assert err.count("bad law-closure seed 1: skipped, no bench header or pass count in the output") == 1
    assert "bad law-closure seed 2: exit 2" in err


def test_problems_names_missing_fields_and_end_to_end_metrics():
    point = {**trajectory.parse_run(CANNED), "tree": "head"}
    assert trajectory.problems([]) == ["not a non-empty JSON list"]
    assert trajectory.problems([{k: v for k, v in point.items() if k != "nproc"}]) == [
        "[0] 'nproc' is missing or not a int"
    ]
    metrics = {k: v for k, v in point["metrics"].items() if k != "op_ms_p95"}
    assert trajectory.problems([point, {**point, "metrics": metrics}]) == [
        "[1] end-to-end metric 'op_ms_p95' is missing"
    ]
    assert trajectory.problems([{**point, "seed": True, "extra": 1}]) == [
        "[0] 'seed' is missing or not a int",
        "[0] unknown keys ['extra']",
    ]


def test_check_accepts_every_committed_trajectory_file(tmp_path, capsys):
    committed = sorted(str(p) for p in ROOT.glob("BENCH_*.json"))
    assert committed
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text(json.dumps([{"workload": "law-closure"}]))
    assert trajectory.main(["--check", *committed]) == 0
    assert trajectory.main(["--check", str(bad)]) == 1
    assert "'seed' is missing" in capsys.readouterr().out


def _point(tree, seed, passes, ops, p50, trace=0):
    metrics = {**RESULT["metrics"], "ops_per_s": {"value": ops, "unit": "1/s"}, "op_ms_p50": {"value": p50, "unit": "ms"}}
    return {**trajectory.parse_run(CANNED), "workload": "task-sync", "seed": seed, "trace": trace, "passes": passes,
            "tree": tree, "metrics": metrics}


def test_summary_pairs_runs_by_seed_and_order_and_counts_the_pairs_won(tmp_path, capsys):
    points = [
        _point("parent", 1, 10, 100, 1.0),
        _point("change", 1, 11, 120, 0.9),
        _point("change", 1, 13, 105, 1.0),  # pairs with the second parent run at seed 1
        _point("parent", 1, 12, 110, 1.0),
        _point("parent", 2, 14, 120, 1.0),
        _point("change", 2, 15, 130, 0.8),
        _point("parent", 2, 99, 1000, 9.0),  # no partner: left out
        _point("change", 2, 99, 5000, 0.1, trace=1),  # traced: left out
    ]
    path = tmp_path / "BENCH_synthetic.json"
    path.write_text(json.dumps(points))
    assert trajectory.main(["--check", str(path)]) == 0
    capsys.readouterr()
    assert trajectory.main(["--summary", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "#### task-sync: 3 pairs, seeds 1, 2",
        "",
        "| metric | parent median [q1, q3] | change median [q1, q3] | change vs parent | parent IQR | change won |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    rows = {line.split(" | ")[0]: line for line in lines[4:] if line}
    assert rows["| passes"] == "| passes | 12 [11, 13] | 13 [12, 14] | +8.3% | 16.7% |  |"
    assert rows["| ops_per_s"] == "| ops_per_s | 110 [105, 115] | 120 [112.5, 125] | +9.1% | 9.1% | 2/3 |"
    # lower is better, and a tie is not a win
    assert rows["| op_ms_p50"] == "| op_ms_p50 | 1 [1, 1] | 0.9 [0.85, 0.95] | -10.0% | 0.0% | 2/3 |"
    assert rows["| peak_rss_mb"] == "| peak_rss_mb | 30.95 [30.95, 30.95] | 30.95 [30.95, 30.95] | +0.0% | 0.0% | 0/3 |"
