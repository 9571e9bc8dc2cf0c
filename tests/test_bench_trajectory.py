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
