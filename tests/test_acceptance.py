"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass; every criterion asserts its stated tolerance (exact equality or
byte equality) and, where bounded, its runtime.
"""

import itertools
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from pslens.iposet import (
    UNDEFINED,
    check_duplicable,
    join,
    materialize,
    verify_iposet,
)
from pslens.laws import LawId, check_law, check_laws, fixture_lenses
from pslens.lens import is_failure
from pslens.tasks import (
    Delta,
    TaskRecord,
    dump_tasks,
    enumerate_dt_universe,
    dt_domain,
    load_delta,
    load_tasks,
    task_pipeline,
)
from pslens.updates import (
    check_condition,
    check_sufficient,
    enumerate_update_spaces,
    g1_violation_space,
    g2_violation_space,
    g3_violation_space,
    gen_iposet,
)

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "golden"
TODAY = "2025-04-01"


def report(number: int, title: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {title}{stamp}")
    assert ok, f"criterion {number} failed: {title}"


def golden_bytes(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


# ---------------------------------------------------------------------------
# 1. scenario exactness
# ---------------------------------------------------------------------------


def test_criterion_1_scenario_exactness():
    start = time.perf_counter()
    lens = task_pipeline("plain", TODAY)
    source = load_tasks(golden_text("source_initial.tasks"))
    w_og = load_delta(golden_text("delta_insert_egg.delta"), "plain")
    w_dt = load_delta(golden_text("delta_rename_and_delete.delta"), "plain")

    v_og, v_dt = lens.get(source)
    ok = dump_tasks(v_og).encode() == golden_bytes("view_ongoing_initial.tasks")
    ok &= dump_tasks(v_dt).encode() == golden_bytes("view_today_initial.tasks")

    inserted = lens.put(source, (w_og, Delta()))
    ok &= not is_failure(inserted)
    ok &= dump_tasks(inserted).encode() == golden_bytes("source_after_insert.tasks")
    v_og1, v_dt1 = lens.get(inserted)
    ok &= dump_tasks(v_og1).encode() == golden_bytes("view_ongoing_after_insert.tasks")
    ok &= dump_tasks(v_dt1).encode() == golden_bytes("view_today_after_insert.tasks")

    merged = lens.put(source, (w_og, w_dt))
    ok &= not is_failure(merged)
    ok &= dump_tasks(merged).encode() == golden_bytes("source_after_simultaneous.tasks")
    v_og2, v_dt2 = lens.get(merged)
    ok &= dump_tasks(v_og2).encode() == golden_bytes("view_ongoing_after_simultaneous.tasks")
    ok &= dump_tasks(v_dt2).encode() == golden_bytes("view_today_after_simultaneous.tasks")

    elapsed = time.perf_counter() - start
    report(1, "plain pipeline reproduces the worked scenario byte-for-byte", ok and elapsed < 1.0, elapsed)


# ---------------------------------------------------------------------------
# 2. elaborated scenario
# ---------------------------------------------------------------------------


def test_criterion_2_elaborated_scenario():
    lens = task_pipeline("elaborated", TODAY)
    source = load_tasks(golden_text("source_initial.tasks"))
    og_delta = load_delta(golden_text("delta_complete_and_delete.ogdelta"), "ongoing")
    out = lens.put(source, (og_delta, Delta()))
    ok = not is_failure(out)
    ok &= out == load_tasks(golden_text("source_after_complete_delete.tasks"))
    ok &= dump_tasks(out).encode() == golden_bytes("source_after_complete_delete.tasks")
    report(2, "complete/delete delta yields the completed-and-deleted source exactly", ok)


# ---------------------------------------------------------------------------
# 3. counterexample suite
# ---------------------------------------------------------------------------


def test_criterion_3_counterexample_suite():
    start = time.perf_counter()
    catalog = fixture_lenses()

    bad = catalog["bad"].lens
    weak = check_law(bad, LawId.WEAK_WB)
    unstable = check_law(bad, LawId.PS_STABILITY)
    ok = weak.holds and weak.universe.startswith("exhaustive")
    ok &= (not unstable.holds) and unstable.counterexample["s0"] == "2"

    const_ns = catalog["const-unit-ns"].lens
    ok &= check_law(const_ns, LawId.WB).holds
    wput = check_law(const_ns, LawId.WPUTGET)
    ok &= not wput.holds
    ok &= (wput.counterexample["s0"], wput.counterexample["v"]) == ("unit", "omega")

    nonmono = catalog["put-nonmono-first"].lens
    ok &= check_law(nonmono, LawId.WB).holds
    up = nonmono.put("omega", "unit")
    down = nonmono.put("false", "unit")
    ok &= up == "true" and down == "false" and not nonmono.source.le(up, down)

    elapsed = time.perf_counter() - start
    report(3, "counterexample lenses behave exactly as designated", ok and elapsed < 5.0, elapsed)


# ---------------------------------------------------------------------------
# 4 and 5. law closure and derived lemmas over a generated family
# (the ``closure_pool`` fixture, built in conftest.py)
# ---------------------------------------------------------------------------


def test_criterion_4_law_closure(closure_pool):
    start = time.perf_counter()
    failures = []
    for name, lens in closure_pool:
        rep = check_law(lens, LawId.WB)
        if not rep.holds:
            failures.append((name, str(rep)))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    if failures:
        print(failures[:5])
    report(4, f"wb holds for all {len(closure_pool)} generated lenses", ok, elapsed)


def test_criterion_5_derived_lemmas(closure_pool):
    laws = [
        LawId.WEAK_WB,
        LawId.GET_MONOTONE,
        LawId.VIEW_STABILITY,
        LawId.WB,
        LawId.STABILITY,
        LawId.PUT_DETERMINES_GET,
    ]
    exceptions = []
    for name, lens in closure_pool:
        holds = {r.law: r.holds for r in check_laws(lens, laws)}
        if not holds[LawId.WEAK_WB]:
            exceptions.append((name, "weak-wb"))
            continue
        for law in (LawId.GET_MONOTONE, LawId.VIEW_STABILITY):
            if not holds[law]:
                exceptions.append((name, law.value))
        if holds[LawId.WB]:
            for law in (LawId.STABILITY, LawId.PUT_DETERMINES_GET):
                if not holds[law]:
                    exceptions.append((name, law.value))
    if exceptions:
        print(exceptions[:5])
    report(5, "derived lemmas hold with zero exceptions across the closure family", not exceptions)


# ---------------------------------------------------------------------------
# 6. recipe lemma
# ---------------------------------------------------------------------------


def test_criterion_6_recipe_lemma():
    satisfying = 0
    ok = True
    for us in enumerate_update_spaces():
        if all(check_condition(us, w).ok for w in ("G1", "G2", "G3")):
            satisfying += 1
            ok &= check_duplicable(gen_iposet(us)).ok
        if check_sufficient(us, "fine-enough").ok:
            ok &= check_condition(us, "G1").ok
        if check_sufficient(us, "associative-join").ok:
            ok &= check_condition(us, "G2").ok
    ok &= satisfying >= 20

    for space, broken in [
        (g1_violation_space(), "G1"),
        (g2_violation_space(), "G2"),
        (g3_violation_space(), "G3"),
    ]:
        for which in ("G1", "G2", "G3"):
            ok &= check_condition(space, which).ok == (which != broken)
        ok &= not check_duplicable(gen_iposet(space)).ok

    report(6, f"conditions imply duplicability on {satisfying} spaces; necessity fixtures fail as designated", ok)


# ---------------------------------------------------------------------------
# 7. task-delta domain duplicability at desk scale
# ---------------------------------------------------------------------------


def test_criterion_7_dt_duplicability_desk_scale():
    records = [
        TaskRecord(False, "write", TODAY),
        TaskRecord(True, "rest", "2025-04-02"),
    ]
    universe = enumerate_dt_universe(["a", "b"], records)
    assert len(universe) == 25
    desk = materialize(dt_domain(), universe, name="tasks+deltas@desk")
    ok = verify_iposet(desk).ok
    ok &= check_duplicable(desk).ok
    for x, y in itertools.product(universe, repeat=2):
        j = join(desk, x, y)
        m = dt_domain().merge(x, y)
        agree = (j is UNDEFINED and m is UNDEFINED) or (
            j is not UNDEFINED and m is not UNDEFINED and j == m
        )
        if not agree:
            ok = False
            break
    report(7, "delta-domain merge equals brute-force join on the 25-element desk universe", ok)


# ---------------------------------------------------------------------------
# 8. CLI determinism
# ---------------------------------------------------------------------------


def _run_cli(args, cwd):
    # the child runs in a temporary directory, so a relative PYTHONPATH
    # entry such as ``src`` would not resolve there
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "pslens.cli", *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def test_criterion_8_cli_determinism(tmp_path):
    shutil.copytree(GOLDEN, tmp_path / "golden")

    first = _run_cli(["--script", "golden/scenario_batch.script"], tmp_path)
    ok = first.returncode == 0
    saved = (tmp_path / "out.tasks").read_bytes()
    ok &= saved == golden_bytes("source_after_simultaneous.tasks")
    (tmp_path / "out.tasks").unlink()
    second = _run_cli(["--script", "golden/scenario_batch.script"], tmp_path)
    ok &= second.returncode == 0 and (tmp_path / "out.tasks").read_bytes() == saved
    ok &= first.stdout == second.stdout

    conflict = _run_cli(["--script", "golden/conflict_batch.script"], tmp_path)
    ok &= conflict.returncode == 0 and "MergeConflict" in conflict.stdout
    ok &= (tmp_path / "before.tasks").read_bytes() == (tmp_path / "after.tasks").read_bytes()

    report(8, "batch replay is byte-identical and a failed put changes nothing", ok)
