"""State-update-pair construction: generated domains, conditions, erasure."""

import fnmatch
import itertools
import re
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pslens.iposet import (
    UNDEFINED,
    FiniteIPoset,
    InvalidArgsError,
    MissingMergeError,
    check_duplicable,
    discrete,
    lift_omega,
    materialize,
    structurally_equal,
    verify_iposet,
)
from pslens.laws import LawId, check_law, check_laws, recheck_counterexample
from pslens.lens import PSLens, constant_lens, dup_lens, initiator, is_failure
from pslens.tasks import (
    Delta,
    FilterDomain,
    TaskRecord,
    apply_dt,
    delta_update_space,
    dt_domain,
    enumerate_dt_universe,
    enumerate_dtdt_universe,
    enumerate_og_universe,
    filter_lens,
    filter_ongoing,
    filter_today,
)
from pslens.updates import (
    Pair,
    Proper,
    Upd,
    UpdateSpace,
    UpdateSpaceError,
    apply_su,
    check_condition,
    check_state_elimination,
    check_sufficient,
    dump_update_space,
    enumerate_update_spaces,
    erase,
    erased_iposet,
    g1_violation_space,
    g2_violation_space,
    g3_violation_space,
    gen_iposet,
    load_update_space,
    merge_su,
    ran,
    su_initiator,
)

from conftest import three_update_spaces

REPO = Path(__file__).resolve().parent.parent
U_LAWS = [LawId.PS_ACCEPTABILITY, LawId.PS_CONSISTENCY]

# the one-id instance of the task deltas: its two tables and three deltas
R = TaskRecord(False, "write", "2025-04-01")
EMPTY, FULL = {}, {"k": R}
NOTHING, ADD_K, DEL_K = Delta(), Delta({"k": R}), Delta(deletes={"k"})


def oracle_ran(us, s, u):
    """Reachability by raw (refinement, outcome) enumeration."""
    hits = []
    for u2 in us.updates:
        if us.order.le(u, u2):
            r = us.apply_interp(u2, s)
            if r is not UNDEFINED and r not in hits:
                hits.append(r)
    return hits


# ---------------------------------------------------------------------------
# construction-time validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "states, updates, u_le, u_merge, interp",
    [
        pytest.param(["s"], ["a", "b"], [("a", "b"), ("b", "a")], [], [], id="cyclic-order"),
        pytest.param(["s"], ["a", "b", "c"], [("a", "b"), ("b", "c")], [], [], id="non-transitive-order"),
        pytest.param(["s"], ["a", "b"], [], [("a", "b", "a")], [], id="unsound-merge"),
        pytest.param(["s"], ["a", "b"], [("a", "b")], [("a", "b", "b"), ("a", "b", "a")], [], id="non-functional-merge"),
        pytest.param(["s"], ["a"], [], [("a", "a", "z")], [], id="merge-names-unknown-update"),
        pytest.param(["s"], ["a"], [], [], [("a", "s", "s"), ("a", "s", "t")], id="unknown-state"),
        pytest.param(["s", "t"], ["a"], [], [], [("a", "s", "s"), ("a", "s", "t")], id="non-functional-interp"),
        pytest.param(["s"], ["a", "a"], [], [], [], id="duplicate-updates"),
        pytest.param(["s", "s"], ["a"], [], [], [], id="duplicate-states"),
        pytest.param([], ["a"], [], [("a", "a", "a")], [], id="no-states"),
    ],
)
def test_update_space_rejects_invalid_tables(states, updates, u_le, u_merge, interp):
    with pytest.raises(UpdateSpaceError):
        UpdateSpace(states, updates, u_le, u_merge, interp)


def test_update_order_is_a_validated_domain():
    us = delta_update_space(["k"], [R])
    assert us.states == [EMPTY, FULL] and us.updates == [NOTHING, ADD_K, DEL_K]
    assert us.order.elements == us.updates
    assert verify_iposet(us.order).ok
    assert us.order.le(NOTHING, DEL_K) and not us.order.le(ADD_K, DEL_K)
    assert us.order.merge(NOTHING, ADD_K) == ADD_K
    assert us.order.merge(ADD_K, DEL_K) is UNDEFINED


def test_enumeration_yields_exactly_266_valid_spaces():
    # every candidate of the enumeration is a valid space, as construction
    # raises on an invalid one; the count pins the candidates
    assert len(list(enumerate_update_spaces())) == 266


# ---------------------------------------------------------------------------
# ran
# ---------------------------------------------------------------------------


def test_ran_singleton_for_maximal_self_fixing_update():
    us = UpdateSpace(["s"], ["u"], [], [("u", "u", "u")], [("u", "s", "s")])
    assert ran(us, "s", "u") == ["s"]


def test_ran_of_least_update_reaches_most():
    us = delta_update_space(["k"], [R])
    bottom_reach = ran(us, EMPTY, NOTHING)
    for u in us.updates:
        for r in ran(us, EMPTY, u):
            assert r in bottom_reach  # reachability is antitone in the update


def test_ran_matches_oracle_on_dt_toy():
    us = delta_update_space(["k"], [R])
    for s in us.states:
        for u in us.updates:
            assert ran(us, s, u) == oracle_ran(us, s, u)


# ---------------------------------------------------------------------------
# generated domain
# ---------------------------------------------------------------------------


def update_spaces():
    """The enumerated spaces, the three necessity fixtures and the delta spaces at 1 and 2 ids."""
    spaces = list(enumerate_update_spaces())
    spaces += [g1_violation_space(), g2_violation_space(), g3_violation_space()]
    return spaces + [delta_update_space(["k"], [R]), delta_update_space(DESK_IDS, DESK)]


def assert_generated_order_axioms(us):
    """The recipe alone makes the generated domain an order with its
    identical updates inside it, and designates only a bottom that is an
    identical update of every element.  Merge soundness is G1's
    business, and a bottom that moves its origin is only reported."""
    p = gen_iposet(us)
    tolerated = {"merge-sound", "least-is-identical-update"}
    assert not [v for v in verify_iposet(p).violations if v.axiom not in tolerated], dump_update_space(us)
    assert p.least is None or all(p.ident(p.least, x) for x in p.elements), dump_update_space(us)


def test_generated_domain_satisfies_order_axioms_for_every_enumerated_space():
    spaces = update_spaces()
    assert len(spaces) == 271
    for us in spaces:
        assert_generated_order_axioms(us)


def moving_bottom_space():
    # u0 is below everything (u1 refines u0 and reaches s0), but u0 fixes
    # no state, so it is no identical update for Proper(s0)
    return UpdateSpace(["s0"], ["u0", "u1"], [("u0", "u1")], [("u0", "u0", "u0"), ("u1", "u1", "u1")], [("u1", "s0", "s0")])


def test_generated_domain_with_a_bottom_that_moves_its_origin_designates_no_least():
    p = gen_iposet(moving_bottom_space())
    assert [v.witness for v in verify_iposet(p).violations] == [(Pair("s0", "u0"), Proper("s0"))]
    assert p.least is None
    with pytest.raises(InvalidArgsError, match="lower-bounded"):
        constant_lens(p, discrete(["a"]), "a")


def test_erased_domain_with_a_bottom_that_moves_a_state_designates_no_least():
    p = erased_iposet(moving_bottom_space())
    assert [v.witness for v in verify_iposet(p).violations] == [(Upd("u0"), Proper("s0"))]
    assert p.least is None
    with pytest.raises(InvalidArgsError, match="lower-bounded"):
        constant_lens(p, discrete(["a"]), "a")


def test_pair_is_identical_update_iff_interp_fixes_origin():
    us = delta_update_space(["k"], [R])
    p = gen_iposet(us)
    for s in us.states:
        for u in us.updates:
            expected = us.apply_interp(u, s) == s
            assert p.ident(Pair(s, u), Proper(s)) == expected


def test_proper_states_are_discrete():
    us = delta_update_space(["k"], [R])
    p = gen_iposet(us)
    for s in us.states:
        for s2 in us.states:
            assert p.le(Proper(s), Proper(s2)) == (s == s2)


# ---------------------------------------------------------------------------
# merge and apply
# ---------------------------------------------------------------------------


def test_merge_su_clauses():
    us = delta_update_space(["k"], [R])
    assert merge_su(us, Proper(EMPTY), Proper(EMPTY)) == Proper(EMPTY)
    assert merge_su(us, Proper(EMPTY), Proper(FULL)) is UNDEFINED
    assert merge_su(us, Pair(EMPTY, ADD_K), Proper(FULL)) == Proper(FULL)
    assert merge_su(us, Pair(EMPTY, ADD_K), Proper(EMPTY)) is UNDEFINED
    assert merge_su(us, Pair(EMPTY, NOTHING), Pair(EMPTY, DEL_K)) == Pair(EMPTY, DEL_K)
    assert merge_su(us, Pair(EMPTY, ADD_K), Pair(FULL, ADD_K)) is UNDEFINED  # distinct origins


def test_apply_su_clauses():
    us = delta_update_space(["k"], [R])
    assert apply_su(us, Proper(FULL), EMPTY) == FULL
    assert apply_su(us, Pair(EMPTY, ADD_K), EMPTY) == FULL
    assert apply_su(us, Pair(EMPTY, ADD_K), FULL) is UNDEFINED  # origin mismatch


def test_su_initiator_is_well_behaved_and_satisfies_u_laws():
    us = delta_update_space(["k"], [R])
    lens = su_initiator(us)
    assert check_law(lens, LawId.WB).holds

    def apply(v, sp):
        r = apply_su(us, v, sp.state)
        return UNDEFINED if r is UNDEFINED else Proper(r)

    states = lens.source.elements
    deltas = lens.view.elements
    reports = check_laws(initiator(lens.source, lens.view, apply), U_LAWS, states, deltas)
    assert [r.holds for r in reports] == [True, True]


def test_su_initiator_put_failure_on_origin_mismatch():
    us = delta_update_space(["k"], [R])
    lens = su_initiator(us)
    r = lens.put(Proper(FULL), Pair(EMPTY, ADD_K))
    assert is_failure(r)


def test_su_initiator_u_laws_hold_across_enumerated_spaces():
    checked = 0
    for us in itertools.islice(enumerate_update_spaces(), 40):
        view = gen_iposet(us)
        propers = [Proper(s) for s in us.states]

        def apply(v, sp):
            r = apply_su(us, v, sp.state)
            return UNDEFINED if r is UNDEFINED else Proper(r)

        lens = initiator(discrete(propers), view, apply)
        reports = check_laws(lens, U_LAWS, propers, view.elements)
        assert [r.holds for r in reports] == [True, True]
        checked += 1
    assert checked == 40


# ---------------------------------------------------------------------------
# conditions G1..G3 and the duplicability lemma
# ---------------------------------------------------------------------------


def test_dt_toy_satisfies_all_conditions_and_is_duplicable():
    us = delta_update_space(["k"], [R])
    for which in ["G1", "G2", "G3"]:
        assert check_condition(us, which).ok, which
    assert check_duplicable(gen_iposet(us)).ok


def test_g1_violation_fixture():
    us = g1_violation_space()
    assert not check_condition(us, "G1").ok
    assert check_condition(us, "G2").ok
    assert check_condition(us, "G3").ok
    assert not check_duplicable(gen_iposet(us)).ok


def test_g2_violation_fixture():
    us = g2_violation_space()
    assert check_condition(us, "G1").ok
    assert not check_condition(us, "G2").ok
    assert check_condition(us, "G3").ok
    assert not check_duplicable(gen_iposet(us)).ok


def test_g3_violation_fixture():
    us = g3_violation_space()
    assert check_condition(us, "G1").ok
    assert check_condition(us, "G2").ok
    report = check_condition(us, "G3")
    assert not report.ok
    assert any(v.axiom == "G3-total-on-fixers" for v in report.violations)
    assert not check_duplicable(gen_iposet(us)).ok


# ---------------------------------------------------------------------------
# packaged fixture files
# ---------------------------------------------------------------------------

G_SPACES = [g1_violation_space, g2_violation_space, g3_violation_space]

# the str() of each space's G1-G3, fine-enough, associative-join and state-elimination
# reports, pinned as the Python builders gave them before the spaces became packaged files
G_SPACE_REPORTS = {
    "g1-violation": [
        "G1 on g1-violation: 2 violation(s)\n"
        "  - G1-ran-respected: witness ('s', 'u1', 'u2', 't') (shared result lost by merged update)\n"
        "  - G1-ran-respected: witness ('s', 'u2', 'u1', 't') (shared result lost by merged update)",
        "G2 on g1-violation: ok",
        "G3 on g1-violation: ok",
        "fine-enough on g1-violation: 1 violation(s)\n"
        "  - fine-enough: witness ('s', 'u1', 'u2', 't') (no common refinement reaches the shared result)",
        "associative-join on g1-violation: ok",
        "state elimination for g1-violation: 2 violation(s)\n"
        "  - erased-merge-sound: witness (Upd(update='u1'), Upd(update='u2'), Upd(update='u12')) (join is UNDEFINED)\n"
        "  - erased-merge-sound: witness (Upd(update='u2'), Upd(update='u1'), Upd(update='u12')) (join is UNDEFINED)",
    ],
    "g2-violation": [
        "G1 on g2-violation: ok",
        "G2 on g2-violation: 2 violation(s)\n"
        "  - G2-total-on-downsets: witness ('a', 'b', 'top') (merge undefined below a common bound)\n"
        "  - G2-total-on-downsets: witness ('b', 'a', 'top') (merge undefined below a common bound)",
        "G3 on g2-violation: ok",
        "fine-enough on g2-violation: ok",
        "associative-join on g2-violation: 4 violation(s)\n"
        "  - merge-associative: witness ('a', 'b', 'top') ('top' vs UNDEFINED)\n"
        "  - merge-associative: witness ('b', 'a', 'top') ('top' vs UNDEFINED)\n"
        "  - merge-associative: witness ('top', 'a', 'b') (UNDEFINED vs 'top')\n"
        "  - merge-associative: witness ('top', 'b', 'a') (UNDEFINED vs 'top')",
        "state elimination for g2-violation: ok",
    ],
    "g3-violation": [
        "G1 on g3-violation: ok",
        "G2 on g3-violation: ok",
        "G3 on g3-violation: 2 violation(s)\n"
        "  - G3-total-on-fixers: witness ('ins-del', 'del-ins', 's') (identical updates cannot merge)\n"
        "  - G3-total-on-fixers: witness ('del-ins', 'ins-del', 's') (identical updates cannot merge)",
        "fine-enough on g3-violation: 1 violation(s)\n"
        "  - fine-enough: witness ('s', 'ins-del', 'del-ins', 's') (no common refinement reaches the shared result)",
        "associative-join on g3-violation: ok",
        "state elimination for g3-violation: ok",
    ],
}


def test_the_violation_spaces_report_as_their_builders_did():
    for build in G_SPACES:
        us = build()
        reports = [check_condition(us, w) for w in ("G1", "G2", "G3")]
        reports += [check_sufficient(us, w) for w in ("fine-enough", "associative-join")]
        reports.append(check_state_elimination(us))
        assert [str(r) for r in reports] == G_SPACE_REPORTS[us.name]
    assert sorted(G_SPACE_REPORTS) == [build().name for build in G_SPACES]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_update_space_file_is_the_dump_of_the_space_it_loads(k):
    text = resources.files("pslens").joinpath("fixtures", f"g{k}_violation.uspace").read_text()
    assert text.startswith("# ")
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    assert body == dump_update_space(G_SPACES[k - 1]())


def test_every_packaged_fixture_matches_a_package_data_glob():
    # Tier-1 imports pslens from src/, so only this check sees a fixture that an installed package would lack
    pyproject = (REPO / "pyproject.toml").read_text()
    section = re.search(r"^\[tool\.setuptools\.package-data\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)[1]
    globs = re.findall(r'"([^"]+)"', re.search(r"^pslens\s*=\s*\[(.*?)\]", section, re.M | re.S)[1])
    package = REPO / "src" / "pslens"
    files = [f.relative_to(package).as_posix() for f in (package / "fixtures").iterdir()]
    assert len(files) == 8 and len(globs) == 2
    assert [f for f in files if not any(fnmatch.fnmatchcase(f, g) for g in globs)] == []


def test_conditions_imply_duplicability_on_enumerated_spaces():
    satisfied = 0
    for us in enumerate_update_spaces():
        if all(check_condition(us, w).ok for w in ["G1", "G2", "G3"]):
            satisfied += 1
            assert check_duplicable(gen_iposet(us)).ok, dump_update_space(us)
    assert satisfied >= 20


def test_duplicability_lemma_at_three_ids():
    # the task deltas over 3 ids: 27 states and 64 updates, a generated domain of 1755 elements
    us = delta_update_space(["a", "b", "c"], DESK)
    start = time.perf_counter()
    reports = [check_condition(us, w) for w in ["G1", "G2", "G3"]]
    reports += [check_sufficient(us, w) for w in ["fine-enough", "associative-join"]]
    seconds = time.perf_counter() - start
    assert [str(r) for r in reports if not r.ok] == []
    assert check_duplicable(gen_iposet(us)).ok
    assert seconds <= 2.0  # about 25 s through the value-level loops; about 0.1 s on the reach rows


def test_conditions_hold_vacuously_without_updates():
    us = UpdateSpace(["s1", "s2"], [], [], [], [], name="no-updates")
    for which in ["G1", "G2", "G3"]:
        assert check_condition(us, which).ok
    p = gen_iposet(us)
    assert verify_iposet(p).ok and check_duplicable(p).ok


def test_unknown_condition_name():
    with pytest.raises(ValueError):
        check_condition(delta_update_space(["k"], [R]), "G4")


# ---------------------------------------------------------------------------
# sufficient conditions
# ---------------------------------------------------------------------------


def test_fine_enough_implies_g1_on_enumerated_spaces():
    checked = 0
    for us in enumerate_update_spaces():
        if check_sufficient(us, "fine-enough").ok:
            checked += 1
            assert check_condition(us, "G1").ok
    assert checked >= 20


def test_associative_join_implies_g2_on_enumerated_spaces():
    checked = 0
    for us in enumerate_update_spaces():
        if check_sufficient(us, "associative-join").ok:
            checked += 1
            assert check_condition(us, "G2").ok
    assert checked >= 20


def test_g1_violation_space_is_not_fine_enough():
    assert not check_sufficient(g1_violation_space(), "fine-enough").ok


def test_non_associative_merge_reported_with_witness_triple():
    us = UpdateSpace(
        states=["s"],
        updates=["a", "b", "t"],
        u_le=[("a", "t"), ("b", "t")],
        u_merge=[(u, u, u) for u in ["a", "b", "t"]]
        + [("a", "t", "t"), ("t", "a", "t"), ("b", "t", "t"), ("t", "b", "t")],
        interp=[],
        name="non-assoc",
    )
    report = check_sufficient(us, "associative-join")
    assert not report.ok
    witnesses = [v for v in report.violations if v.axiom == "merge-associative"]
    assert witnesses and len(witnesses[0].witness) == 3


# ---------------------------------------------------------------------------
# origin erasure
# ---------------------------------------------------------------------------


def test_state_elimination_passes_on_dt_toy():
    report = check_state_elimination(delta_update_space(["k"], [R]))
    assert report.ok, str(report)


def test_state_elimination_rejects_g1_style_spaces():
    report = check_state_elimination(g1_violation_space())
    assert not report.ok
    assert ("erased-merge-sound", (Upd("u1"), Upd("u2"), Upd("u12"))) in [
        (v.axiom, v.witness) for v in report.violations
    ]


def test_erase_maps_pairs_to_updates():
    assert erase(Pair("s", "u")) == Upd("u")
    assert erase(Proper("s")) == Proper("s")


def test_erased_merge_agrees_under_erasure_on_dt_toy():
    us = delta_update_space(["k"], [R])
    gen = gen_iposet(us)
    erased = erased_iposet(us)
    for a, b in itertools.product(gen.elements, repeat=2):
        r = merge_su(us, a, b)
        if r is not UNDEFINED:
            assert erased.merge(erase(a), erase(b)) == erase(r)


def oracle_erased_ran(us, u):
    """Reachability with the origin forgotten: the union of ``ran(s, u)``."""
    return [t for t in us.states if any(t in oracle_ran(us, s, u) for s in us.states)]


def oracle_erased_table(us):
    """The origin-erased domain from its literal formulas: ``Upd(u) <=
    Proper(t)`` iff ``t`` is in the erased reachability set, ``Upd(u)`` is
    an identical update for ``Proper(t)`` iff ``interp(u, t) = t``, the
    ``Upd`` order is ``us.order``, and merge absorbs an update into a
    reachable proper state or follows the update merge."""

    def le(a, b):
        if isinstance(a, Proper) and isinstance(b, Proper):
            return a.state == b.state
        if isinstance(a, Upd) and isinstance(b, Upd):
            return us.order.le(a.update, b.update)
        if isinstance(a, Upd) and isinstance(b, Proper):
            return b.state in oracle_erased_ran(us, a.update)
        return False

    def ident(a, b):
        if isinstance(a, Upd) and isinstance(b, Proper):
            return us.apply_interp(a.update, b.state) == b.state
        return le(a, b)

    def merge(a, b):
        if isinstance(a, Proper) and isinstance(b, Proper):
            return a if a.state == b.state else UNDEFINED
        if isinstance(a, Upd) and isinstance(b, Proper):
            return b if le(a, b) else UNDEFINED
        if isinstance(a, Proper) and isinstance(b, Upd):
            return a if le(b, a) else UNDEFINED
        m = us.order.merge(a.update, b.update)
        return UNDEFINED if m is UNDEFINED else Upd(m)

    carrier = [Proper(s) for s in us.states] + [Upd(u) for u in us.updates]
    pairs = list(itertools.product(carrier, repeat=2))
    return FiniteIPoset(
        carrier,
        [(a, b) for a, b in pairs if le(a, b)],
        [(a, b) for a, b in pairs if ident(a, b)],
        [(a, b, r) for a, b in pairs for r in [merge(a, b)] if r is not UNDEFINED],
        validate=False,
    )


def oracle_generated(us):
    """The generated domain's tables from value-level closures (the
    earlier ``updates._generated``, kept verbatim): ``le``, ``ident`` and
    :func:`merge_su` asked on every ordered pair of the carrier."""
    def le(a, b):
        if isinstance(a, Proper) and isinstance(b, Proper):
            return a.state == b.state
        if isinstance(a, Pair) and isinstance(b, Pair):
            return a.state == b.state and us.order.le(a.update, b.update)
        if isinstance(a, Pair) and isinstance(b, Proper):
            return b.state in ran(us, a.state, a.update)
        return False

    def ident(a, b):
        if isinstance(a, Pair) and isinstance(b, Proper):
            return a.state == b.state and us.apply_interp(a.update, a.state) == b.state
        return le(a, b)

    carrier = [Proper(s) for s in us.states] + [Pair(s, u) for s in us.states for u in us.updates]
    pairs = list(itertools.product(carrier, repeat=2))
    return FiniteIPoset(
        carrier,
        [(a, b) for a, b in pairs if le(a, b)],
        [(a, b) for a, b in pairs if ident(a, b)],
        [(a, b, r) for a, b in pairs for r in [merge_su(us, a, b)] if r is not UNDEFINED],
        name=us.name or "generated",
        validate=False,
    )


def oracle_respects_erased_ran(us):
    """Whether every defined update merge keeps the states both merged
    updates reach, origins forgotten."""
    for u1, u2 in itertools.product(us.updates, repeat=2):
        u = us.order.merge(u1, u2)
        if u is not UNDEFINED:
            reach = oracle_erased_ran(us, u)
            shared = [t for t in oracle_erased_ran(us, u1) if t in oracle_erased_ran(us, u2)]
            if any(t not in reach for t in shared):
                return False
    return True


def assert_erasure_matches_oracle(us):
    generated, oracle = gen_iposet(us), oracle_generated(us)
    assert structurally_equal(generated, oracle), dump_update_space(us)
    assert verify_iposet(generated) == verify_iposet(oracle), dump_update_space(us)
    expected = oracle_erased_table(us)
    assert structurally_equal(erased_iposet(us), expected), dump_update_space(us)
    expected_ok = oracle_respects_erased_ran(us) and verify_iposet(expected).ok
    assert check_state_elimination(us).ok == expected_ok, dump_update_space(us)


def test_erasure_matches_oracle_on_enumerated_spaces_and_fixtures():
    for us in update_spaces():
        assert_erasure_matches_oracle(us)


@given(three_update_spaces())
def test_erasure_matches_oracle_on_three_update_spaces(us):
    assert_erasure_matches_oracle(us)


@given(three_update_spaces())
def test_generated_domain_satisfies_order_axioms_on_three_update_spaces(us):
    assert_generated_order_axioms(us)


@given(three_update_spaces())
def test_conditions_imply_duplicability_on_three_update_spaces(us):
    if all(check_condition(us, w).ok for w in ["G1", "G2", "G3"]):
        assert check_duplicable(gen_iposet(us)).ok, dump_update_space(us)


# ---------------------------------------------------------------------------
# the task deltas as an instance of the recipe
# ---------------------------------------------------------------------------

TODAY = "2025-04-01"
DESK_IDS = ["a", "b"]
DESK = [TaskRecord(False, "write", TODAY), TaskRecord(True, "rest", "2025-04-02")]


def unwrap(x):
    return x.update if isinstance(x, Upd) else x.state


class RecipeIdent(FilterDomain):
    """``domain`` with the recipe's identical updates: a delta with no
    moves is one for every table it sits below, deletes included."""

    def __init__(self, domain):
        super().__init__(domain.name, domain.select)

    def ident(self, a, b):
        if isinstance(a, Delta) and isinstance(b, dict):
            return not a.moves and self.le(a, b)
        return super().ident(a, b)


def test_task_deltas_are_the_recipe_instance_but_for_deleting_absent_ids():
    for ids, n_elements, n_deletes_absent in [(DESK_IDS, 25, 11), (["a", "b", "c"], 91, 91)]:
        us = delta_update_space(ids, DESK)
        erased, desk = erased_iposet(us), materialize(dt_domain(), enumerate_dt_universe(ids, DESK))

        # order and merge are the delta domain's, element for element
        assert len(desk.elements) == n_elements
        assert [unwrap(x) for x in erased.elements] == desk.elements
        assert [(unwrap(a), unwrap(b)) for a, b in erased.le_pairs()] == desk.le_pairs()
        assert [tuple(map(unwrap, t)) for t in erased.merge_triples()] == desk.merge_triples()

        # the recipe also counts a delta deleting only absent ids as an identical update
        recipe_ids, desk_ids = [(unwrap(a), unwrap(b)) for a, b in erased.id_pairs()], desk.id_pairs()
        deletes_absent = [(u, t) for u in us.updates for t in us.states if u.deletes and apply_dt(u, t) == t]
        assert [p for p in desk_ids if p not in recipe_ids] == []
        assert [p for p in recipe_ids if p not in desk_ids] == deletes_absent
        assert len(deletes_absent) == n_deletes_absent
        assert check_state_elimination(us).ok

    # which all four filters would break: deleting an id the view does not
    # show is not a no-op on the source
    source = enumerate_dt_universe(DESK_IDS, DESK)
    witness = ({"b": DESK[1]}, Delta(deletes={"b"}))
    for variant in ["plain", "elaborated"]:
        views = [enumerate_og_universe(DESK_IDS, DESK), enumerate_dtdt_universe(DESK_IDS, DESK, TODAY)]
        for lens, view in zip([filter_ongoing(variant), filter_today(variant, TODAY)], views):
            view = view if variant == "elaborated" else source
            assert check_law(lens, LawId.PS_ACCEPTABILITY, source, view).holds
            recipe = PSLens(RecipeIdent(lens.source), RecipeIdent(lens.view), lens.get, lens.put, lens.name)
            report = check_law(recipe, LawId.PS_ACCEPTABILITY, source, view)
            assert not report.holds, (variant, lens.name)
            assert (report.counterexample["s"], report.counterexample["v"]) == witness
            assert recheck_counterexample(recipe, report, source, view)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_update_space_text_round_trip():
    us = g1_violation_space()
    text = dump_update_space(us)
    again = load_update_space(text, name=us.name)
    assert again.states == us.states and again.updates == us.updates
    assert dump_update_space(again) == text


def test_update_space_parse_error():
    with pytest.raises(UpdateSpaceError):
        load_update_space("state s\nbogus x y\n")
    with pytest.raises(UpdateSpaceError, match="line 3: cannot parse 'interp u s'"):
        load_update_space("state s\n# comment\ninterp u s\n")  # wrong arity
    with pytest.raises(UpdateSpaceError, match="at least one state"):
        load_update_space("update u\numerge u u u\n")


@pytest.mark.parametrize(
    "line, kind, name",
    [("ule u v", "update", "v"), ("interp u s t", "state", "t"), ("interp v s s", "update", "v"), ("umerge u u s", "update", "s")],
)
def test_load_update_space_names_the_line_of_an_undeclared_name(line, kind, name):
    with pytest.raises(UpdateSpaceError, match=f"^line 3: no {kind} line declares '{name}'$"):
        load_update_space(f"state s\nupdate u\n{line}\n")


@pytest.mark.parametrize("text", ["state s\nstate s\nupdate u\n", "state s\nupdate u\nupdate u\n"])
def test_load_update_space_rejects_duplicates(text):
    with pytest.raises(UpdateSpaceError, match="duplicate"):
        load_update_space(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("state s\nstate s\nupdate u\n", "line 2: duplicate state 's'"),
        ("state s\nupdate u\n# u again\nupdate u\n", "line 4: duplicate update 'u'"),
        ("state s\nstate t\nupdate u\ninterp u s t\ninterp u t t\ninterp u s s\n", "line 6: interpretation not functional at ('u', 's')"),
        ("state s\nupdate u\nupdate v\numerge u v v\numerge u v u\n", "line 5: merge not functional at ('u', 'v')"),
    ],
)
def test_load_update_space_names_the_line_of_a_repeated_declaration_or_table_line(text, message):
    with pytest.raises(UpdateSpaceError, match=f"^{re.escape(message)}$"):
        load_update_space(text)


def test_load_update_space_accepts_repeated_lines_that_agree():
    text = "state s\nstate t\nupdate u\ninterp u s t\ninterp u s t\numerge u u u\numerge u u u\nule u u\nule u u\n"
    us = load_update_space(text)
    assert us.apply_interp("u", "s") == "t" and us.order.merge("u", "u") == "u"


@pytest.mark.parametrize(
    "states, updates",
    [(["a b"], ["u"]), (["s"], ["u#1"]), ([""], ["u"]), (["s"], ["u\u2028v"]), ([1], ["u"]), (['s"t'], ["u"])],
)
def test_dump_update_space_rejects_tokens_that_do_not_load_back(states, updates):
    us = UpdateSpace(states, updates, [], [(u, u, u) for u in updates], [])
    with pytest.raises(UpdateSpaceError, match="not a bare token"):
        dump_update_space(us)


tokens = st.text(alphabet='ab#"\t \u2028\x1c', max_size=3) | st.text(max_size=3)


@given(st.lists(tokens, min_size=1, max_size=3, unique=True), st.lists(tokens, min_size=1, max_size=3, unique=True))
def test_update_space_text_round_trips_or_dump_refuses(states, updates):
    us = UpdateSpace(
        states,
        updates,
        [(updates[0], u) for u in updates[1:]],
        [(u, u, u) for u in updates] + [(updates[0], u, u) for u in updates[1:]],
        [(u, states[0], states[-1]) for u in updates],
    )
    if not all("#" not in x and '"' not in x and x.split() == [x] for x in states + updates):
        with pytest.raises(ValueError):
            dump_update_space(us)
        return
    text = dump_update_space(us)
    again = load_update_space(text)
    assert again.states == states and again.updates == updates
    assert structurally_equal(again.order, us.order)
    assert dump_update_space(again) == text


TINY = UpdateSpace(["s"], ["u"], [], [("u", "u", "u")], [("u", "s", "s")])
NO_MERGE = FiniteIPoset(["a"], [("a", "a")], [("a", "a")], name="no-merge")
LOWER_BOUNDED = lift_omega(discrete([1]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Delta({"a": "x"}), ValueError, "adds is not a valid task table"),
        (lambda: filter_lens(dt_domain(), "bogus", "x"), ValueError, "unknown variant 'bogus'"),
        (lambda: constant_lens(LOWER_BOUNDED, discrete([9]), 5), InvalidArgsError, "constant 5 is not a view element"),
        (lambda: dup_lens(NO_MERGE), MissingMergeError, "duplication needs a merge operator"),
        (lambda: ran(TINY, "s", "nope"), UpdateSpaceError, "unknown update 'nope'"),
        (lambda: check_sufficient(TINY, "nope"), ValueError, "unknown sufficient condition 'nope'"),
        (lambda: merge_su(TINY, "s", "u"), UpdateSpaceError, "not generated-domain elements: ('s', 'u')"),
        (lambda: apply_su(TINY, "u", "s"), UpdateSpaceError, "not a generated-domain element: 'u'"),
        (lambda: erase("s"), UpdateSpaceError, "not a generated-domain element: 's'"),
    ],
    ids="Delta filter_lens constant_lens dup_lens ran check_sufficient merge_su apply_su erase".split(),
)
def test_library_refusals_give_their_exact_message(call, error, message):
    """Each argument check raises its own error type with its own message;
    a bare state or update is not an element of the generated domain."""
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
