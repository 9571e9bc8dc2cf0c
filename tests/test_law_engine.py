"""Law engine: the shared per-lens context and the element index behind it."""

import collections
import copy
import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pslens.iposet import ElementIndex, FiniteIPoset, IPoset, IPosetError, discrete, lift_omega, powerset_iposet
from pslens.laws import (
    _COMPOSITES,
    _SCANNERS,
    LawId,
    LawReport,
    ProbeReport,
    UniverseMismatchError,
    _Ctx,
    _scan,
    _universe_for,
    check_law,
    check_laws,
    fixture_lenses,
    putput_probe,
    recheck_counterexample,
)
from pslens.lens import PSLens, PutFailure, Reason, compose, constant_lens, dup_lens, identity_lens, is_failure, product_lens
from pslens.tasks import (
    TaskRecord,
    enumerate_dt_universe,
    enumerate_dtdt_universe,
    enumerate_og_universe,
    filter_ongoing,
    filter_today,
)

from conftest import chain

TODAY = "2025-04-01"
RECORDS = [TaskRecord(False, "n", TODAY), TaskRecord(True, "m", "2025-04-02")]


class CountingDomain(IPoset):
    """Forwards every query to ``inner``, counting ``le`` and ``ident``;
    ``rows`` is passed through, or hidden when ``tabled`` is false."""

    def __init__(self, inner, tabled=True):
        self.inner, self.name, self.least, self.has_merge = inner, inner.name, inner.least, inner.has_merge
        self.tabled = tabled
        self.calls = collections.Counter()

    @property
    def elements(self):
        return self.inner.elements

    def rows(self):
        return self.inner.rows() if self.tabled else None

    def le(self, a, b):
        self.calls["le"] += 1
        return self.inner.le(a, b)

    def ident(self, a, b):
        self.calls["ident"] += 1
        return self.inner.ident(a, b)

    def merge(self, a, b):
        return self.inner.merge(a, b)

    def contains(self, x):
        return self.inner.contains(x)


def counted(lens, tabled=True):
    return dataclasses.replace(lens, source=CountingDomain(lens.source, tabled), view=CountingDomain(lens.view, tabled))


def assert_same_as_law_by_law(lens, source=None, view=None):
    # LawReport equality compares law, holds, counterexample and universe
    together = check_laws(lens, source=source, view=view)
    assert together == [check_law(lens, law, source, view) for law in LawId]
    # a domain's own bit rows give what rows asked of it pair by pair give
    assert together == check_laws(counted(lens, tabled=False), source=source, view=view)


@pytest.mark.parametrize("name", sorted(fixture_lenses()))
def test_check_laws_matches_check_law_on_fixtures(name):
    assert_same_as_law_by_law(fixture_lenses()[name].lens)


def test_check_laws_matches_check_law_on_closure_pool(closure_pool):
    for _, lens in closure_pool[::7]:
        assert_same_as_law_by_law(lens)


def sampled_task_cases():
    """The four filter lenses, each on its sampled task universe."""
    ids = ["a", "b"]
    source = enumerate_dt_universe(ids, RECORDS)
    return [
        (filter_ongoing("plain"), source, source),
        (filter_today("plain", TODAY), source, source),
        (filter_ongoing("elaborated"), source, enumerate_og_universe(ids, RECORDS)),
        (filter_today("elaborated", TODAY), source, enumerate_dtdt_universe(ids, RECORDS, TODAY)),
    ]


def test_check_laws_matches_check_law_on_sampled_task_universe():
    for lens, source, view in sampled_task_cases():
        assert_same_as_law_by_law(lens, source, view)


# ---------------------------------------------------------------------------
# The put-image laws against their literal scanners
# ---------------------------------------------------------------------------
# The three scanners below are the law engine's scanners before it shared
# one image of put(-, v) per view, kept verbatim as the oracle.


def literal_ps_consistency(c: _Ctx):
    for j in range(c.V.n):
        seen: list[tuple[int, int]] = []
        for i in range(c.S.n):
            r = c.put(i, j)
            if is_failure(r) or any(r == r0 for _, r0 in seen):
                continue
            seen.append((i, r))
        for i, r in seen:
            for i2 in range(c.S.n):
                if not c.S.le(r, i2):
                    continue
                if not c.V.le(j, c.get(i2)):
                    return {
                        "s": c.sv(i),
                        "v'": c.vv(j),
                        "put result": c.sv(r),
                        "s'": c.sv(i2),
                        "get s'": c.vv(c.get(i2)),
                    }
    return None


def literal_ps_stability(c: _Ctx):
    for j in range(c.V.n):
        distinct: list[tuple[int, int]] = []  # (s0, put(s0, v)) with distinct results
        for i in range(c.S.n):
            s = c.put(i, j)
            if is_failure(s) or any(s == s1 for _, s1 in distinct):
                continue
            distinct.append((i, s))
        for i0, s in distinct:
            for i2 in range(c.S.n):  # s'
                if not c.S.le(s, i2):
                    continue
                g2 = c.get(i2)
                for j2 in range(c.V.n):  # v''
                    if not (c.V.le(j, j2) and c.V.ident(j2, g2)):
                        continue
                    s2 = c.put(i2, j2)
                    if is_failure(s2):
                        continue  # definedness of put(s', v'') is a hypothesis
                    if not c.S.le(s, s2):
                        return {
                            "s0": c.sv(i0),
                            "v": c.vv(j),
                            "s": c.sv(s),
                            "s'": c.sv(i2),
                            "v''": c.vv(j2),
                            "s''": c.sv(s2),
                        }
    return None


def literal_put_determines_get(c: _Ctx):
    for i in range(c.S.n):
        pool = []
        for j in range(c.V.n):
            defined_below = False
            for i0 in range(c.S.n):
                r = c.put(i0, j)
                if not is_failure(r) and c.S.le(r, i):
                    defined_below = True
                    break
            if defined_below:
                pool.append(j)
        best = None
        for j in pool:
            if all(c.V.le(j2, j) for j2 in pool):
                best = j
                break
        if best is None or c.get(i) != best:
            return {
                "s": c.sv(i),
                "V_s": [c.vv(j) for j in pool],
                "max": None if best is None else c.vv(best),
                "get s": c.vv(c.get(i)),
            }
    return None


LITERAL = {
    LawId.PS_CONSISTENCY: literal_ps_consistency,
    LawId.PS_STABILITY: literal_ps_stability,
    LawId.PUT_DETERMINES_GET: literal_put_determines_get,
}


def failures_against_literal(lens, source=None, view=None):
    """Assert the engine's put-image laws give the literal scanners'
    verdicts and witnesses; return how many of them fail."""
    reports = check_laws(lens, list(LITERAL), source, view)
    fresh = _Ctx(lens, *_universe_for(lens, source, view))
    for report, scan in zip(reports, LITERAL.values()):
        witness = scan(fresh)
        assert (report.holds, report.counterexample) == (witness is None, witness), (lens.name, report.law)
    return sum(not r.holds for r in reports)


def test_put_image_laws_match_literal_scanners_on_fixtures():
    lenses = [f.lens for f in fixture_lenses().values()]
    # every put lands on 2, so a witness must name the first source giving it
    collapse = PSLens(discrete([0, 1, 2]), discrete(["a", "b"]), get=lambda s: "a", put=lambda s, v: 2)
    failing = sum(failures_against_literal(lens) for lens in lenses + [collapse])
    assert failing >= 3  # bad fails ps-stability; collapse ps-consistency and put-determines-get


def test_put_image_laws_match_literal_scanners_on_closure_pool(closure_pool):
    for _, lens in closure_pool[::7]:
        failures_against_literal(lens)


def test_put_image_laws_match_literal_scanners_on_sampled_task_universe():
    for lens, source, view in sampled_task_cases():
        failures_against_literal(lens, source, view)


# ---------------------------------------------------------------------------
# recheck_counterexample and putput_probe against their value-level oracles
# ---------------------------------------------------------------------------
# Both are calls into the law scanners.  The two functions below are their
# bodies from before that, kept verbatim as the oracles.


def value_level_recheck(
    lens,
    report,
    source=None,
    view=None,
):
    """Re-substitute a report's counterexample into the law's formula.

    Returns True when the law instance indeed evaluates to false at the
    witness, i.e. the counterexample is genuine.
    """
    if report.holds or report.counterexample is None:
        raise ValueError("report carries no counterexample")
    w = dict(report.counterexample)
    law = LawId(w.pop("_law")) if "_law" in w else report.law
    S, V = lens.source, lens.view
    get, put = lens.get, lens.put

    def defined(x):
        return not is_failure(x)

    if law is LawId.CLASSICAL_CONSISTENCY:
        r = put(w["s"], w["v'"])
        return defined(r) and not (get(r) == w["v'"])
    if law is LawId.CLASSICAL_ACCEPTABILITY:
        r = put(w["s"], get(w["s"]))
        return not (defined(r) and r == w["s"])
    if law is LawId.STABILITY:
        s = put(w["s0"], w["v"])
        if not defined(s):
            return False
        r = put(s, get(s))
        return not (defined(r) and r == s)
    if law is LawId.PS_CONSISTENCY:
        r = put(w["s"], w["v'"])
        return defined(r) and S.le(r, w["s'"]) and not V.le(w["v'"], get(w["s'"]))
    if law is LawId.PS_ACCEPTABILITY:
        if not V.ident(w["v"], get(w["s"])):
            return False
        r = put(w["s"], w["v"])
        return not (defined(r) and S.ident(r, w["s"]))
    if law is LawId.PS_STABILITY:
        s = put(w["s0"], w["v"])
        if not defined(s) or not S.le(s, w["s'"]):
            return False
        if not (V.le(w["v"], w["v''"]) and V.ident(w["v''"], get(w["s'"]))):
            return False
        s2 = put(w["s'"], w["v''"])
        return defined(s2) and not S.le(s, s2)
    if law is LawId.GET_MONOTONE:
        return S.le(w["s"], w["s'"]) and not V.le(get(w["s"]), get(w["s'"]))
    if law is LawId.VIEW_STABILITY:
        r = put(w["s"], get(w["s"]))
        return not (defined(r) and get(r) == get(w["s"]))
    if law is LawId.WPUTGET:
        s = put(w["s0"], w["v"])
        if not defined(s):
            return False
        r = put(w["s0"], get(s))
        return not (defined(r) and r == s)
    if law is LawId.PUT_DETERMINES_GET:
        rerun = check_law(lens, law, source, view)
        return (not rerun.holds) and rerun.counterexample["s"] == w["s"]
    raise ValueError(f"cannot recheck {law}")


def literal_putput_probe(lens, source=None, view=None):
    src, vw, exhaustive = _universe_for(lens, source, view)
    c = _Ctx(lens, src, vw, exhaustive)
    for i in range(c.S.n):
        for j1 in range(c.V.n):
            s1 = c.put(i, j1)
            if is_failure(s1):
                continue
            for j2 in range(c.V.n):
                s2 = c.put(s1, j2)
                if is_failure(s2):
                    continue
                r = c.put(i, j2)
                if is_failure(r) or r != s2:
                    got = r if is_failure(r) else c.sv(r)
                    witness = {
                        "s0": c.sv(i),
                        "v1": c.vv(j1),
                        "s1": c.sv(s1),
                        "v2": c.vv(j2),
                        "s2": c.sv(s2),
                        "shortcut put": got,
                    }
                    return ProbeReport("putput", False, witness, c.universe)
    return ProbeReport("putput", True, None, c.universe)


# each law's quantified variables, by their witness keys
QUANTIFIED = {
    LawId.CLASSICAL_CONSISTENCY: ("s", "v'"),
    LawId.CLASSICAL_ACCEPTABILITY: ("s",),
    LawId.STABILITY: ("s0", "v"),
    LawId.PS_CONSISTENCY: ("s", "v'", "s'"),
    LawId.PS_ACCEPTABILITY: ("s", "v"),
    LawId.PS_STABILITY: ("s0", "v", "s'", "v''"),
    LawId.GET_MONOTONE: ("s", "s'"),
    LawId.VIEW_STABILITY: ("s",),
    LawId.PUT_DETERMINES_GET: ("s",),
    LawId.WPUTGET: ("s0", "v"),
}

# every put lands on 2, so it fails ps-consistency and put-determines-get
COLLAPSE = PSLens(discrete([0, 1, 2]), discrete(["a", "b"]), get=lambda s: "a", put=lambda s, v: 2)


def rechecks_against_oracle(lens, source=None, view=None):
    """Assert recheck agrees with the value-level oracle on every failing
    report of ``lens``; return how many reports were compared."""
    failing = [r for r in check_laws(lens, source=source, view=view) if not r.holds]
    for report in failing:
        expected = value_level_recheck(lens, report, source, view)
        assert recheck_counterexample(lens, report, source, view) == expected, (lens.name, report.law)
    return len(failing)


def test_recheck_agrees_with_value_level_oracle():
    catalog = [f.lens for f in fixture_lenses().values()] + [COLLAPSE]
    assert sum(rechecks_against_oracle(lens) for lens in catalog) >= 10


def test_recheck_agrees_with_value_level_oracle_on_closure_pool(closure_pool):
    for _, lens in closure_pool[::7]:
        rechecks_against_oracle(lens)


def test_recheck_agrees_with_value_level_oracle_on_sampled_task_universe():
    assert sum(rechecks_against_oracle(lens, source, view) for lens, source, view in sampled_task_cases()) > 0


def test_recheck_agrees_with_value_level_oracle_on_perturbed_witnesses():
    # each quantified variable moved to each other element of its carrier
    verdicts = []
    for lens in [f.lens for f in fixture_lenses().values()] + [COLLAPSE]:
        for report in check_laws(lens):
            if report.holds:
                continue
            w = report.counterexample
            law = LawId(w["_law"]) if "_law" in w else report.law
            for var in QUANTIFIED[law]:
                carrier = lens.source.elements if var[0] == "s" else lens.view.elements
                for x in carrier:
                    if x == w[var]:
                        continue
                    moved = LawReport(report.law, False, {**w, var: x}, report.universe)
                    expected = value_level_recheck(lens, moved)
                    assert recheck_counterexample(lens, moved) == expected, (lens.name, report.law, var, x)
                    verdicts.append(expected)
    # a recheck that always confirmed would fail here
    assert True in verdicts and False in verdicts


def putput_against_oracle(lens, source=None, view=None):
    probe, expected = putput_probe(lens, source, view), literal_putput_probe(lens, source, view)
    assert probe == expected, lens.name
    return not probe.holds


def test_putput_probe_agrees_with_literal_loop():
    lenses = [f.lens for f in fixture_lenses().values()] + [COLLAPSE]
    assert sum(putput_against_oracle(lens) for lens in lenses) >= 1


def test_putput_probe_agrees_with_literal_loop_on_closure_pool(closure_pool):
    for _, lens in closure_pool[::7]:
        putput_against_oracle(lens)


def test_putput_probe_agrees_with_literal_loop_on_sampled_task_universe():
    for lens, source, view in sampled_task_cases():
        putput_against_oracle(lens, source, view)


# ---------------------------------------------------------------------------
# A domain's own bit rows on exhaustive universes, rows asked pair by pair elsewhere
# ---------------------------------------------------------------------------


def product_and_compose_lens():
    a, b = lift_omega(discrete([1, 2]), name="two-omega"), powerset_iposet({"x", "y"})
    first = product_lens(identity_lens(a), dup_lens(b))
    return compose(first, product_lens(constant_lens(a, lift_omega(discrete([1])), 1), identity_lens(first.view.right)))


def test_exhaustive_checks_read_rows_and_ask_the_domain_nothing():
    lenses = [product_and_compose_lens(), COLLAPSE] + [f.lens for f in fixture_lenses().values()]
    failing = 0
    for lens in lenses:
        subject = counted(lens)
        reports = check_laws(subject)
        assert reports == check_laws(lens), lens.name
        assert subject.source.calls + subject.view.calls == collections.Counter(), lens.name
        failing += sum(not r.holds for r in reports)
    assert failing >= 5


def test_row_scanners_at_a_witness_give_it_back():
    # recheck_counterexample runs the scanners on rows grown from the witness; this runs them on the carrier's rows
    scanned = 0
    for lens in [product_and_compose_lens(), COLLAPSE] + [f.lens for f in fixture_lenses().values()]:
        for report in check_laws(lens):
            w = dict(report.counterexample or {})
            law = w.pop("_law", report.law.value)
            if report.holds or law == LawId.PUT_DETERMINES_GET.value:
                continue
            c = _Ctx(lens, *_universe_for(lens, None, None))
            assert c.S.up is not None and _scan(c, law, w) == w, (lens.name, law)
            scanned += 1
    assert scanned >= 5


def test_sampled_checks_keep_the_pairwise_memo():
    lens, source, view = sampled_task_cases()[3]  # the elaborated due-today filter
    subject = counted(lens)
    failures_against_literal(subject, source, view)
    assert (subject.source.calls + subject.view.calls)["le"] > 0


def test_reports_own_their_counterexamples():
    bad = fixture_lenses()["bad"].lens
    laws = [LawId.PS_STABILITY, LawId.WB, LawId.PS_STABILITY]
    reports = check_laws(bad, laws)
    expected = [dict(r.counterexample) for r in reports]
    reports[0].counterexample["s0"] = "mutated"
    reports[1].counterexample.clear()
    assert reports[2].counterexample == expected[2]
    assert check_laws(bad, laws)[0].counterexample == expected[0]


# ---------------------------------------------------------------------------
# Hand-made lenses for the scanner branches the catalog never reaches
# ---------------------------------------------------------------------------


def _stumbling_put(s, v):
    # put(1, v) is undefined, which ps-stability skips as a failed hypothesis
    return PutFailure(Reason.GUARD_FAILED, (s, v)) if s == 1 else {0: 1, 2: 0}[s]


BRANCH_CASES = [
    (
        PSLens(chain(2, "two"), discrete(["a", "b"]), get=lambda s: "ab"[s], put=lambda s, v: s, name="antitone-get"),
        LawId.GET_MONOTONE,
        {"s": 0, "s'": 1, "get s": "a", "get s'": "b"},
    ),
    (
        PSLens(discrete([0, 1]), discrete(["a", "b"]), get=lambda s: "ab"[s], put=lambda s, v: 1, name="lands-on-1"),
        LawId.VIEW_STABILITY,
        {"s": 0, "get s": "a", "get after round-trip": "b"},
    ),
    (
        # put(0, v) = 1; s' = 1 is skipped, and s' = 2 puts back to 0, below s = 1
        PSLens(chain(3, "three"), discrete(["v"]), get=lambda s: "v", put=_stumbling_put, name="stumbles"),
        LawId.PS_STABILITY,
        {"s0": 0, "v": "v", "s": 1, "s'": 2, "v''": "v", "s''": 0},
    ),
]


@pytest.mark.parametrize("lens, law, witness", BRANCH_CASES, ids=[lens.name for lens, _, _ in BRANCH_CASES])
def test_hand_made_lenses_fail_with_the_expected_witness(lens, law, witness):
    report = check_law(lens, law)
    assert not report.holds and report.counterexample == witness
    assert recheck_counterexample(lens, report) and value_level_recheck(lens, report)


def test_probe_reports_print_their_verdict_and_witness():
    toggle = PSLens(discrete([0, 1]), discrete(["a", "b"]), get=lambda s: "a", put=lambda s, v: 1 - s if v == "a" else s)
    probe = putput_probe(toggle)
    assert probe == literal_putput_probe(toggle)
    assert str(probe) == (
        "putput (informational): does not hold [exhaustive finite: 2 source x 2 view] "
        "counterexample: s0=0, v1='a', s1=1, v2='a', s2=0, shortcut put=1"
    )
    assert str(putput_probe(COLLAPSE)) == "putput (informational): holds [exhaustive finite: 3 source x 2 view]"


GET_LEAVES = PSLens(discrete([0, 1]), discrete(["a"]), get=lambda s: "z", put=lambda s, v: s, name="get-leaves")
PUT_LEAVES = PSLens(discrete([0, 1]), discrete(["a"]), get=lambda s: "a", put=lambda s, v: 7, name="put-leaves")
LEAVES_AT_1 = LawReport(LawId.CLASSICAL_ACCEPTABILITY, False, {"s": 1, "v": "a", "put result": 1}, "sampled")


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: check_laws(GET_LEAVES), "broken lens 'get-leaves': get left the view carrier at 0"),
        (lambda: check_laws(GET_LEAVES, source=[1], view=["a"]), "broken lens 'get-leaves': get left the view carrier at 1"),
        (lambda: recheck_counterexample(GET_LEAVES, LEAVES_AT_1), "broken lens 'get-leaves': get left the view carrier at 1"),
        (lambda: check_laws(PUT_LEAVES), "broken lens 'put-leaves': put left the source carrier at (0, 'a')"),
        (lambda: check_laws(PUT_LEAVES, source=[1], view=["a"]), "broken lens 'put-leaves': put left the source carrier at (1, 'a')"),
        (lambda: recheck_counterexample(PUT_LEAVES, LEAVES_AT_1), "broken lens 'put-leaves': put left the source carrier at (1, 'a')"),
    ],
    ids=["get-exhaustive", "get-sampled", "get-recheck", "put-exhaustive", "put-sampled", "put-recheck"],
)
def test_a_lens_that_leaves_its_carrier_is_a_broken_lens(check, message):
    with pytest.raises(ValueError) as info:
        check()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Membership is asked once, where a value enters its universe
# ---------------------------------------------------------------------------


class AskingDomain(CountingDomain):
    """A ``CountingDomain`` that records each value it is asked ``contains`` of."""

    def __init__(self, inner, tabled=True):
        super().__init__(inner, tabled)
        self.asked = []

    def contains(self, x):
        self.asked.append(x)
        return self.inner.contains(x)


def asking(lens, tabled=True):
    return dataclasses.replace(lens, source=AskingDomain(lens.source, tabled), view=AskingDomain(lens.view, tabled))


def test_a_sampled_check_asks_contains_once_per_value_that_enters():
    # identity puts 'c' into a source universe sampled without it, and gets 'a' into the view's
    cases = [(identity_lens(discrete(["a", "b", "c"])), ["a", "b", "a"], ["c", "b", "c"]), *sampled_task_cases()]
    grown = 0
    for lens, source, view in cases:
        subject = asking(lens)
        assert check_laws(subject, source=source, view=view) == check_laws(lens, source=source, view=view)
        c = _Ctx(lens, *_universe_for(lens, source, view))
        for law in LawId:
            if law not in _COMPOSITES:
                _scan(c, law.value)
        # the distinct samples, then each new get or put result, each asked once as it enters
        assert subject.source.asked == c.S.values and subject.view.asked == c.V.values, lens.name
        grown += len(c.S.values) - c.S.n + len(c.V.values) - c.V.n
    assert grown >= 2


@pytest.mark.parametrize("tabled", [True, False])
def test_a_whole_carrier_is_never_asked_contains(tabled):
    lenses = [product_and_compose_lens(), COLLAPSE] + [f.lens for f in fixture_lenses().values()]
    for lens in lenses:
        subject = asking(lens, tabled)
        assert check_laws(subject) == check_laws(lens), lens.name
        assert subject.source.asked == subject.view.asked == [], lens.name
    lens = asking(identity_lens(discrete(["a", "b", "c"])), tabled)
    check_laws(lens, source=["b", "a", "c"])  # the view is its whole carrier
    assert lens.source.asked == ["b", "a", "c"] and lens.view.asked == []


FILTER = filter_ongoing("plain")
FOREIGN_WITNESSES = [
    (fixture_lenses()["bad"].lens, LawId.PS_STABILITY, "s'", "nonsense", "source"),
    (FILTER, LawId.CLASSICAL_ACCEPTABILITY, "s", "not a table", "source"),
    (FILTER, LawId.PS_ACCEPTABILITY, "v", ("not", "a delta"), "view"),
    (FILTER, LawId.STABILITY, "s0", {"a": "not a record"}, "source"),
]


@pytest.mark.parametrize(
    "lens, law, var, value, side", FOREIGN_WITNESSES, ids=["table", "abstract-s", "abstract-v", "abstract-s0"]
)
def test_recheck_refuses_a_witness_outside_the_carrier(lens, law, var, value, side):
    # every quantified variable holds a carrier element but ``var``
    source = lens.source.elements or [{}]
    view = lens.view.elements or [{}]
    names = _SCANNERS[law.value][1]
    witness = {name: (source if name[0] == "s" else view)[0] for name in names}
    report = LawReport(law, False, {**witness, var: value}, "sampled")
    with pytest.raises(UniverseMismatchError) as info:
        recheck_counterexample(lens, report)
    assert str(info.value) == f"witness {var}={value!r} is outside the {side} carrier"


# ---------------------------------------------------------------------------
# ElementIndex
# ---------------------------------------------------------------------------

scalars = st.one_of(st.integers(-2, 2), st.booleans(), st.sampled_from(["", "a", "b"]))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=3),
        st.frozensets(scalars, max_size=3),
        st.sets(scalars, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b"]), inner, max_size=2),
    ),
    max_leaves=6,
)


def first_equal(seq, x):
    for i, v in enumerate(seq):
        if v == x:
            return i
    return -1


@given(st.lists(values, max_size=12), values)
def test_element_index_agrees_with_linear_scan(seq, extra):
    index = ElementIndex(seq)
    for x in seq + [extra]:
        assert index.index(x) == first_equal(seq, x)


@given(st.lists(values, max_size=12))
def test_element_index_intern_appends_only_new_values(seq):
    index = ElementIndex()
    for x in seq:
        i = index.intern(x)
        assert index.values[i] == x and i == first_equal(index.values, x)
    assert all(first_equal(index.values, v) == i for i, v in enumerate(index.values))


def test_element_index_cross_type_equalities():
    index = ElementIndex([{1}, frozenset({1}), 1, True, [0], (0,)])
    assert index.index(frozenset({1})) == 0
    assert index.index({1}) == 0
    assert index.index(True) == 2
    assert index.index([0]) == 4 and index.index((0,)) == 5
    assert index.index("missing") == -1 and index.index(["missing"]) == -1


class ScanningElementIndex:
    """``ElementIndex`` as it was before held unhashable values were found
    by identity, kept verbatim as the oracle of ``index``."""

    __slots__ = ("values", "_first", "_unhashable")

    def __init__(self, values=()):
        self.values: list = []
        self._first: dict = {}
        self._unhashable: list = []
        for v in values:
            self.append(v)

    def append(self, v):
        """Add ``v`` at the end, even when an equal value is present."""
        i = len(self.values)
        self.values.append(v)
        try:
            self._first.setdefault(v, i)
        except TypeError:
            self._unhashable.append((i, v))
        return i

    def index(self, x):
        """First position of a value equal to ``x``, or -1."""
        try:
            i = self._first.get(x, -1)
        except TypeError:
            for i, v in enumerate(self.values):
                if v == x:
                    return i
            return -1
        for j, v in self._unhashable:
            if 0 <= i < j:
                break
            if v == x:
                return j
        return i


cross_type_twins = st.sampled_from([{1}, frozenset({1}), 1, True, 1.0, [0], (0,), {"a": 1}, [], ()])


@given(st.lists(values | cross_type_twins, max_size=10), st.lists(st.integers(0, 30), max_size=6), values)
def test_element_index_agrees_with_the_scanning_index(seq, repeats, extra):
    # duplicates both as the same objects and as equal copies
    seq = seq + [seq[k % len(seq)] for k in repeats if seq] + [copy.deepcopy(v) for v in seq[:3]]
    index, oracle = ElementIndex(seq), ScanningElementIndex(seq)
    interned, interned_oracle = ElementIndex(), ScanningElementIndex()
    for x in seq:
        i = interned_oracle.index(x)
        assert interned.intern(x) == (i if i >= 0 else interned_oracle.append(x))
    for x in seq + [copy.deepcopy(v) for v in seq] + [extra]:
        assert index.index(x) == oracle.index(x)
        assert interned.index(x) == interned_oracle.index(x)


class CountedEq:
    """An unhashable value that counts the equality calls made on it."""

    calls = 0
    __hash__ = None

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        CountedEq.calls += 1
        return isinstance(other, CountedEq) and self.tag == other.tag


def test_finite_iposet_finds_its_carrier_objects_without_equality_calls():
    els = [CountedEq(k) for k in range(4)]
    chain = [(els[i], els[j]) for i in range(4) for j in range(i, 4)]
    p = FiniteIPoset(els, chain, chain, [(els[i], els[j], els[max(i, j)]) for i in range(4) for j in range(4)])
    CountedEq.calls = 0
    answers = [(p.le(a, b), p.ident(a, b), p.merge(a, b)) for a in els for b in els]
    assert p.contains(els[3]) and CountedEq.calls == 0
    assert answers == [(i <= j, i <= j, els[max(i, j)]) for i in range(4) for j in range(4)]
    assert p.contains(CountedEq(3)) and not p.contains(CountedEq(9)) and CountedEq.calls > 0


@pytest.mark.parametrize(
    "elements",
    [[{"k": 1}, {"k": 1}], [[1, 2], [1, 2]], [{1}, frozenset({1})], [frozenset({1}), {1}]],
)
def test_finite_iposet_rejects_unhashable_duplicates(elements):
    with pytest.raises(IPosetError, match="duplicate element"):
        FiniteIPoset(elements, [], [])
