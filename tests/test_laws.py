"""Law harness: verdicts, self-validating reports, derived lemmas."""

import pytest

from pslens.iposet import discrete, lift_omega
from pslens.lens import (
    PSLens,
    compose,
    constant_lens,
    dup_lens,
    identity_lens,
    product_lens,
)
from pslens.laws import (
    LawId,
    UniverseMismatchError,
    check_composition_closure,
    check_law,
    check_laws,
    fixture_lenses,
    putput_probe,
    recheck_counterexample,
    run_fixture_suite,
)
from pslens.tasks import tasks_domain

from conftest import pair_omega


# ---------------------------------------------------------------------------
# designated verdicts
# ---------------------------------------------------------------------------


def test_fixture_suite_all_verdicts_as_designated():
    lines, ok = run_fixture_suite()
    assert ok, "\n".join(lines)


def test_fixture_suite_runs_exactly_the_named_fixtures():
    assert run_fixture_suite([]) == ([], True)
    lines, ok = run_fixture_suite(["bad"])
    assert ok and len(lines) == 3 and all(line.startswith("bad: ") for line in lines)
    assert len(run_fixture_suite(None)[0]) == len(run_fixture_suite()[0]) == 12


def test_bad_lens_witness_matches_the_two_counter_steps():
    bad = fixture_lenses()["bad"].lens
    report = check_law(bad, LawId.PS_STABILITY)
    assert not report.holds
    w = report.counterexample
    assert (w["s0"], w["s"], w["s'"], w["s''"]) == ("2", "1", "1", "0")


def test_bad_lens_passes_each_weak_law_but_fails_classical_acceptability():
    bad = fixture_lenses()["bad"].lens
    assert check_law(bad, LawId.PS_CONSISTENCY).holds
    assert check_law(bad, LawId.PS_ACCEPTABILITY).holds
    assert not check_law(bad, LawId.CLASSICAL_ACCEPTABILITY).holds
    assert not check_law(bad, LawId.STABILITY).holds


def test_wputget_counterexample_is_unit_omega():
    lens = fixture_lenses()["const-unit-ns"].lens
    report = check_law(lens, LawId.WPUTGET)
    assert not report.holds
    assert (report.counterexample["s0"], report.counterexample["v"]) == ("unit", "omega")
    assert lens.put("unit", "unit") == "unit"
    assert lens.put("unit", "omega") == "omega"


def test_put_nonmono_first_is_lawful_yet_not_monotone():
    lens = fixture_lenses()["put-nonmono-first"].lens
    assert check_law(lens, LawId.WB).holds
    assert lens.put("omega", "unit") == "true"
    assert lens.put("false", "unit") == "false"
    assert not lens.source.le("true", "false")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_failing_reports_are_self_validating():
    catalog = fixture_lenses()
    cases = [
        ("bad", LawId.PS_STABILITY),
        ("bad", LawId.WB),
        ("bad", LawId.CLASSICAL_ACCEPTABILITY),
        ("bad", LawId.STABILITY),
        ("const-unit-ns", LawId.WPUTGET),
    ]
    for name, law in cases:
        lens = catalog[name].lens
        report = check_law(lens, law)
        assert not report.holds
        assert report.counterexample is not None
        assert recheck_counterexample(lens, report), (name, law)


def test_recheck_refuses_passing_reports():
    catalog = fixture_lenses()
    report = check_law(catalog["bad"].lens, LawId.WEAK_WB)
    with pytest.raises(ValueError):
        recheck_counterexample(catalog["bad"].lens, report)


def test_universe_mismatch_raises():
    lens = identity_lens(discrete([1, 2]))
    with pytest.raises(UniverseMismatchError, match="^sample 3 is outside the source carrier$"):
        check_law(lens, LawId.WB, source=[1, 3])


@pytest.mark.parametrize(
    "lens, source, view, message",
    [
        (identity_lens(discrete([1, 2])), None, [4], "sample 4 is outside the view carrier"),
        (identity_lens(tasks_domain(), name="t"), None, [{}], "source of 't' is not enumerable; supply source samples"),
        (identity_lens(tasks_domain(), name="t"), [{}], None, "view of 't' is not enumerable; supply view samples"),
    ],
)
def test_universe_mismatch_names_the_side(lens, source, view, message):
    with pytest.raises(UniverseMismatchError) as exc:
        check_law(lens, LawId.WB, source=source, view=view)
    assert str(exc.value) == message


def test_sampled_universe_is_labelled():
    lens = identity_lens(discrete([1, 2, 3]))
    report = check_law(lens, LawId.WB, source=[1, 2], view=[1, 2])
    assert report.holds and report.universe.startswith("sampled")
    assert check_law(lens, LawId.WB).universe.startswith("exhaustive")


def test_check_laws_runs_every_law():
    lens = identity_lens(lift_omega(discrete([1])))
    reports = check_laws(lens)
    assert {r.law for r in reports} == set(LawId)
    assert all(r.holds for r in reports)



def test_check_laws_of_no_laws_is_no_reports():
    assert check_laws(identity_lens(lift_omega(discrete([1]))), []) == []

# ---------------------------------------------------------------------------
# coincidence and collapse lemmas, executable
# ---------------------------------------------------------------------------


def _classical_pair_lens():
    """First-projection lens over a discrete domain of pairs."""
    pairs = [(a, b) for a in "xy" for b in "01"]
    source = discrete(pairs, name="pairs")
    view = discrete(list("xy"), name="firsts")
    return PSLens(source, view, get=lambda s: s[0], put=lambda s, v: (v, s[1]), name="fst")


def _broken_classical_lens():
    source = discrete(list("ab"))
    view = discrete(list("ab"))
    return PSLens(source, view, get=lambda s: s, put=lambda s, v: "a", name="clobber")


def test_classical_coincidence_on_discrete_domains():
    """With both orders discrete, the ps verdicts equal the classical ones."""
    for lens in [_classical_pair_lens(), _broken_classical_lens()]:
        classical = (
            check_law(lens, LawId.CLASSICAL_CONSISTENCY).holds
            and check_law(lens, LawId.CLASSICAL_ACCEPTABILITY).holds
        )
        assert check_law(lens, LawId.WB).holds == classical
        assert check_law(lens, LawId.WEAK_WB).holds == classical


def test_weak_wb_equals_wb_for_discrete_sources():
    catalog = fixture_lenses()
    discrete_sourced = [f.lens for f in catalog.values() if _is_discrete(f.lens.source)]
    discrete_sourced.append(_classical_pair_lens())
    discrete_sourced.append(_broken_classical_lens())
    assert discrete_sourced
    for lens in discrete_sourced:
        weak = check_law(lens, LawId.WEAK_WB).holds
        full = check_law(lens, LawId.WB).holds
        assert weak == full, lens.name


def _is_discrete(p):
    els = p.elements
    if els is None:
        return False
    return all(p.le(a, b) == (a == b) for a in els for b in els)


def test_derived_lemmas_follow_from_weak_wb_on_catalog():
    """weak-wb implies get-monotone and view-stability; wb additionally
    implies stability and the put-determines-get equation."""
    for fixture in fixture_lenses().values():
        lens = fixture.lens
        if check_law(lens, LawId.WEAK_WB).holds:
            assert check_law(lens, LawId.GET_MONOTONE).holds, lens.name
            assert check_law(lens, LawId.VIEW_STABILITY).holds, lens.name
        if check_law(lens, LawId.WB).holds:
            assert check_law(lens, LawId.STABILITY).holds, lens.name
            assert check_law(lens, LawId.PUT_DETERMINES_GET).holds, lens.name


# ---------------------------------------------------------------------------
# composition closure
# ---------------------------------------------------------------------------


def test_composition_closure_identity_pair():
    p = lift_omega(discrete([1, 2]))
    report = check_composition_closure(identity_lens(p), identity_lens(p))
    assert report.holds


def test_composition_closure_dup_then_parallel_identities():
    p = pair_omega()
    l1 = dup_lens(p)
    l2 = product_lens(identity_lens(p), identity_lens(p))
    assert check_composition_closure(l1, l2).holds


def test_composition_closure_constant_then_identity():
    p = lift_omega(discrete(["s1", "s2"]))
    q = lift_omega(discrete([7]))
    assert check_composition_closure(constant_lens(p, q, 7), identity_lens(q)).holds


def test_composition_closure_rejects_unlawful_inputs():
    bad = fixture_lenses()["bad"].lens
    with pytest.raises(ValueError):
        check_composition_closure(bad, identity_lens(bad.view))


# ---------------------------------------------------------------------------
# putput probe
# ---------------------------------------------------------------------------


def test_putput_probe_fails_for_initiators_with_noop_updates():
    lens = fixture_lenses()["init-nat"].lens
    probe = putput_probe(lens)
    assert not probe.holds
    w = probe.counterexample
    # replays the two-step update whose shortcut disagrees
    assert lens.put(w["s0"], w["v1"]) == w["s1"]
    assert lens.put(w["s1"], w["v2"]) == w["s2"]
    assert lens.put(w["s0"], w["v2"]) != w["s2"]


def test_putput_probe_holds_for_identity():
    assert putput_probe(identity_lens(discrete([1, 2]))).holds


# ---------------------------------------------------------------------------
# unit laws over the whole catalog
# ---------------------------------------------------------------------------


def test_composition_unit_laws_across_fixture_catalog():
    from pslens.lens import compose, is_failure

    for fixture in fixture_lenses().values():
        lens = fixture.lens
        left = compose(identity_lens(lens.source), lens)
        right = compose(lens, identity_lens(lens.view))
        for s in lens.source.elements:
            assert left.get(s) == lens.get(s) == right.get(s)
            for v in lens.view.elements:
                expect = lens.put(s, v)
                for candidate in (left.put(s, v), right.put(s, v)):
                    if is_failure(expect):
                        assert is_failure(candidate) and candidate.reason is expect.reason
                    else:
                        assert candidate == expect
