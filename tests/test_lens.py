"""Lens primitives and combinators."""

import itertools

import pytest

from pslens.iposet import (
    OMEGA,
    UNDEFINED,
    FiniteIPoset,
    InL,
    InR,
    InvalidArgsError,
    NonMonotonePredicateError,
    discrete,
    lift_omega,
    product_iposet,
    sum_iposet,
)
from pslens.lens import (
    LensTypeError,
    PSLens,
    PutFailure,
    Reason,
    compose,
    constant_lens,
    dup_lens,
    identity_lens,
    initiator,
    is_failure,
    pipeline,
    product_lens,
    untag_pred,
    untag_s,
)
from pslens.laws import LawId, check_law, check_laws, recheck_counterexample

from conftest import chain, pair_omega

U_LAWS = [LawId.PS_ACCEPTABILITY, LawId.PS_CONSISTENCY]


def same_put(r1, r2):
    """Definedness-sensitive equality, ignoring diagnostic stage tags."""
    if is_failure(r1) or is_failure(r2):
        return is_failure(r1) and is_failure(r2) and r1.reason is r2.reason
    return r1 == r2


# ---------------------------------------------------------------------------
# identity / constant
# ---------------------------------------------------------------------------


def test_identity_trivials():
    ident = identity_lens(chain(5))
    assert ident.get(3) == 3
    assert ident.put(1, 2) == 2


def test_identity_well_behaved_on_every_finite_fixture():
    for p in [chain(4), lift_omega(discrete([1, 2])), pair_omega(), discrete(["a"])]:
        assert check_law(identity_lens(p), LawId.WB).holds


def test_constant_put_returns_bottom_on_identical_updates():
    source = lift_omega(discrete(["s1", "s2"]))
    view = lift_omega(discrete([42]))
    lens = constant_lens(source, view, 42)
    assert lens.get("s1") == 42
    assert lens.put("s1", 42) is OMEGA

    # the fixture's identical updates of 42 are exactly {omega, 42}
    identicals = [v for v in view.elements if view.ident(v, 42)]
    assert identicals == [OMEGA, 42]
    assert lens.put("s1", OMEGA) is OMEGA  # omega is an identical update of 42


def test_constant_guard_failure():
    source = lift_omega(discrete(["s"]))
    view = lift_omega(discrete([41, 42]))
    lens = constant_lens(source, view, 42)
    r = lens.put("s", 41)
    assert is_failure(r) and r.reason is Reason.GUARD_FAILED and r.witness == ("s", 41)
    assert check_law(lens, LawId.WB).holds


def test_constant_requires_lower_bounded_source():
    with pytest.raises(InvalidArgsError):
        constant_lens(discrete([1, 2]), lift_omega(discrete([9])), 9)


# ---------------------------------------------------------------------------
# dup
# ---------------------------------------------------------------------------


def test_dup_merges_one_sided_updates():
    p = pair_omega()
    lens = dup_lens(p)
    s = (1, 2)
    assert lens.get(s) == (s, s)
    assert lens.put(s, ((1, OMEGA), (OMEGA, 2))) == (1, 2)


def test_dup_well_behaved_on_full_lifted_product():
    p = product_iposet(lift_omega(discrete([1, 2])), lift_omega(discrete([1, 2])))
    lens = dup_lens(p)
    assert lens.put((1, 2), ((1, OMEGA), (OMEGA, 2))) == (1, 2)
    assert check_law(lens, LawId.WB).holds


def test_dup_put_is_idempotent_on_equal_copies():
    p = pair_omega()
    lens = dup_lens(p)
    for x in p.elements:
        assert lens.put((1, 2), (x, x)) == x


def test_dup_merge_conflict():
    p = lift_omega(discrete([1, 2]))
    lens = dup_lens(p)
    r = lens.put(OMEGA, (1, 2))
    assert is_failure(r) and r.reason is Reason.MERGE_CONFLICT and r.witness == (1, 2)


def test_dup_rejects_non_duplicable_domain():
    els = ["bot", "x", "y"]
    le = [("bot", "x"), ("bot", "y")] + [(e, e) for e in els]
    # merge missing on (x, y)'s identical-update pairs of nothing -- but also
    # missing the diagonal, which every duplicable domain needs
    p = FiniteIPoset(els, le, le, [("bot", "bot", "bot")], name="no-diagonal")
    with pytest.raises(InvalidArgsError):
        dup_lens(p)


# ---------------------------------------------------------------------------
# composition and product
# ---------------------------------------------------------------------------


def test_compose_type_checks_middle_domain():
    with pytest.raises(LensTypeError):
        compose(identity_lens(chain(2)), identity_lens(chain(3)))


def test_compose_unit_laws_definedness_sensitive():
    source = lift_omega(discrete(["a", "b"]))
    view = lift_omega(discrete([7]))
    lens = constant_lens(source, view, 7)
    left = compose(identity_lens(source), lens)
    right = compose(lens, identity_lens(view))
    for s in source.elements:
        assert left.get(s) == lens.get(s) == right.get(s)
        for v in view.elements:
            assert same_put(left.put(s, v), lens.put(s, v))
            assert same_put(right.put(s, v), lens.put(s, v))


def test_compose_associativity_exhaustively():
    p = chain(3)
    q = lift_omega(discrete(["u"]))
    r = lift_omega(discrete(["t", "f"]))
    l1 = constant_lens(p, q, "u")
    l2 = constant_lens(q, r, "t")
    l3 = identity_lens(r)
    lhs = compose(compose(l1, l2), l3)
    rhs = compose(l1, compose(l2, l3))
    for s in p.elements:
        assert lhs.get(s) == rhs.get(s)
        for v in r.elements:
            assert same_put(lhs.put(s, v), rhs.put(s, v))


def test_product_is_pointwise_and_tags_failing_side():
    p = lift_omega(discrete(["x"]))
    q = lift_omega(discrete([5, 6]))
    ok = identity_lens(p)
    guarded = constant_lens(q, q, 5)
    lens = product_lens(ok, guarded)
    assert lens.get(("x", 5)) == ("x", 5)
    assert lens.put((OMEGA, OMEGA), ("x", 5)) == ("x", OMEGA)
    r = lens.put((OMEGA, OMEGA), ("x", 6))
    assert is_failure(r) and r.reason is Reason.GUARD_FAILED
    assert any(tag.endswith("/right") for tag in r.stage)


def test_product_of_identities_is_identity_pointwise():
    p, q = chain(2), chain(3)
    lens = product_lens(identity_lens(p), identity_lens(q))
    for s in itertools.product(p.elements, q.elements):
        assert lens.get(s) == s
        for v in itertools.product(p.elements, q.elements):
            assert lens.put(s, v) == v


def test_pipeline_composes_left_to_right():
    p = lift_omega(discrete(["a"]))
    lens = pipeline(identity_lens(p), identity_lens(p), identity_lens(p))
    assert lens.put(OMEGA, "a") == "a"
    with pytest.raises(LensTypeError):
        pipeline()


# ---------------------------------------------------------------------------
# untagging
# ---------------------------------------------------------------------------


def test_untag_s_strips_and_restores_tags():
    p = chain(10)
    lens = untag_s(p)
    assert lens.get(InL(5)) == 5
    assert lens.get(InR(7)) == 7
    assert lens.put(InR(7), 9) == InR(9)
    assert lens.put(InL(7), 9) == InL(9)


def test_untag_s_round_trip_is_exact():
    p = lift_omega(discrete([1, 2]))
    lens = untag_s(p)
    for x in lens.source.elements:
        assert lens.put(x, lens.get(x)) == x


def _flower():
    """A least element below three incomparable proper states."""
    return lift_omega(discrete(["a", "b", "c"]), name="flower")


def test_untag_pred_case_table():
    p = _flower()
    phi1 = lambda x: x is OMEGA or x == "a"
    phi2 = lambda x: x is OMEGA or x == "b"
    lens = untag_pred(p, phi1, phi2)
    assert lens.put(InL(OMEGA), "a") == InL("a")  # source tag kept while phi1 holds
    assert lens.put(InR(OMEGA), "b") == InR("b")  # source tag kept while phi2 holds
    assert lens.put(InR("b"), "a") == InL("a")  # only phi1 holds: switch to left
    assert lens.put(InL("a"), "b") == InR("b")  # only phi2 holds: switch to right
    assert lens.put(InL("a"), OMEGA) == InL(OMEGA)  # both hold: keep the source tag
    r = lens.put(InL("a"), "c")  # neither predicate holds
    assert is_failure(r) and r.reason is Reason.GUARD_FAILED


def test_untag_pred_requires_monotone_predicates():
    p = _flower()
    with pytest.raises(NonMonotonePredicateError):
        untag_pred(p, lambda x: x == "a", lambda x: x is OMEGA or x == "b")


def test_untag_pred_is_well_behaved():
    p = _flower()
    lens = untag_pred(p, lambda x: x is OMEGA or x == "a", lambda x: x is OMEGA or x == "b")
    assert check_law(lens, LawId.WB).holds


def test_untag_pred_satisfies_every_law():
    p = lift_omega(discrete([1, 2]))
    lens = untag_pred(p, lambda x: x is OMEGA or x == 1, lambda x: x is OMEGA or x == 2)
    reports = check_laws(lens)
    assert len(reports) == len(LawId)
    assert all(r.holds and r.universe.startswith("exhaustive") for r in reports), [str(r) for r in reports]


# ---------------------------------------------------------------------------
# initiators
# ---------------------------------------------------------------------------


def _nat_initiator(k=5):
    view = lift_omega(discrete(list(range(k))), name="nat_omega")
    source = discrete(list(range(k)), name="nat")

    def apply(v, s):
        return s if v is OMEGA else v

    return initiator(source, view, apply, name="init-nat")


def test_initiator_number_example():
    lens = _nat_initiator(43 + 1)
    assert lens.put(42, 1) == 1
    assert lens.put(1, OMEGA) == 1
    assert lens.put(42, OMEGA) == 42
    assert lens.get(42) == 42


def test_initiator_bottom_is_no_op():
    lens = _nat_initiator()
    for s in lens.source.elements:
        assert lens.view.ident(OMEGA, s)
        assert lens.put(s, OMEGA) == s


def test_initiator_out_of_domain():
    view = lift_omega(discrete([0, 1]))
    source = discrete([0, 1])

    def apply(v, s):
        return UNDEFINED if v == 1 else (s if v is OMEGA else v)

    lens = initiator(source, view, apply)
    r = lens.put(0, 1)
    assert is_failure(r) and r.reason is Reason.OUT_OF_DOMAIN


def test_u_laws_hold_for_nat_initiator():
    lens = _nat_initiator()

    def apply(v, s):
        return s if v is OMEGA else v

    states = lens.source.elements
    deltas = lens.view.elements
    reports = check_laws(initiator(lens.source, lens.view, apply), U_LAWS, states, deltas)
    assert [r.holds for r in reports] == [True, True]


def test_u_law_checkers_catch_violations():
    source = discrete([0, 1])
    view = lift_omega(source)

    def clobbering(v, s):  # ignores identical updates: applies omega as 0
        return 0 if v is OMEGA else v

    def shrinking(v, s):  # returns something unrelated to the intention
        return 0

    for apply, law in [(clobbering, LawId.PS_ACCEPTABILITY), (shrinking, LawId.PS_CONSISTENCY)]:
        lens = initiator(source, view, apply)
        reports = check_laws(lens, U_LAWS, [0, 1], view.elements)
        assert not reports[U_LAWS.index(law)].holds
        for rep in reports:
            assert rep.holds or recheck_counterexample(lens, rep, [0, 1], view.elements)


def test_constructor_contract_well_behaved():
    """Every constructor-built lens over lawful inputs passes wb."""
    p = lift_omega(discrete([1, 2]))
    q = pair_omega()
    lenses = [
        identity_lens(p),
        constant_lens(p, p, 1),
        dup_lens(q),
        untag_s(p),
        product_lens(identity_lens(p), constant_lens(p, p, 2)),
        compose(dup_lens(q), product_lens(identity_lens(q), identity_lens(q))),
        _nat_initiator(3),
    ]
    for lens in lenses:
        assert check_law(lens, LawId.WB).holds, lens.name
