"""Domain-layer tests, cross-validated against brute-force oracles.

The oracles below re-implement the axioms naively from the relation
tables; the library's checkers must agree with them on every generated
fixture, valid or broken.
"""

import collections
import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pslens.iposet import (
    OMEGA,
    UNDEFINED,
    FiniteIPoset,
    InL,
    InR,
    InvalidArgsError,
    IPoset,
    IPosetError,
    MissingMergeError,
    NonMonotonePredicateError,
    ProductIPoset,
    SumIPoset,
    ValidationReport,
    check_duplicable,
    discrete,
    dump_iposet,
    join,
    lift_omega,
    load_iposet,
    materialize,
    powerset_iposet,
    product_iposet,
    restrict_iposet,
    structurally_equal,
    sum_iposet,
    verify_iposet,
)
from pslens.tasks import Delta, TaskRecord, delta_update_space, dt_domain, dtog_domain, enumerate_dt_universe
from pslens.updates import (
    enumerate_update_spaces,
    erased_iposet,
    g1_violation_space,
    g2_violation_space,
    g3_violation_space,
    gen_iposet,
)

from conftest import chain, closure_candidates, generated_iposets, packaged_fixture_domains

# ---------------------------------------------------------------------------
# Independent oracles (kept deliberately naive)
# ---------------------------------------------------------------------------


def oracle_joins(els, le):
    """All least upper bounds, computed by raw enumeration."""
    out = {}
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            ubs = [c for c in els if le(a, c) and le(b, c)]
            least = [c for c in ubs if all(le(c, d) for d in ubs)]
            out[(i, j)] = least[0] if len(least) == 1 else UNDEFINED
    return out


def oracle_is_valid(els, le, idr, merge_triples):
    """True iff the tables satisfy every axiom; naive quantifier nest."""
    for a in els:
        if not le(a, a) or not idr(a, a):
            return False
    for a in els:
        for b in els:
            if idr(a, b) and not le(a, b):
                return False
            if a is not b and le(a, b) and le(b, a):
                return False
            for c in els:
                if le(a, b) and le(b, c) and not le(a, c):
                    return False
    bottoms = [a for a in els if all(le(a, b) for b in els)]
    for omega in bottoms:
        if not all(idr(omega, b) for b in els):
            return False
    joins = oracle_joins(els, le)
    for a, b, r in merge_triples:
        j = joins[(els.index(a), els.index(b))]
        if j is UNDEFINED or j != r:
            return False
    return True


def oracle_is_duplicable(els, le, idr, merge):
    joins = oracle_joins(els, le)
    for a in els:
        for b in els:
            r = merge(a, b)
            if r is UNDEFINED:
                continue
            j = joins[(els.index(a), els.index(b))]
            if j is UNDEFINED or j != r:
                return False
    for z in els:
        ids = [x for x in els if idr(x, z)]
        for x in ids:
            for y in ids:
                r = merge(x, y)
                if r is UNDEFINED or not idr(r, z):
                    return False
    return True


# ---------------------------------------------------------------------------
# Fixture tables
# ---------------------------------------------------------------------------


def diamond():
    els = ["bot", "a", "b", "top"]
    lt = {("bot", "a"), ("bot", "b"), ("bot", "top"), ("a", "top"), ("b", "top")}
    le = list(lt) + [(e, e) for e in els]
    merge = []
    for a in els:
        for b in els:
            ubs = [c for c in els if (a, c) in set(le) and (b, c) in set(le)]
            least = [c for c in ubs if all((c, d) in set(le) for d in ubs)]
            if least:
                merge.append((a, b, least[0]))
    return FiniteIPoset(els, le, le, merge, name="diamond")


def deletion_request_domain(keys, values, identical="permissive"):
    """Key-value maps plus deletion requests, as one domain.

    Maps are mutually incomparable; a deletion set D sits below another
    iff included, and below a map f iff D avoids f's domain.  The
    ``identical`` flavor either equates the identical updates with the
    whole order or requires D to be empty against a map.
    """
    maps = []
    for doms in itertools.chain.from_iterable(
        itertools.combinations(sorted(keys), n) for n in range(len(keys) + 1)
    ):
        for vals in itertools.product(sorted(values), repeat=len(doms)):
            maps.append(("map", tuple(zip(doms, vals))))
    dels = [("del", frozenset(c)) for n in range(len(keys) + 1) for c in itertools.combinations(sorted(keys), n)]
    els = maps + dels

    def le(a, b):
        if a == b:
            return True
        if a[0] == "del" and b[0] == "del":
            return a[1] <= b[1]
        if a[0] == "del" and b[0] == "map":
            return not (a[1] & {k for k, _ in b[1]})
        return False

    def idr(a, b):
        if identical == "permissive":
            return le(a, b)
        if a == b:
            return True
        if a[0] == "del" and b[0] == "del":
            return a[1] <= b[1]
        if a[0] == "del" and b[0] == "map":
            return not a[1]
        return False

    le_pairs = [(a, b) for a in els for b in els if le(a, b)]
    id_pairs = [(a, b) for a in els for b in els if idr(a, b)]
    return els, le_pairs, id_pairs


def with_join_merge(els, le_pairs, id_pairs, name):
    p = FiniteIPoset(els, le_pairs, id_pairs, None, name=name)
    merge = []
    for a in els:
        for b in els:
            j = join(p, a, b)
            if j is not UNDEFINED:
                merge.append((a, b, j))
    return FiniteIPoset(els, le_pairs, id_pairs, merge, name=name)


# ---------------------------------------------------------------------------
# verify_iposet
# ---------------------------------------------------------------------------


def test_discrete_two_point_is_valid():
    assert verify_iposet(discrete([1, 2])).ok


def test_deletion_domain_permissive_flavor_is_valid():
    els, le_pairs, id_pairs = deletion_request_domain({"k1"}, {"v"})
    p = FiniteIPoset(els, le_pairs, id_pairs, None, name="deletions-permissive")
    assert verify_iposet(p).ok


def test_ident_outside_le_is_reported():
    els = [1, 2]
    le = [(1, 1), (2, 2)]
    idr = [(1, 1), (2, 2), (1, 2)]
    p = FiniteIPoset(els, le, idr, validate=False)
    report = verify_iposet(p)
    assert not report.ok
    assert any(v.axiom == "ident-subset-of-le" and v.witness == (1, 2) for v in report.violations)


def test_eager_validation_rejects_broken_tables():
    with pytest.raises(IPosetError):
        FiniteIPoset([1, 2], [(1, 1), (2, 2), (1, 2), (2, 1)], [(1, 1), (2, 2)])


def test_missing_least_identity_is_reported():
    els = ["w", "x"]
    le = [("w", "w"), ("x", "x"), ("w", "x")]
    idr = [("w", "w"), ("x", "x")]  # w is below x but not an identical update for x
    p = FiniteIPoset(els, le, idr, validate=False)
    report = verify_iposet(p)
    assert any(v.axiom == "least-is-identical-update" for v in report.violations)
    assert p.least is None and FiniteIPoset(els, le, le).least == "w"  # designated only when identical


def two_element_tables():
    """All 256 pairs of order and identical-update tables on two elements."""
    els = ["a", "b"]
    base_pairs = [(x, y) for x in els for y in els]
    for le_bits in range(16):
        le = {p for i, p in enumerate(base_pairs) if le_bits >> i & 1}
        for id_bits in range(16):
            yield els, le, {p for i, p in enumerate(base_pairs) if id_bits >> i & 1}


def mutated_fixtures():
    return [chain(3), chain(5), diamond(), lift_omega(discrete([1, 2, 3, 4]))]


def mutations(fixture):
    """The fixture's tables with a reflexive pair dropped, a cycle added,
    or an identical update outside the order."""
    els = fixture.elements
    le_pairs = set(map(tuple, fixture.le_pairs()))
    id_pairs = set(map(tuple, fixture.id_pairs()))
    return [
        (le_pairs - {(els[0], els[0])}, id_pairs - {(els[0], els[0])}),
        (le_pairs | {(els[-1], els[0])}, id_pairs),
        (le_pairs, id_pairs | {(els[-1], els[0])}),
    ]


def test_verify_agrees_with_oracle_on_generated_tables():
    """Exhaustive cross-check on all 2-element tables plus mutations of
    3/4/5-element fixtures."""
    for els, le, idr in two_element_tables():
        p = FiniteIPoset(els, le, idr, validate=False)
        expected = oracle_is_valid(els, lambda a, b: (a, b) in le, lambda a, b: (a, b) in idr, [])
        assert verify_iposet(p).ok == expected, (le, idr)

    for fixture in mutated_fixtures():
        assert verify_iposet(fixture).ok
        els = fixture.elements
        for le_m, id_m in mutations(fixture):
            p = FiniteIPoset(els, le_m, id_m, validate=False)
            expected = oracle_is_valid(
                els, lambda a, b: (a, b) in le_m, lambda a, b: (a, b) in id_m, []
            )
            assert verify_iposet(p).ok == expected


def test_verify_rejects_empty_carrier():
    p = FiniteIPoset([], [], [], validate=False)
    with pytest.raises(InvalidArgsError):
        verify_iposet(p)


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------


def test_join_of_one_sided_pairs():
    p1 = lift_omega(discrete([1]))
    p2 = lift_omega(discrete([2]))
    pair = with_join_merge(
        *_pairs_of(product_iposet(p1, p2)), name="pair_omega"
    )
    assert join(pair, (1, OMEGA), (OMEGA, 2)) == (1, 2)


def _pairs_of(p):
    els = p.elements
    le = [(a, b) for a in els for b in els if p.le(a, b)]
    idr = [(a, b) for a in els for b in els if p.ident(a, b)]
    return els, le, idr


def test_join_is_idempotent_and_commutative_and_respects_bottom():
    for p in [chain(4), diamond(), powerset_iposet({"a", "b"}), lift_omega(discrete([1, 2]))]:
        for x in p.elements:
            assert join(p, x, x) == x
            if p.least is not None:
                assert join(p, p.least, x) == x
        for x in p.elements:
            for y in p.elements:
                assert join(p, x, y) == join(p, y, x)


def test_join_undefined_with_two_incomparable_upper_bounds():
    els = ["a", "b", "c", "d"]
    lt = {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}
    le = list(lt) + [(e, e) for e in els]
    p = FiniteIPoset(els, le, [(e, e) for e in els], name="M-shape")
    ubs = [c for c in els if p.le("a", c) and p.le("b", c)]
    assert sorted(ubs) == ["c", "d"]  # two incomparable upper bounds
    assert join(p, "a", "b") is UNDEFINED


def test_join_agrees_with_oracle_everywhere():
    for p in [chain(5), diamond(), powerset_iposet({"a", "b", "c"}), lift_omega(discrete([1, 2, 3]))]:
        joins = oracle_joins(p.elements, p.le)
        for i, a in enumerate(p.elements):
            for j, b in enumerate(p.elements):
                assert join(p, a, b) == joins[(i, j)] or (
                    join(p, a, b) is UNDEFINED and joins[(i, j)] is UNDEFINED
                )


# ---------------------------------------------------------------------------
# check_duplicable
# ---------------------------------------------------------------------------


def test_pairwise_omega_product_with_join_merge_is_duplicable():
    p1 = lift_omega(discrete([1]))
    p2 = lift_omega(discrete([2]))
    pair = with_join_merge(*_pairs_of(product_iposet(p1, p2)), name="pair_omega")
    assert check_duplicable(pair).ok


def test_discrete_with_diagonal_merge_is_duplicable():
    assert check_duplicable(discrete(["x", "y", "z"])).ok


def test_duplicable_requires_merge_table():
    p = FiniteIPoset([1], [(1, 1)], [(1, 1)])
    with pytest.raises(MissingMergeError):
        check_duplicable(p)


def test_permissive_deletion_domain_duplicability_matches_oracle():
    """The all-identical-updates flavor of the deletion domain, with
    merge taken to be the join itself, agrees with the brute-force
    duplicability oracle (the check passes: joins stay inside each
    identical-update set here)."""
    els, le_pairs, id_pairs = deletion_request_domain({"k1"}, {"v"})
    p = with_join_merge(els, le_pairs, id_pairs, name="deletions-permissive")
    expected = oracle_is_duplicable(p.elements, p.le, p.ident, p.merge)
    assert check_duplicable(p).ok == expected
    assert expected  # join-merge really is total and closed on identicals

    els2, le2, id2 = deletion_request_domain({"k1", "k2"}, {"v"})
    p2 = with_join_merge(els2, le2, id2, name="deletions-permissive-2")
    assert check_duplicable(p2).ok == oracle_is_duplicable(p2.elements, p2.le, p2.ident, p2.merge)


def test_delta_only_merge_fails_closure_on_identicals_of_empty_map():
    """Restricting merge to deletion/deletion pairs breaks totality on
    the identical updates of the empty map, whose identicals include
    every deletion request (e.g. delete-everything) and the map itself."""
    els, le_pairs, id_pairs = deletion_request_domain({"k1"}, {"v"})
    full = with_join_merge(els, le_pairs, id_pairs, name="tmp")
    delta_merge = [
        (a, b, r) for (a, b, r) in full.merge_triples() if a[0] == "del" and b[0] == "del"
    ]
    p = FiniteIPoset(els, le_pairs, id_pairs, delta_merge, name="deletions-delta-merge")
    report = check_duplicable(p)
    assert not report.ok
    empty_map = ("map", ())
    delete_everything = ("del", frozenset({"k1"}))
    assert any(
        v.axiom == "ident-merge-total" and v.witness[2] == empty_map and delete_everything in v.witness
        for v in report.violations
    )
    assert not oracle_is_duplicable(p.elements, p.le, p.ident, p.merge)


def test_check_duplicable_agrees_with_oracle_on_catalog():
    fixtures = [
        chain(4),
        diamond(),
        discrete([1, 2]),
        powerset_iposet({"a", "b"}),
        lift_omega(discrete([1, 2])),
    ]
    for p in fixtures:
        assert check_duplicable(p).ok == oracle_is_duplicable(p.elements, p.le, p.ident, p.merge)


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------


def test_lift_omega_orders_and_identifies_bottom():
    p = lift_omega(discrete([1, 2]))
    assert p.least is OMEGA
    for x in [1, 2]:
        assert p.le(OMEGA, x)
        assert p.ident(OMEGA, x)
        assert not p.le(x, OMEGA)
    assert not p.le(1, 2)
    assert p.merge(OMEGA, 2) == 2 and p.merge(1, OMEGA) == 1


def test_lift_omega_rejects_existing_bottom():
    p = lift_omega(discrete([1]))
    with pytest.raises(InvalidArgsError):
        lift_omega(p)


def test_product_and_sum_preserve_validity():
    ps = [discrete([1, 2]), lift_omega(discrete([1])), chain(3)]
    for a, b in itertools.product(ps, repeat=2):
        assert verify_iposet(product_iposet(a, b)).ok
        assert verify_iposet(sum_iposet(a, b)).ok
        assert verify_iposet(lift_omega(a, bottom=("fresh",))).ok


def test_sum_makes_cross_tags_incomparable():
    p = sum_iposet(chain(2), chain(2))
    assert p.le(InL(0), InL(1))
    assert not p.le(InL(0), InR(1))
    assert not p.ident(InR(0), InL(0))
    assert p.merge(InL(0), InL(1)) == InL(1)
    assert p.merge(InL(0), InR(0)) is UNDEFINED


def test_powerset_merge_partial_when_empty_excluded():
    p = powerset_iposet({"a", "b"})
    fa, fb = frozenset({"a"}), frozenset({"b"})
    assert p.merge(fa, fb) is UNDEFINED
    assert p.least == frozenset({"a", "b"})
    q = powerset_iposet({"a", "b"}, include_empty=True)
    assert q.merge(fa, fb) == frozenset()
    assert verify_iposet(p).ok and verify_iposet(q).ok
    assert check_duplicable(p).ok


def test_restrict_checks_monotonicity():
    p = chain(3)
    sub = restrict_iposet(p, lambda x: x <= 1)  # shape constraints close downward
    assert sub.elements == [0, 1]
    assert verify_iposet(sub).ok
    assert sub.least == 0
    with pytest.raises(NonMonotonePredicateError):
        restrict_iposet(p, lambda x: x >= 1)
    no_top = restrict_iposet(diamond(), lambda x: x != "top")
    assert no_top.merge("a", "b") is UNDEFINED  # the join left the sub-carrier, so the merge is dropped
    assert no_top.name == "diamond_restricted"


def test_restrict_wraps_a_non_enumerable_domain():
    base = dt_domain()
    rec = TaskRecord(False, "write", "2025-04-01")
    sub = restrict_iposet(base, lambda x: "b" not in (x.adds if isinstance(x, Delta) else x), name="no-b")
    assert sub.elements is None and sub.name == "no-b"
    assert sub.least == base.least == Delta()
    add_a, add_b = Delta({"a": rec}), Delta({"b": rec})
    assert base.contains(add_b) and base.contains({"b": rec})
    assert sub.contains(add_a) and sub.contains({"a": rec}) and sub.contains(Delta(deletes={"b"}))
    assert not sub.contains(add_b) and not sub.contains({"b": rec})
    assert sub.le(add_a, {"a": rec}) and sub.ident(add_a, {"a": rec})
    assert sub.merge(Delta(), add_a) == add_a
    assert base.merge(add_a, add_b) == Delta({"a": rec, "b": rec})
    assert sub.merge(add_a, add_b) is UNDEFINED  # the union leaves the restriction
    assert sub.merge(Delta(), {"b": rec}) is UNDEFINED
    assert restrict_iposet(base, lambda x: isinstance(x, dict)).least is None


def test_structural_equality_for_composition_matching():
    p = lift_omega(discrete([1]))
    q = lift_omega(discrete([1]))
    assert structurally_equal(p, q)
    assert structurally_equal(product_iposet(p, q), product_iposet(p, q))
    assert not structurally_equal(p, lift_omega(discrete([2])))


def test_materialize_tabulates_predicates():
    p = chain(4)
    sub = materialize(p, [0, 1, 2], name="chain-prefix")
    assert verify_iposet(sub).ok
    assert sub.merge(1, 2) == 2
    d = diamond()
    with pytest.raises(InvalidArgsError):
        materialize(d, ["bot", "a", "b"])  # merge(a, b) escapes to the dropped top
    dropped = materialize(d, ["bot", "a", "b"], on_escape="drop")
    assert dropped.merge("a", "b") is UNDEFINED


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_iposet_text_round_trip():
    p = with_join_merge(
        ["omega", "x", "y"],
        [("omega", "omega"), ("x", "x"), ("y", "y"), ("omega", "x"), ("omega", "y")],
        [("omega", "omega"), ("x", "x"), ("y", "y"), ("omega", "x"), ("omega", "y")],
        name="vee",
    )
    text = dump_iposet(p)
    q = load_iposet(text, name="vee")
    assert structurally_equal(p, q)
    assert dump_iposet(q) == text


def test_dump_refuses_a_merge_table_without_entries():
    # the grammar has no line for an empty merge table: without merge lines, a file loads with no merge
    p = FiniteIPoset(["a"], [("a", "a")], [("a", "a")], [])
    assert p.has_merge and not load_iposet("elem a\n").has_merge
    with pytest.raises(InvalidArgsError, match="merge table without entries"):
        dump_iposet(p)
    # restriction drops every merge that leaves the sub-carrier, here all of them
    chained = [("lo", "lo"), ("lo", "hi"), ("hi", "hi")]
    two = FiniteIPoset(["lo", "hi"], chained, chained, [("lo", "hi", "hi")])
    low = restrict_iposet(two, lambda x: x == "lo")
    assert low.elements == ["lo"] and low.has_merge and not low.merge_triples()
    with pytest.raises(InvalidArgsError, match="merge table without entries"):
        dump_iposet(low)


def test_every_written_domain_loads_back_equal():
    bases = [discrete(["a"]), discrete(["x", "y", "z"]), chain(3), powerset_iposet({"a", "b"})]
    bases += [powerset_iposet({"a"}, include_empty=True)]
    domains = packaged_fixture_domains() + bases + [lift_omega(p, bottom="bottom") for p in bases]
    written = 0
    for p in domains:
        if not all(isinstance(e, str) for e in p.elements):
            with pytest.raises(InvalidArgsError, match="is not a bare token"):
                dump_iposet(p)
            continue
        text = dump_iposet(p)
        assert structurally_equal(load_iposet(text), p) and dump_iposet(load_iposet(text)) == text, p
        written += 1
    assert written == 9


def test_iposet_text_parse_error():
    with pytest.raises(IPosetError):
        load_iposet("elem a\nwibble a b\n")
    with pytest.raises(IPosetError, match="line 4: cannot parse 'le a  # short'"):
        load_iposet("elem a\n\n# comment\nle a  # short\n")  # wrong arity
    with pytest.raises(InvalidArgsError):
        dump_iposet(discrete([1, 2]))  # non-string elements do not serialize
    with pytest.raises(InvalidArgsError):
        dump_iposet(discrete(["a#b", "c"]))  # '#' would start a comment on load
    with pytest.raises(InvalidArgsError):
        dump_iposet(discrete(['a"b', "c"]))  # '"' would start a quoted token on load


def test_load_iposet_names_the_line_of_an_undeclared_element():
    with pytest.raises(IPosetError, match="^line 2: no elem line declares 'b'$"):
        load_iposet("elem a\nle a b\n")
    assert load_iposet("le a b\nid a b\nelem a\nelem b\n").le("a", "b")  # declared later in the file


@pytest.mark.parametrize(
    "text, message",
    [
        ("elem a\nelem a\n", "line 2: duplicate elem 'a'"),
        ("elem a\n# again\nelem b\nelem a\nmerge a a a\n", "line 4: duplicate elem 'a'"),
        ("elem a\nelem b\nle a b\nmerge a b b\nmerge a b a\n", "line 5: merge not functional at ('a', 'b')"),
        ("elem a\nmerge a a a\nelem b\nmerge a b b\nmerge b a b\n\nmerge a b a\n", "line 7: merge not functional at ('a', 'b')"),
    ],
)
def test_load_iposet_names_the_line_of_a_repeated_declaration_or_merge(text, message):
    with pytest.raises(IPosetError, match=f"^{re.escape(message)}$"):
        load_iposet(text)


def test_load_iposet_accepts_a_repeated_line_that_agrees():
    p = load_iposet("elem a\nelem b\nle a b\nle a b\nid a b\nmerge a b b\nmerge a b b\nmerge a a a\nmerge b b b\nmerge b a b\n")
    assert p.merge("a", "b") == "b" and p.le("a", "b")


def test_the_constructor_keeps_its_own_errors():
    with pytest.raises(IPosetError, match="^duplicate element 'a'$"):
        FiniteIPoset(["a", "a"], [], [])
    with pytest.raises(IPosetError, match=r"^merge not functional at \('a', 'a'\)$"):
        FiniteIPoset(["a", "b"], [], [], [("a", "a", "a"), ("a", "a", "b")], validate=False)


tokens = st.text(alphabet='ab#"\t \u2028\x1c', max_size=3) | st.text(max_size=3)


@given(st.lists(tokens, min_size=1, max_size=4, unique=True))
def test_iposet_text_round_trips_or_dump_refuses(els):
    p = lift_omega(discrete(els), bottom="@bottom")
    if not all("#" not in e and '"' not in e and e.split() == [e] for e in els):
        with pytest.raises(ValueError):
            dump_iposet(p)
        return
    text = dump_iposet(p)
    assert structurally_equal(load_iposet(text), p)


# ---------------------------------------------------------------------------
# The domain checks against their value-level versions
# ---------------------------------------------------------------------------
# join, verify_iposet, _check_merge_sound, check_duplicable and
# FiniteIPoset._find_least as they were before the checks tabled each
# pair once, kept verbatim (the least search as a function) as the oracle.


def value_join(p, a, b):
    els = p.elements
    ubs = [c for c in els if p.le(a, c) and p.le(b, c)]
    for c in ubs:
        if all(p.le(c, d) for d in ubs):
            return c
    return UNDEFINED


def value_verify_iposet(p):
    els = p.elements
    rep = ValidationReport(subject=f"iposet axioms for {p!r}")
    for a in els:
        if not p.le(a, a):
            rep.add("le-reflexive", (a,))
        if not p.ident(a, a):
            rep.add("ident-reflexive", (a,))
    for a, b in itertools.permutations(els, 2):
        if p.le(a, b) and p.le(b, a):
            rep.add("le-antisymmetric", (a, b))
        if p.ident(a, b) and not p.le(a, b):
            rep.add("ident-subset-of-le", (a, b))
    for a, b, c in itertools.product(els, repeat=3):
        if p.le(a, b) and p.le(b, c) and not p.le(a, c):
            rep.add("le-transitive", (a, b, c))
    bottoms = [a for a in els if all(p.le(a, b) for b in els)]
    if bottoms:
        omega = bottoms[0]
        if p.least is not None and not (p.least == omega):
            rep.add("least-designated", (p.least, omega), "designated least differs")
        for b in els:
            if not p.ident(omega, b):
                rep.add("least-is-identical-update", (omega, b))
    if p.has_merge:
        value_check_merge_sound(p, els, rep)
    return rep


def value_check_merge_sound(p, els, rep):
    for a, b in itertools.product(els, repeat=2):
        r = p.merge(a, b)
        if r is UNDEFINED:
            continue
        j = value_join(p, a, b)
        if j is UNDEFINED or not (j == r):
            rep.add("merge-sound", (a, b, r), f"join is {j!r}")


def value_check_duplicable(p):
    els = p.elements
    rep = ValidationReport(subject=f"duplicability of {p!r}")
    value_check_merge_sound(p, els, rep)
    for z in els:
        ids = [x for x in els if p.ident(x, z)]
        for x, y in itertools.product(ids, repeat=2):
            r = p.merge(x, y)
            if r is UNDEFINED:
                rep.add("ident-merge-total", (x, y, z), "merge undefined on identical updates")
            elif not p.ident(r, z):
                rep.add("ident-merge-closed", (x, y, z), f"merge result {r!r} not identical update")
    return rep


def value_find_least(p):
    els = p.elements
    for a in els:
        if all(p.le(a, b) for b in els):
            return a
    return None


def assert_checks_match_value_level(p):
    """Assert the same reports, witnesses, details and designated least;
    return whether either check reports a violation."""
    reports = [(verify_iposet(p), value_verify_iposet(p))]
    if p.has_merge:
        reports.append((check_duplicable(p), value_check_duplicable(p)))
    for new, old in reports:
        assert new == old, p
    if isinstance(p, FiniteIPoset):
        least = value_find_least(p)
        if least is not None and not all(p.ident(least, b) for b in p.elements):
            least = None  # a bottom that is no identical update of every element is not designated
        assert p.least is least, p
    return any(not new.ok for new, _ in reports)


def test_checks_match_value_level_on_packaged_fixtures_and_powersets():
    domains = packaged_fixture_domains() + [powerset_iposet(range(n)) for n in (3, 4, 5)]
    assert len(domains) == 8
    for p in domains:
        assert not assert_checks_match_value_level(p)


def test_checks_match_value_level_on_mutated_invalid_domains():
    tables = list(two_element_tables())
    for fixture in mutated_fixtures():
        tables += [(fixture.elements, le, idr, fixture.merge_triples()) for le, idr in mutations(fixture)]
    failing = 0
    for els, le, idr, *merge in tables:
        for m in [None, *merge]:
            failing += assert_checks_match_value_level(FiniteIPoset(els, le, idr, m, validate=False))
    assert failing > 200


def test_checks_match_value_level_on_generated_and_erased_domains():
    spaces = list(enumerate_update_spaces())
    assert len(spaces) == 266
    one_id = delta_update_space(["k"], [TaskRecord(False, "write", "2025-04-01")])
    spaces += [g1_violation_space(), g2_violation_space(), g3_violation_space(), one_id]
    failing = 0
    for us in spaces:
        failing += assert_checks_match_value_level(gen_iposet(us))
        failing += assert_checks_match_value_level(erased_iposet(us))
    assert failing >= 3  # at least the three necessity fixtures


def desk_universe():
    records = [TaskRecord(False, "write", "2025-04-01"), TaskRecord(True, "rest", "2025-04-02")]
    return enumerate_dt_universe(["a", "b"], records)


def test_checks_match_value_level_on_the_desk_domain():
    desk = materialize(dt_domain(), desk_universe(), name="tasks+deltas@desk")
    assert len(desk.elements) == 25
    assert not assert_checks_match_value_level(desk)


class Counting(IPoset):
    """A domain that counts the queries it forwards to ``inner``."""

    def __init__(self, inner):
        self.inner, self.name, self.least, self.has_merge = inner, inner.name, inner.least, inner.has_merge
        self.calls = collections.Counter()

    @property
    def elements(self):
        return self.inner.elements

    def le(self, a, b):
        self.calls["le"] += 1
        return self.inner.le(a, b)

    def ident(self, a, b):
        self.calls["ident"] += 1
        return self.inner.ident(a, b)

    def merge(self, a, b):
        self.calls["merge"] += 1
        return self.inner.merge(a, b)

    def contains(self, x):
        return self.inner.contains(x)


class OpenCarrier(Counting):
    """``inner``'s queries over an explicit carrier that merges may leave."""

    def __init__(self, inner, elements):
        super().__init__(inner)
        self.carrier = elements

    @property
    def elements(self):
        return self.carrier


class Designated(Counting):
    """``inner`` with another designated ``least``, and with ``inner``'s rows when ``tabled``."""

    def __init__(self, inner, least, tabled):
        super().__init__(inner)
        self.least, self.tabled = least, tabled

    def rows(self):
        return self.inner.rows() if self.tabled else None


def test_checks_match_value_level_on_a_wrong_designated_least():
    for tabled in (False, True):
        p = Designated(chain(3), 2, tabled)
        assert assert_checks_match_value_level(p)
        assert [(v.axiom, v.witness) for v in verify_iposet(p).violations] == [("least-designated", (2, 0))]


def test_checks_match_value_level_on_identicals_merging_outside_the_identicals():
    # a and b are identical updates of z, but their join c is not
    le = [("a", "c"), ("b", "c"), ("a", "z"), ("b", "z"), ("c", "z")] + [(e, e) for e in "abcz"]
    p = with_join_merge(list("abcz"), le, [("a", "z"), ("b", "z")] + [(e, e) for e in "abcz"], name="open")
    assert assert_checks_match_value_level(p) and verify_iposet(p).ok
    closed = [(v.axiom, v.witness) for v in check_duplicable(p).violations]
    assert closed == [("ident-merge-closed", ("a", "b", "z")), ("ident-merge-closed", ("b", "a", "z"))]


def test_checks_ask_each_order_pair_once():
    p = chain(5)
    counted = Counting(p)
    assert verify_iposet(counted).violations == verify_iposet(p).violations == []
    assert counted.calls["le"] <= 25 and counted.calls["ident"] <= 25
    counted = Counting(p)
    assert check_duplicable(counted).violations == check_duplicable(p).violations == []
    assert counted.calls["le"] <= 25


class CountedQueries(FiniteIPoset):
    """A table that counts the ``le`` and ``ident`` queries it answers."""

    calls = 0

    def le(self, a, b):
        self.calls += 1
        return super().le(a, b)

    def ident(self, a, b):
        self.calls += 1
        return super().ident(a, b)


def test_whole_carrier_checks_read_a_tables_rows():
    d = diamond()
    p = CountedQueries(d.elements, d.le_pairs(), d.id_pairs(), d.merge_triples(), name="diamond")
    p.calls = 0
    assert verify_iposet(p).ok and check_duplicable(p).ok
    assert lift_omega(p, bottom="bottom").le("bottom", "a")
    assert dump_iposet(p) == dump_iposet(d)
    assert p.calls == 0


def test_check_duplicable_asks_each_merge_and_ident_pair_once():
    desk = materialize(dt_domain(), desk_universe())
    counted = Counting(desk)
    assert check_duplicable(counted).violations == check_duplicable(desk).violations == []
    assert counted.calls["merge"] <= 625 and counted.calls["ident"] <= 625


def test_check_duplicable_asks_ident_of_merges_outside_the_carrier():
    # without the deltas that touch both ids, merging two one-id deltas leaves the carrier
    one_id = [x for x in desk_universe() if not isinstance(x, Delta) or len({*x.adds, *x.deletes, *x.moves}) < 2]
    p = OpenCarrier(dt_domain(), one_id)
    n = len(one_id)
    report = check_duplicable(p)
    assert p.calls["merge"] == n * n and p.calls["ident"] > n * n
    assert report == value_check_duplicable(p)
    assert any(v.axiom == "merge-sound" for v in report.violations)


def test_checks_on_products_and_sums_match_their_materialized_carrier():
    lifted = lift_omega(discrete([1, 2]))
    # without the diagonal merge at 1, merge is not total on the identical updates of 1
    gappy = FiniteIPoset(
        lifted.elements, lifted.le_pairs(), lifted.id_pairs(), [t for t in lifted.merge_triples() if t[:2] != (1, 1)]
    )
    failing = 0
    for left, right in itertools.product([lifted, gappy], repeat=2):
        for p in (product_iposet(left, right), sum_iposet(left, right)):
            table = materialize(p, p.elements)
            assert verify_iposet(p).violations == verify_iposet(table).violations
            dup = check_duplicable(p).violations
            assert dup == check_duplicable(table).violations
            failing += bool(dup)
    assert failing == 6


# ---------------------------------------------------------------------------
# Bit rows
# ---------------------------------------------------------------------------


def assert_rows_match_relations(p):
    """Bit ``j`` of ``up[i]`` (``id_up[i]``) is ``le`` (``ident``) of the
    ``i``-th and ``j``-th elements, over every ordered pair."""
    els = p.elements
    up, id_up = p.rows()
    assert len(up) == len(id_up) == len(els), p
    for (i, a), (j, b) in itertools.product(enumerate(els), repeat=2):
        assert bool(up[i] >> j & 1) == p.le(a, b), (p, a, b)
        assert bool(id_up[i] >> j & 1) == p.ident(a, b), (p, a, b)
    assert all(row >> len(els) == 0 for row in up + id_up), p


def row_domains():
    """The closure family's domains, their lifts, and nested products and sums of them."""
    points = [discrete([0], name="point"), discrete([0, 1]), discrete([0, 1, 2])]
    pair = product_iposet(lift_omega(discrete([1])), lift_omega(discrete([2])), name="pair-omega")
    tables = points + [chain(3), diamond(), powerset_iposet({"a", "b"}), pair]
    tables += [lift_omega(p, bottom="bottom") for p in tables]
    nested = [
        sum_iposet(product_iposet(chain(3), diamond()), powerset_iposet({"a", "b"})),
        product_iposet(sum_iposet(points[1], diamond()), product_iposet(chain(2), pair)),
        sum_iposet(sum_iposet(points[0], chain(3)), product_iposet(diamond(), points[2])),
    ]
    # unvalidated two-element tables: rows follow the relations, axioms or not
    invalid = [FiniteIPoset(*t, None, validate=False) for t in itertools.islice(two_element_tables(), 0, None, 32)]
    invalid += [q for p in invalid for q in (product_iposet(p, chain(2)), sum_iposet(chain(2), p))]
    return packaged_fixture_domains() + tables + nested + invalid


def test_rows_agree_with_le_and_ident_on_every_pair():
    domains = row_domains()
    assert len(domains) == 46
    for p in domains:
        assert_rows_match_relations(p)


def test_rows_are_none_over_an_abstract_component():
    infinite = restrict_iposet(dt_domain(), lambda x: True)
    for abstract in (dt_domain(), infinite):
        assert abstract.rows() is None
        for p in (product_iposet(abstract, chain(2)), sum_iposet(chain(2), abstract)):
            assert p.rows() is None
            assert product_iposet(chain(2), p).rows() is None


def test_product_and_sum_carriers_are_fresh_lists():
    for p in (product_iposet(chain(2), diamond()), sum_iposet(chain(2), diamond())):
        first = p.elements
        assert p.elements == first and p.elements is not first
        kept = list(first)
        first.clear()
        assert p.elements == kept and all(p.contains(x) for x in kept)


# ---------------------------------------------------------------------------
# Structural equality and shape fingerprints
# ---------------------------------------------------------------------------


def value_structurally_equal(p, q):
    """``structurally_equal`` as it was before shape fingerprints, kept as the oracle."""
    if p is q:
        return True
    if isinstance(p, ProductIPoset) and isinstance(q, ProductIPoset):
        return value_structurally_equal(p.left, q.left) and value_structurally_equal(p.right, q.right)
    if isinstance(p, SumIPoset) and isinstance(q, SumIPoset):
        return value_structurally_equal(p.left, q.left) and value_structurally_equal(p.right, q.right)
    if isinstance(p, FiniteIPoset) and isinstance(q, FiniteIPoset):
        return (p.elements, p._up, p._id_up, p._merge) == (q.elements, q._up, q._id_up, q._merge)
    return False


class Bare(IPoset):
    """An abstract domain that never calls a base ``__init__``."""

    def le(self, a, b):
        return a == b

    def ident(self, a, b):
        return a == b

    def contains(self, x):
        return True


def equality_domains():
    """Generated domains built twice, their lifts, nested products and sums,
    and the edge cases of table and abstract equality."""
    first, second = generated_iposets(), generated_iposets()
    tables = first + second + [lift_omega(p, bottom="bottom") for p in first + second]
    picks = first[::3] + second[::3]
    nested = [f(a, b) for f in (product_iposet, sum_iposet) for a, b in itertools.product(picks, repeat=2)]
    nested += [product_iposet(p, first[0]) for p in nested[::9]] + [sum_iposet(second[0], p) for p in nested[::9]]
    diag = [(0, 0), (1, 1)]
    edges = [
        discrete([0, 1]),
        discrete([1, 2]),
        discrete([1]),
        discrete([True]),
        discrete([frozenset({1})]),
        discrete([{1}]),
        FiniteIPoset([0, 1], diag, diag, None),
        FiniteIPoset([0, 1], diag, diag, [(0, 0, 0), (1, 1, 1)]),
    ]
    a, b = Bare(), Bare()
    filt, infinite = dtog_domain(), restrict_iposet(dt_domain(), lambda x: True)
    abstract = [a, b, filt, infinite]
    abstract += [product_iposet(x, first[0]) for x in (a, a, b, filt, filt)]
    abstract += [sum_iposet(first[1], x) for x in (infinite, infinite, a)]
    abstract += [product_iposet(product_iposet(a, first[0]), sum_iposet(first[1], infinite)) for _ in range(2)]
    return tables + nested + edges + abstract


def test_structural_equality_matches_the_value_oracle_on_every_pair():
    domains = equality_domains()
    matches = 0
    for p, q in itertools.product(domains, repeat=2):
        expected = value_structurally_equal(p, q)
        assert structurally_equal(p, q) == expected, (p, q)
        matches += expected and p is not q
    assert matches > len(domains)  # separately built equal domains do match


def test_structural_equality_matches_the_value_oracle_on_closure_candidates():
    candidates = [lens for _, lens in closure_candidates()]
    assert len(candidates) == 702
    views, sources = [l.view for l in candidates], [l.source for l in candidates]
    got = [structurally_equal(v, s) for v in views for s in sources]
    assert got == [value_structurally_equal(v, s) for v in views for s in sources]
    assert sum(got) == 2915


def test_shapes_are_computed_on_the_first_comparison_only():
    built = [
        FiniteIPoset([0, 1], [(0, 0), (0, 1), (1, 1)], [(0, 0), (0, 1), (1, 1)]),
        materialize(chain(3), [0, 1, 2]),
        gen_iposet(delta_update_space(["k"], [TaskRecord(False, "x", "2025-04-01")])),
        discrete([0, 1]),
    ]
    pair = product_iposet(built[0], built[3])
    assert all("shape" not in vars(p) for p in built + [pair])
    assert not structurally_equal(pair, product_iposet(built[3], built[0]))
    assert "shape" in vars(pair) and "shape" in vars(built[0]) and "shape" in vars(built[3])
    assert all("shape" not in vars(p) for p in built[1:3])


class CountedCarrier(FiniteIPoset):
    """A table that counts the reads of its carrier."""

    reads = 0

    @property
    def elements(self):
        self.reads += 1
        return self._elements


def test_unequal_shapes_are_rejected_without_reading_carriers():
    chained = CountedCarrier([0, 1], [(0, 0), (0, 1), (1, 1)], [(0, 0), (0, 1), (1, 1)])
    flat = CountedCarrier([0, 1], [(0, 0), (1, 1)], [(0, 0), (1, 1)])
    chained.reads = flat.reads = 0
    assert not structurally_equal(chained, flat)
    assert not structurally_equal(product_iposet(chained, chain(2)), product_iposet(flat, chain(2)))
    assert not structurally_equal(sum_iposet(chain(2), chained), sum_iposet(chain(2), flat))
    assert chained.reads == flat.reads == 0



NO_MERGE = FiniteIPoset([1], [(1, 1)], [(1, 1)], name="no-merge")
PAIRS, TAGGED = product_iposet(NO_MERGE, NO_MERGE), sum_iposet(NO_MERGE, NO_MERGE)


def stub_shaped_like(p):
    """An abstract domain claiming ``p``'s shape: equal shapes are confirmed in full."""
    stub = IPoset()
    stub.shape = p.shape
    return stub


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: PAIRS.le(1, (1, 1)), IPosetError("1 is not a pair"), id="product-le-not-a-pair"),
        pytest.param(lambda: PAIRS.merge((1, 1), (1, 1)), UNDEFINED, id="product-merge-without-merge"),
        pytest.param(lambda: TAGGED.merge(InL(1), InL(1)), UNDEFINED, id="sum-merge-without-merge"),
        pytest.param(lambda: PAIRS.contains(1), False, id="product-contains-not-a-pair"),
        pytest.param(lambda: TAGGED.contains(1), False, id="sum-contains-untagged"),
        pytest.param(lambda: NO_MERGE.merge(1, 1), UNDEFINED, id="table-merge-without-merge"),
        pytest.param(lambda: NO_MERGE.merge_triples(), [], id="table-merge-triples-without-merge"),
        pytest.param(
            lambda: join(dt_domain(), Delta(), Delta()),
            InvalidArgsError("<tasks+deltas: inf elements> is not enumerable"),
            id="join-over-an-infinite-domain",
        ),
        pytest.param(lambda: IPoset().merge(1, 2), UNDEFINED, id="abstract-merge"),
        pytest.param(
            lambda: structurally_equal(NO_MERGE, stub_shaped_like(NO_MERGE)), False, id="equal-shape-abstract-stub"
        ),
    ],
)
def test_refusal_branches_give_their_exact_answer(call, expected):
    """The branches where a domain refuses an argument or has no merge,
    each with its exact answer or message."""
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            call()
    else:
        got = call()
        assert type(got) is type(expected) and got == expected
