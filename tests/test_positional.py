"""The positional form against the pair-based forms it replaced.

Builders hand ``FiniteIPoset`` rows and a merge dict keyed by position,
the merge checks read merges by position (``iposet._merges``), and every
law universe has bit rows, and the duplicability conditions of update
spaces read reach rows.  The oracles below are the earlier pair-based
builders, the value-matrix merge check, the value-level condition loops
and the per-pair-memo law space, kept verbatim apart from their names.
"""

import itertools
import random
import time

import pytest
from hypothesis import given

from pslens.iposet import (
    OMEGA,
    UNDEFINED,
    ElementIndex,
    FiniteIPoset,
    InvalidArgsError,
    IPoset,
    IPosetError,
    NonMonotonePredicateError,
    ValidationReport,
    _ask,
    _bits,
    _least,
    _require_enumerable,
    _row_pairs,
    _rows,
    check_duplicable,
    discrete,
    lift_omega,
    materialize,
    powerset_iposet,
    product_iposet,
    restrict_iposet,
    structurally_equal,
    verify_iposet,
)
from pslens.laws import _COMPOSITES, LawId, _Ctx, _scan, _Space, check_law, check_laws, fixture_lenses, recheck_counterexample
from pslens.lens import identity_lens
from pslens.tasks import (
    Delta,
    TaskRecord,
    delta_update_space,
    dt_domain,
    enumerate_dt_universe,
    enumerate_dtdt_universe,
    enumerate_og_universe,
    filter_ongoing,
    filter_today,
)
from pslens.updates import (
    Pair,
    Proper,
    Upd,
    UpdateSpace,
    check_condition,
    check_state_elimination,
    check_sufficient,
    dump_update_space,
    enumerate_update_spaces,
    erased_iposet,
    g1_violation_space,
    g2_violation_space,
    g3_violation_space,
    gen_iposet,
    merge_su,
    ran,
)

from conftest import chain, closure_candidates, generated_iposets, packaged_fixture_domains, three_update_spaces

TODAY = "2025-04-01"
DESK = [TaskRecord(False, "write", TODAY), TaskRecord(True, "rest", "2025-04-02")]

# ---------------------------------------------------------------------------
# The pair-based builders
# ---------------------------------------------------------------------------


def pair_materialize(p, elements, name="", on_escape="error"):
    els = list(elements)
    le, idr = _row_pairs(els, _ask(p.le, els)), _row_pairs(els, _ask(p.ident, els))
    merge = None
    if p.has_merge:
        merge = []
        carrier = ElementIndex(els)
        for a, b in itertools.product(els, repeat=2):
            r = p.merge(a, b)
            if r is UNDEFINED:
                continue
            if carrier.index(r) < 0:
                if on_escape == "drop":
                    continue
                raise InvalidArgsError(f"merge result {r!r} escapes the sub-carrier")
            merge.append((a, b, r))
    return FiniteIPoset(els, le, idr, merge, name=name or f"{p.name or 'domain'}@{len(els)}")


def pair_discrete(elements, name=""):
    els = list(elements)
    diag = [(e, e) for e in els]
    return FiniteIPoset(els, diag, diag, [(e, e, e) for e in els], name=name)


def pair_lift_omega(p, bottom=OMEGA, name=""):
    els = _require_enumerable(p)
    if bottom in els:
        raise InvalidArgsError(f"bottom {bottom!r} already in carrier")
    new_els = [bottom] + list(els)
    below = [(bottom, e) for e in new_els]
    le, idr = (below + _row_pairs(els, rows) for rows in _rows(p, els))
    merge = [(bottom, e, e) for e in new_els] + [(e, bottom, e) for e in els]
    if p.has_merge:
        merge += [(a, b, r) for a in els for b in els for r in [p.merge(a, b)] if r is not UNDEFINED]
    return FiniteIPoset(new_els, le, idr, merge, name=name or (p.name + "_lifted" if p.name else ""))


def pair_powerset_iposet(base, include_empty=False, name=""):
    universe = frozenset(base)
    sizes = range(0 if include_empty else 1, len(universe) + 1)
    els = [frozenset(c) for n in sizes for c in itertools.combinations(sorted(universe), n)]
    le = [(a, b) for a, b in itertools.product(els, repeat=2) if a >= b]
    merge = []
    for a, b in itertools.product(els, repeat=2):
        r = a & b
        if r or include_empty:
            merge.append((a, b, r))
    return FiniteIPoset(els, le, le, merge, name=name or f"powerset({set(universe)!r})")


def pair_restrict_iposet(p, pred, name=""):
    els = p.elements
    kept = sum(1 << i for i, e in enumerate(els) if pred(e))
    for i, row in enumerate(_rows(p, els)[0]):
        if row & kept and not kept >> i & 1:
            raise NonMonotonePredicateError(f"predicate not monotone at {(els[i], els[next(_bits(row & kept))])!r}")
    sub = [els[i] for i in _bits(kept)]
    return pair_materialize(p, sub, name=name or (p.name + "_restricted" if p.name else ""), on_escape="drop")


def pair_recipe(us, blocks, name):
    order = us.order.rows()[0]
    carrier = [Proper(s) for s in us.states]
    up = [1 << i for i in range(len(carrier))]
    id_up, merge = list(up), [(p, p, p) for p in carrier]
    goes = {key: 1 << r for key, r in us._interp.items()}  # (update, origin) -> its result's bit
    for origins, tagged in blocks:
        base = len(carrier)
        carrier += tagged
        for k, x in enumerate(tagged):
            reach = fix = 0
            for i in origins:
                for l in _bits(order[k]):
                    reach |= goes.get((l, i), 0)
                fix |= goes.get((k, i), 0) & 1 << i
            up.append(order[k] << base | reach)
            id_up.append(order[k] << base | fix)
            merge += [t for j in _bits(reach) for t in ((x, carrier[j], carrier[j]), (carrier[j], x, carrier[j]))]
        merge += [(tagged[k], tagged[l], tagged[m]) for (k, l), m in us.order._merge.items()]
    return FiniteIPoset(carrier, _row_pairs(carrier, up), _row_pairs(carrier, id_up), merge, name=name, validate=False)


def pair_gen_iposet(us):
    blocks = [([i], [Pair(s, u) for u in us.updates]) for i, s in enumerate(us.states)]
    out = pair_recipe(us, blocks, us.name or "generated")
    if any(v.axiom == "least-is-identical-update" for v in matrix_verify_iposet(out).violations):
        out.least = None
    return out


def pair_erased_iposet(us):
    return pair_recipe(us, [(range(len(us.states)), [Upd(u) for u in us.updates])], (us.name or "generated") + "-erased")


def assert_same_table(new, old):
    """Elements, rows, merge dict, least, name and shape all agree."""
    assert type(new) is FiniteIPoset and new.elements == old.elements, old
    assert new.rows() == old.rows() and new._merge == old._merge, old
    assert (new.least, new.name, new.shape) == (old.least, old.name, old.shape), old
    assert (new.least is None) == (old.least is None), old


def base_domains():
    """The packaged fixtures and the closure family's generated domains."""
    return packaged_fixture_domains() + generated_iposets()


def test_discrete_and_powerset_match_the_pair_builders():
    carriers = [[0], [0, 1], [0, 1, 2], ["a", "b"], [True], [frozenset({1})], [{1}], [[0], [1]], [{"k": 1}, {"k": 2}]]
    for els in carriers:
        assert_same_table(discrete(els, name="d"), pair_discrete(els, name="d"))
    for base, empty in itertools.product([{"a"}, {"a", "b"}, range(3), range(5)], [False, True]):
        assert_same_table(powerset_iposet(base, empty), pair_powerset_iposet(base, empty))
    for els in ([0, 0], [{1}, frozenset({1})], [[1], [1]]):
        for build in (discrete, pair_discrete):
            with pytest.raises(IPosetError, match="duplicate element"):
                build(els)


def test_lift_omega_matches_the_pair_builder_on_tables_and_products():
    domains = base_domains()
    domains += [product_iposet(p, q) for p, q in itertools.product(generated_iposets()[:6:2], repeat=2)]
    lifted = 0
    for p in domains:
        bottom = "bottom" if OMEGA in p.elements else OMEGA
        assert_same_table(lift_omega(p, bottom), pair_lift_omega(p, bottom))
        lifted += isinstance(p.elements[0], tuple)
    assert lifted >= 10  # lift_omega of products, the pair-omega domain included


def test_lift_omega_refuses_what_the_pair_builder_refuses():
    p = discrete([1, 2])
    for build in (lift_omega, pair_lift_omega):
        with pytest.raises(InvalidArgsError, match="already in carrier"):
            build(p, bottom=1)
    # a chain whose merge leaves the carrier: its lift has no table
    open_merge = Escaping(chain(2, "two"), 7)
    for build in (lift_omega, pair_lift_omega):
        with pytest.raises(IPosetError, match="7 is not a carrier element"):
            build(open_merge)


class Escaping(IPoset):
    """``inner`` with rows, whose merge of its last element with itself is
    ``result``; ``le`` and ``ident`` are false off the carrier."""

    def __init__(self, inner, result):
        self.inner, self.name, self.least, self.has_merge, self.result = inner, inner.name, inner.least, True, result

    @property
    def elements(self):
        return self.inner.elements

    def rows(self):
        return self.inner.rows()

    def le(self, a, b):
        return self.contains(a) and self.contains(b) and self.inner.le(a, b)

    def ident(self, a, b):
        return self.contains(a) and self.contains(b) and self.inner.ident(a, b)

    def merge(self, a, b):
        last = self.inner.elements[-1]
        return self.result if a == b == last else self.inner.merge(a, b)

    def contains(self, x):
        return self.inner.contains(x)


def one_id_universe():
    """The desk universe without the deltas touching both ids: merging two one-id deltas leaves it."""
    desk = enumerate_dt_universe(["a", "b"], DESK)
    return [x for x in desk if not isinstance(x, Delta) or len({*x.adds, *x.deletes, *x.moves}) < 2]


def test_materialize_and_restrict_match_the_pair_builders():
    for p in base_domains():
        els = p.elements
        for sub in (els, els[::-1], els[: len(els) // 2 + 1]):
            for on_escape in ("error", "drop"):
                try:
                    expected = pair_materialize(p, sub, on_escape=on_escape)
                except IPosetError as e:
                    with pytest.raises(type(e)) as got:
                        materialize(p, sub, on_escape=on_escape)
                    assert str(got.value) == str(e)
                    continue
                assert_same_table(materialize(p, sub, on_escape=on_escape), expected)
        least = p.least
        for pred in (lambda x: True, lambda x: x == least, lambda x: x != els[-1]):
            try:
                expected = pair_restrict_iposet(p, pred)
            except (NonMonotonePredicateError, IPosetError) as e:
                with pytest.raises(type(e)):
                    restrict_iposet(p, pred)
                continue
            assert_same_table(restrict_iposet(p, pred), expected)


def test_materialize_of_an_escaping_merge_matches_the_pair_builder():
    sub = one_id_universe()
    assert_same_table(materialize(dt_domain(), sub, on_escape="drop"), pair_materialize(dt_domain(), sub, on_escape="drop"))
    errors = []
    for build in (materialize, pair_materialize):
        with pytest.raises(InvalidArgsError, match="escapes the sub-carrier") as e:
            build(dt_domain(), sub)
        errors.append(str(e.value))
    assert errors[0] == errors[1]
    for build in (materialize, pair_materialize):
        with pytest.raises(IPosetError, match="duplicate element"):
            build(dt_domain(), sub + sub[:1], on_escape="drop")
        with pytest.raises(InvalidArgsError, match="escapes the sub-carrier"):
            build(dt_domain(), sub + sub[:1])


def update_spaces():
    """The 266 enumerated spaces, the three necessity fixtures and the delta spaces at 1 and 2 ids."""
    spaces = list(enumerate_update_spaces())
    spaces += [g1_violation_space(), g2_violation_space(), g3_violation_space()]
    spaces += [delta_update_space(["k"], DESK[:1]), delta_update_space(["a", "b"], DESK)]
    assert len(spaces) == 271
    return spaces


def test_recipe_tables_match_the_pair_builder_on_every_update_space():
    for us in update_spaces():
        assert_same_table(gen_iposet(us), pair_gen_iposet(us))
        assert_same_table(erased_iposet(us), pair_erased_iposet(us))


# ---------------------------------------------------------------------------
# The merge checks against the value-matrix check
# ---------------------------------------------------------------------------


def matrix_check_merge_sound(p, els, up, rep):
    merged = [[p.merge(a, b) for b in els] for a in els]
    for (i, a), (j, b) in itertools.product(enumerate(els), repeat=2):
        r = merged[i][j]
        if r is UNDEFINED:
            continue
        k = _least(up[i] & up[j], up)
        lub = UNDEFINED if k is None else els[k]
        if lub is UNDEFINED or not (lub == r):
            rep.add("merge-sound", (a, b, r), f"join is {lub!r}")
    return merged


def matrix_verify_iposet(p):
    els = _require_enumerable(p)
    rep = ValidationReport(subject=f"iposet axioms for {p!r}")
    up, id_up = _rows(p, els)
    for i, a in enumerate(els):
        if not up[i] >> i & 1:
            rep.add("le-reflexive", (a,))
        if not id_up[i] >> i & 1:
            rep.add("ident-reflexive", (a,))
    for i, a in enumerate(els):
        for j in _bits((up[i] | id_up[i]) & ~(1 << i)):
            if not up[i] >> j & 1:
                rep.add("ident-subset-of-le", (a, els[j]))
            elif up[j] >> i & 1:
                rep.add("le-antisymmetric", (a, els[j]))
    for i, a in enumerate(els):
        for j in _bits(up[i]):
            for k in _bits(up[j] & ~up[i]):
                rep.add("le-transitive", (a, els[j], els[k]))
    full = (1 << len(els)) - 1
    k = _least(full, up)
    if k is not None:
        omega = els[k]
        if p.least is not None and not (p.least == omega):
            rep.add("least-designated", (p.least, omega), "designated least differs")
        for j in _bits(full & ~id_up[k]):
            rep.add("least-is-identical-update", (omega, els[j]))
    if p.has_merge:
        matrix_check_merge_sound(p, els, up, rep)
    return rep


def matrix_check_duplicable(p):
    els = _require_enumerable(p)
    rep = ValidationReport(subject=f"duplicability of {p!r}")
    up, id_up = _rows(p, els)
    merged = matrix_check_merge_sound(p, els, up, rep)
    carrier = ElementIndex(els)
    for k, z in enumerate(els):
        ids = [(i, x) for i, (x, row) in enumerate(zip(els, id_up)) if row >> k & 1]
        for (i, x), (j, y) in itertools.product(ids, repeat=2):
            r = merged[i][j]
            if r is UNDEFINED:
                rep.add("ident-merge-total", (x, y, z), "merge undefined on identical updates")
            elif not (id_up[m] >> k & 1 if (m := carrier.index(r)) >= 0 else p.ident(r, z)):
                rep.add("ident-merge-closed", (x, y, z), f"merge result {r!r} not identical update")
    return rep


def matrix_check_state_elimination(us):
    rep = ValidationReport(subject=f"state elimination for {us.name or 'update space'}")
    for v in matrix_verify_iposet(erased_iposet(us)).violations:
        rep.add("erased-" + v.axiom, v.witness, v.detail)
    return rep


class Asked(IPoset):
    """``inner`` without rows, so every check asks it per pair."""

    def __init__(self, inner, elements=None):
        self.inner, self.name, self.least, self.has_merge = inner, inner.name, inner.least, inner.has_merge
        self.carrier = inner.elements if elements is None else elements

    @property
    def elements(self):
        return self.carrier

    def le(self, a, b):
        return self.inner.le(a, b)

    def ident(self, a, b):
        return self.inner.ident(a, b)

    def merge(self, a, b):
        return self.inner.merge(a, b)

    def contains(self, x):
        return self.inner.contains(x)


def assert_reports_match_the_matrix(p):
    """Identical reports, witnesses, details and order; return how many fail."""
    reports = [(verify_iposet(p), matrix_verify_iposet(p))]
    if p.has_merge:
        reports.append((check_duplicable(p), matrix_check_duplicable(p)))
    for new, old in reports:
        assert new == old, p
        # a merge result equal to a carrier element is reported as that element,
        # so only a table, whose merge gives its own elements, prints the same
        assert str(new) == str(old) or not isinstance(p, FiniteIPoset), p
    return sum(not new.ok for new, _ in reports)


def test_merge_checks_match_the_value_matrix():
    domains = base_domains() + [powerset_iposet(range(n)) for n in (3, 4, 5)]
    domains += [lift_omega(p, bottom="bottom") for p in generated_iposets()]
    domains += [Asked(p) for p in domains]  # no rows, and merges asked of a table per pair
    desk = materialize(dt_domain(), enumerate_dt_universe(["a", "b"], DESK))
    domains += [desk, Asked(dt_domain(), desk.elements), Asked(dt_domain(), one_id_universe())]
    domains += [Escaping(chain(3, "chain-3"), 7), Escaping(chain(3, "chain-3"), 1)]
    # two-element tables with every merge of the carrier, valid or not
    els = ["x", "y"]
    for le, merge in itertools.product(
        [[("x", "x"), ("y", "y")], [("x", "x"), ("x", "y"), ("y", "y")]],
        itertools.product([None, "x", "y"], repeat=4),
    ):
        triples = [(a, b, r) for (a, b), r in zip(itertools.product(els, repeat=2), merge) if r is not None]
        domains.append(FiniteIPoset(els, le, le, triples, validate=False))
    failing = sum(assert_reports_match_the_matrix(p) for p in domains)
    assert failing > 100


def test_state_elimination_and_generated_checks_match_the_value_matrix():
    failing = 0
    for us in update_spaces():
        assert check_state_elimination(us) == matrix_check_state_elimination(us)
        failing += assert_reports_match_the_matrix(gen_iposet(us))
        failing += not check_state_elimination(us).ok
    assert failing >= 3


def test_gen_iposet_at_three_ids_matches_ran_and_merge_su_on_sampled_pairs():
    us = delta_update_space(["a", "b", "c"], DESK)
    start = time.perf_counter()
    domain = gen_iposet(us)
    seconds = time.perf_counter() - start
    els = domain.elements
    assert len(els) == 1755
    assert seconds <= 2.0  # 10 s through the value-level merge check; about 0.2 s by position

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

    rng = random.Random(22)
    # uniform pairs, and pairs of one origin, where order and merge are mostly defined
    by_origin = [[x for x in els if isinstance(x, Pair) and x.state == s] for s in us.states]
    pairs = [tuple(rng.sample(els, 2)) for _ in range(2000)]
    pairs += [(rng.choice(block), rng.choice(block)) for block in rng.choices(by_origin, k=2000)]
    pairs += [(x, Proper(s)) for x in rng.sample(els[27:], 500) for s in ran(us, x.state, x.update)[:1]]
    defined = 0
    for a, b in pairs:
        assert domain.le(a, b) == le(a, b) and domain.ident(a, b) == ident(a, b), (a, b)
        expected = merge_su(us, a, b)
        got = domain.merge(a, b)
        assert got is UNDEFINED if expected is UNDEFINED else got == expected, (a, b)
        defined += expected is not UNDEFINED
    assert defined > 1000


# ---------------------------------------------------------------------------
# The duplicability conditions against the value-level loops
# ---------------------------------------------------------------------------


def value_ran(us, s, u):
    """Possible results of ``u`` at origin ``s``: outcomes of any
    refinement ``u' >= u`` whose semantics is defined at ``s``."""
    out = []
    for k in _bits(us.order.rows()[0][us._u(u)]):
        r = us.apply_interp(us.order.elements[k], s)
        if r is not UNDEFINED and r not in out:
            out.append(r)
    return out


def value_check_condition(us, which):
    """Check one of the duplicability conditions G1, G2, G3."""
    rep = ValidationReport(subject=f"{which} on {us.name or 'update space'}")
    if which == "G1":
        for u1, u2 in itertools.product(us.updates, repeat=2):
            u = us.order.merge(u1, u2)
            if u is UNDEFINED:
                continue
            for s in us.states:
                reach = value_ran(us, s, u)
                for s2 in value_ran(us, s, u1):
                    if s2 in value_ran(us, s, u2) and s2 not in reach:
                        rep.add("G1-ran-respected", (s, u1, u2, s2), "shared result lost by merged update")
    elif which == "G2":
        for u in us.updates:
            down = [u2 for u2 in us.updates if us.order.le(u2, u)]
            for a, b in itertools.product(down, repeat=2):
                if us.order.merge(a, b) is UNDEFINED:
                    rep.add("G2-total-on-downsets", (a, b, u), "merge undefined below a common bound")
    elif which == "G3":
        for s in us.states:
            fixing = [u for u in us.updates if us.apply_interp(u, s) == s]
            for a, b in itertools.product(fixing, repeat=2):
                r = us.order.merge(a, b)
                if r is UNDEFINED:
                    rep.add("G3-total-on-fixers", (a, b, s), "identical updates cannot merge")
                elif not (us.apply_interp(r, s) == s):
                    rep.add("G3-closed-on-fixers", (a, b, s), f"merged update moves the state via {r!r}")
    else:
        raise ValueError(f"unknown condition {which!r}; expected G1, G2 or G3")
    return rep


def value_check_sufficient(us, which):
    """Check a sufficient condition and its implication.

    ``fine-enough``: any two updates sharing a possible result refine to
    a common upper update sharing it; implies G1.  ``associative-join``:
    merge is defined on comparable updates and associative including
    definedness; implies G2.  When the sufficient condition holds on the
    fixture, the implied condition is re-checked and any failure is
    reported (it would indicate a checker bug).
    """
    rep = ValidationReport(subject=f"{which} on {us.name or 'update space'}")
    if which == "fine-enough":
        implied = "G1"
        for s in us.states:
            for u1, u2 in itertools.combinations_with_replacement(us.updates, 2):
                shared = [s2 for s2 in value_ran(us, s, u1) if s2 in value_ran(us, s, u2)]
                for s2 in shared:
                    refinements = [
                        u
                        for u in us.updates
                        if us.order.le(u1, u) and us.order.le(u2, u) and s2 in value_ran(us, s, u)
                    ]
                    if not refinements:
                        rep.add("fine-enough", (s, u1, u2, s2), "no common refinement reaches the shared result")
    elif which == "associative-join":
        implied = "G2"
        for u1, u2 in itertools.product(us.updates, repeat=2):
            if (us.order.le(u1, u2) or us.order.le(u2, u1)) and us.order.merge(u1, u2) is UNDEFINED:
                rep.add("comparable-merge-defined", (u1, u2))
        for u1, u2, u3 in itertools.product(us.updates, repeat=3):
            m23 = us.order.merge(u2, u3)
            left = us.order.merge(u1, m23) if m23 is not UNDEFINED else UNDEFINED
            m12 = us.order.merge(u1, u2)
            right = us.order.merge(m12, u3) if m12 is not UNDEFINED else UNDEFINED
            if (left is UNDEFINED) != (right is UNDEFINED) or (
                left is not UNDEFINED and not (left == right)
            ):
                rep.add("merge-associative", (u1, u2, u3), f"{left!r} vs {right!r}")
    else:
        raise ValueError(f"unknown sufficient condition {which!r}")
    if rep.ok:
        implied_rep = value_check_condition(us, implied)
        for v in implied_rep.violations:
            rep.add(f"implication-{implied}", v.witness, "sufficient condition held but implied condition failed")
    return rep


def unordered_ran_space():
    """Two updates that share two results, reached in an order that is not
    the states' order (``ran(s, a)`` is ``[t2, t1]``), and whose merge
    reaches neither: G1 and fine-enough each report both lost results."""
    updates = ["a", "b", "ab", "a2", "b2"]
    le = [("a", "ab"), ("b", "ab"), ("a", "a2"), ("b", "b2")] + [(u, u) for u in updates]
    merges = []
    for x, y in itertools.product(updates, repeat=2):
        bounds = [z for z in updates if (x, z) in le and (y, z) in le]
        merges += [(x, y, z) for z in bounds if all((z, w) in le for w in bounds)]
    return UpdateSpace(
        states=["s", "t1", "t2"],
        updates=updates,
        u_le=le,
        u_merge=merges,
        interp=[("a", "s", "t2"), ("a2", "s", "t1"), ("b", "s", "t1"), ("b2", "s", "t2")],
        name="unordered-ran",
    )


def assert_conditions_match_the_value_loops(us):
    """Equal reports from every condition, and equal ``ran`` everywhere; the number of violations."""
    violations = 0
    for check, oracle, names in (
        (check_condition, value_check_condition, ["G1", "G2", "G3"]),
        (check_sufficient, value_check_sufficient, ["fine-enough", "associative-join"]),
    ):
        for which in names:
            new, old = check(us, which), oracle(us, which)
            assert new == old and str(new) == str(old), (which, dump_update_space(us))
            violations += len(new.violations)
    for s, u in itertools.product(us.states, us.updates):
        assert ran(us, s, u) == value_ran(us, s, u), (s, u)
    return violations


def test_conditions_match_the_value_loops_on_every_update_space():
    spaces = update_spaces() + [unordered_ran_space()]
    assert sum(map(assert_conditions_match_the_value_loops, spaces)) > 100
    report = check_condition(unordered_ran_space(), "G1")
    # (a, b) walks ran(s, a) and (b, a) walks ran(s, b); the states' order would give t1, t2 twice
    assert [v.witness[1:] for v in report.violations] == [("a", "b", "t2"), ("a", "b", "t1"), ("b", "a", "t1"), ("b", "a", "t2")]


@given(three_update_spaces())
def test_conditions_match_the_value_loops_on_three_update_spaces(us):
    assert_conditions_match_the_value_loops(us)


# ---------------------------------------------------------------------------
# Law universes against the per-pair-memo space
# ---------------------------------------------------------------------------


class MemoSpace:
    """Sample list with order/ident relations, indexed by int (the
    per-pair-memo ``_Space``)."""

    def __init__(self, domain, values, exhaustive):
        self.domain = domain
        index = ElementIndex(values)
        self.values = index.values
        self.locate = index.intern
        self.n = len(self.values)
        self._le = {}
        self._id = {}
        rows = domain.rows() if exhaustive else None
        self.up = None if rows is None else rows[0]
        if rows is not None:
            up, id_up = rows
            self.le = lambda i, j: up[i] >> j & 1
            self.ident = lambda i, j: id_up[i] >> j & 1

    def le(self, i, j):
        key = (i, j)
        hit = self._le.get(key)
        if hit is None:
            hit = self._le[key] = self.domain.le(self.values[i], self.values[j])
        return hit

    def ident(self, i, j):
        key = (i, j)
        hit = self._id.get(key)
        if hit is None:
            hit = self._id[key] = self.domain.ident(self.values[i], self.values[j])
        return hit

    def above(self, i, js):
        if self.up is None:
            return (j for j in js if self.le(i, j))
        return _bits(self.up[i] & (1 << js.stop) - (1 << js.start))

    def reach(self, rs):
        if self.up is None:
            return lambda i: any(self.le(r, i) for r in rs)
        mask = 0
        for r in rs:
            mask |= self.up[r]
        return lambda i: mask >> i & 1


class MemoCtx(_Ctx):
    """``_Ctx`` on the per-pair-memo spaces, with their choice of put memo."""

    def __init__(self, lens, source, view, exhaustive):
        self.lens = lens
        self.S = MemoSpace(lens.source, source, exhaustive)
        self.V = MemoSpace(lens.view, view, exhaustive)
        self.exhaustive = exhaustive
        self._get = {}
        self._stride = self.V.n if self.S.up is not None and self.V.up is not None else 0
        self._put = [None] * (self.S.n * self.V.n) if self._stride else {}
        self._image = {}


def memo_put_determines_get(c, ss):
    # V_s = {v | put(s0, v) <= s for some s0} ranges over the whole universe
    reaches = [(j, c.S.reach([r for _, r in c.image(j, range(c.S.n))])) for j in range(c.V.n)]
    for i in ss:
        pool = [j for j, reach in reaches if reach(i)]
        best = next((j for j in pool if all(c.V.le(j2, j) for j2 in pool)), None)
        if best is None or c.get(i) != best:
            return {
                "s": c.sv(i),
                "V_s": [c.vv(j) for j in pool],
                "max": None if best is None else c.vv(best),
                "get s": c.vv(c.get(i)),
            }
    return None


def memo_witnesses(lens, source=None, view=None):
    """Each law's witness (or None) from the scanners on the memo spaces,
    put-determines-get's as it read the memo space's ``reach``."""
    src = lens.source.elements if source is None else source
    vw = lens.view.elements if view is None else view
    c = MemoCtx(lens, src, vw, source is None and view is None)
    out = {}
    for law in LawId:
        if law in _COMPOSITES:
            failed = next((part for part in _COMPOSITES[law] if out[part] is not None), None)
            out[law] = None if failed is None else {"_law": failed.value, **out[failed]}
        elif law is LawId.PUT_DETERMINES_GET:
            out[law] = memo_put_determines_get(c, range(c.S.n))
        else:
            out[law] = _scan(c, law.value)
    return out


def assert_laws_match_the_memo(lens, source=None, view=None):
    """Identical verdicts and witnesses, and every witness rechecked on
    both spaces; return how many reports fail."""
    reports = check_laws(lens, source=source, view=view)
    expected = memo_witnesses(lens, source, view)
    for report in reports:
        assert report.counterexample == expected[report.law], (lens.name, report.law)
        if report.holds:
            continue
        assert recheck_counterexample(lens, report, source, view), (lens.name, report.law)
        w = dict(report.counterexample)
        law = w.pop("_law", report.law.value)
        if law != LawId.PUT_DETERMINES_GET.value:
            assert _scan(MemoCtx(lens, [], [], False), law, w) is not None, (lens.name, law)
    return sum(not r.holds for r in reports)


def test_laws_match_the_memo_space_on_the_fixture_catalog():
    assert sum(assert_laws_match_the_memo(f.lens) for f in fixture_lenses().values()) >= 5


def test_laws_match_the_memo_space_on_the_closure_pool(closure_pool):
    for _, lens in closure_pool[3::11]:
        assert_laws_match_the_memo(lens)


def filter_universes():
    """The four filter lenses on universes shaped like desk-check's: 2 ids, 3 records."""
    ids = ["a", "b"]
    records = DESK + [TaskRecord(False, "file", "2025-04-03")]
    source = enumerate_dt_universe(ids, records)
    assert len(source) == 41
    return [
        (filter_ongoing("plain"), source, source),
        (filter_today("plain", TODAY), source, source),
        (filter_ongoing("elaborated"), source, enumerate_og_universe(ids, records)),
        (filter_today("elaborated", TODAY), source, enumerate_dtdt_universe(ids, records, TODAY)),
    ]


def test_laws_match_the_memo_space_on_sampled_filter_universes():
    assert sum(assert_laws_match_the_memo(*case) for case in filter_universes()) > 0


def test_sampled_spaces_ask_each_ordered_pair_once():
    lens, source, view = filter_universes()[2]
    calls = []

    class Logged(Asked):
        def le(self, a, b):
            calls.append((id(self), "le", repr(a), repr(b)))
            return super().le(a, b)

        def ident(self, a, b):
            calls.append((id(self), "ident", repr(a), repr(b)))
            return super().ident(a, b)

    space = _Space(Logged(lens.source), source, exhaustive=False)
    outside = [{"a": TaskRecord(False, "new", TODAY)}, Delta({"b": TaskRecord(True, "new", TODAY)})]
    for x in outside + source[:3] + outside:  # values outside the samples grow the rows, once each
        space.locate(x)
    assert len(calls) == len(set(calls)) == 2 * len(space.values) ** 2
    assert space.n == len(source) and len(space.values) == space.n + 2


# ---------------------------------------------------------------------------
# Repeated samples are kept once
# ---------------------------------------------------------------------------


def test_repeated_source_samples_give_no_false_counterexample():
    lens = identity_lens(discrete(["a", "b"]))
    report = check_law(lens, LawId.CLASSICAL_ACCEPTABILITY, source=["a", "a"], view=["a", "b"])
    assert report.holds and report.universe == "sampled: 1 source x 2 view"
    assert check_laws(lens, source=["a", "b", "a"], view=["a", "b"]) == check_laws(lens, source=["a", "b"], view=["a", "b"])


def test_repeated_view_samples_give_no_false_counterexample():
    lens = identity_lens(discrete(["a", "b"]))
    reports = check_laws(lens, source=["a", "b"], view=["b", "a", "b", "a"])
    assert all(r.holds for r in reports) and reports[0].universe == "sampled: 2 source x 2 view"
    assert reports == check_laws(lens, source=["a", "b"], view=["b", "a"])


def test_repeated_samples_keep_genuine_counterexamples():
    bad = fixture_lenses()["bad"].lens
    source, view = bad.source.elements, bad.view.elements
    repeated = check_laws(bad, source=source + source[::-1], view=view * 3)
    assert repeated == check_laws(bad, source=source, view=view)
    failing = [r for r in repeated if not r.holds]
    assert failing and all(recheck_counterexample(bad, r, source, view) for r in failing)


# ---------------------------------------------------------------------------
# The closure pool composes every type-correct pair of candidates, in order
# ---------------------------------------------------------------------------


def test_closure_pool_holds_the_compositions_of_every_candidate_pair(closure_pool):
    candidates = closure_candidates()
    names = [
        f"({n1} ; {n2})"
        for (n1, l1), (n2, l2) in itertools.product(candidates, repeat=2)
        if structurally_equal(l1.view, l2.source)
    ]
    assert len(closure_pool) == 3629 and len(names) == 2915
    assert [n for n, _ in closure_pool[-len(names):]] == names
