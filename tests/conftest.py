"""Shared fixtures: the generated lens family of acceptance criteria 4 and 5,
and the hypothesis strategy of three-update spaces."""

import collections
import itertools

import pytest
from hypothesis import strategies as st

from pslens.iposet import (
    UNDEFINED,
    FiniteIPoset,
    check_duplicable,
    discrete,
    join,
    lift_omega,
    powerset_iposet,
    product_iposet,
    structurally_equal,
)
from pslens.lens import compose, constant_lens, dup_lens, identity_lens, product_lens, untag_s
from pslens.updates import UpdateSpace


def _chain(n, name):
    els = list(range(n))
    le = [(a, b) for a in els for b in els if a <= b]
    merge = [(a, b, max(a, b)) for a in els for b in els]
    return FiniteIPoset(els, le, le, merge, name=name)


def _diamond():
    els = ["bot", "a", "b", "top"]
    lt = {("bot", "a"), ("bot", "b"), ("bot", "top"), ("a", "top"), ("b", "top")}
    le = list(lt) + [(e, e) for e in els]
    p = FiniteIPoset(els, le, le, None, name="diamond", validate=False)
    merge = []
    for a in els:
        for b in els:
            j = join(p, a, b)
            if j is not UNDEFINED:
                merge.append((a, b, j))
    return FiniteIPoset(els, le, le, merge, name="diamond")


def generated_iposets():
    """The finite domains the closure criterion quantifies over (<= 5
    elements each, lower-bounded and duplicable wherever the respective
    lenses require it)."""
    return [
        discrete([0], name="point"),
        discrete([0, 1], name="two-points"),
        discrete([0, 1, 2], name="three-points"),
        lift_omega(discrete([1]), name="one-omega"),
        lift_omega(discrete([1, 2]), name="two-omega"),
        lift_omega(discrete([1, 2, 3, 4]), name="four-omega"),
        _chain(3, "chain-3"),
        _diamond(),
        powerset_iposet({"a", "b"}, name="powerset-ab"),
        product_iposet(lift_omega(discrete([1])), lift_omega(discrete([2])), name="pair-omega"),
    ]


def _primitive_lenses(posets):
    target = lift_omega(discrete([1]), name="one-omega")
    out = []
    for p in posets:
        out.append((f"identity[{p.name}]", identity_lens(p, name=f"identity[{p.name}]")))
        if p.least is not None:
            out.append(
                (f"constant[{p.name}]", constant_lens(p, target, 1, name=f"constant[{p.name}]"))
            )
        if p.has_merge and check_duplicable(p).ok:
            out.append((f"dup[{p.name}]", dup_lens(p, name=f"dup[{p.name}]", check=False)))
        out.append((f"untag[{p.name}]", untag_s(p, name=f"untag[{p.name}]")))
    return out


def closure_candidates(posets):
    """Primitive lenses over the small domains of ``posets`` (<= 3
    elements), and all their pairwise products."""
    small = [p for p in posets if len(p.elements) <= 3]
    small_primitives = _primitive_lenses(small)
    products = [
        (f"({n1} x {n2})", product_lens(l1, l2))
        for (n1, l1), (n2, l2) in itertools.product(small_primitives, repeat=2)
    ]
    return small_primitives, products


@pytest.fixture(scope="session")
def closure_pool():
    """Primitive lenses over every generated domain, plus all pairwise
    products and all type-correct pairwise compositions over the small
    subfamily."""
    all_posets = generated_iposets()
    singles = _primitive_lenses(all_posets)
    small_primitives, products = closure_candidates(all_posets)
    candidates = small_primitives + products
    # structurally equal domains have equal shapes, so only candidates of one shape are paired
    by_shape = collections.defaultdict(list)
    for n2, l2 in candidates:
        by_shape[l2.source.shape].append((n2, l2))
    compositions = [
        (f"({n1} ; {n2})", compose(l1, l2))
        for n1, l1 in candidates
        for n2, l2 in by_shape.get(l1.view.shape, ())
        if structurally_equal(l1.view, l2.source)
    ]
    pool = singles + products + compositions
    assert len(pool) > 100
    return pool


THREE_UPDATE_ORDERS = {
    "vee": [("u0", "u2"), ("u1", "u2")],
    "wedge": [("u0", "u1"), ("u0", "u2")],
    "chain": [("u0", "u1"), ("u1", "u2"), ("u0", "u2")],
}


@st.composite
def three_update_spaces(draw):
    """Vee, wedge and chain orders on three updates with their join as
    merge, over one to three states, with a random partial ``interp``."""
    updates = ["u0", "u1", "u2"]
    u_le = THREE_UPDATE_ORDERS[draw(st.sampled_from(sorted(THREE_UPDATE_ORDERS)))]
    le = set(u_le) | {(u, u) for u in updates}
    u_merge = []
    for a, b in itertools.product(updates, repeat=2):
        bounds = [c for c in updates if (a, c) in le and (b, c) in le]
        u_merge += [(a, b, c) for c in bounds if all((c, d) in le for d in bounds)]
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    outcomes = draw(st.lists(st.sampled_from([None] + states), min_size=3 * len(states), max_size=3 * len(states)))
    slots = [(u, s) for u in updates for s in states]
    interp = [(u, s, r) for (u, s), r in zip(slots, outcomes) if r is not None]
    return UpdateSpace(states, updates, u_le, u_merge, interp)
