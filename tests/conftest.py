"""Shared fixtures: the generated lens family of acceptance criteria 4 and 5."""

import collections
import itertools

import pytest

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
