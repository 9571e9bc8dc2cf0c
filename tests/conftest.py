"""Shared fixtures and helpers.

The closure family of acceptance criteria 4 and 5 is the benchmark's:
``bench/gen.py`` builds it, and this module loads that file by path and
takes ``closure_family``, ``generated_iposets``, ``_chain`` and
``_primitive_lenses`` from it, so the tests and the ``law-closure``
workload quantify over one family.  Also here: the small domains several
test files build, and the hypothesis strategy of three-update spaces.
"""

import importlib.util
import itertools
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import strategies as st

from pslens.iposet import discrete, lift_omega, load_iposet, product_iposet
from pslens.lens import product_lens
from pslens.updates import UpdateSpace

# registered before it runs: its dataclasses look their module up in sys.modules
_spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).resolve().parent.parent / "bench" / "gen.py")
gen = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)
generated_iposets = gen.generated_iposets


def chain(n, name="chain"):
    """0 <= 1 <= ... <= n - 1, with identical updates equal to the order."""
    return gen._chain(n, name)


def pair_omega():
    return product_iposet(lift_omega(discrete([1])), lift_omega(discrete([2])), name="pair_omega")


def packaged_fixture_domains():
    fixtures = resources.files("pslens").joinpath("fixtures")
    return [load_iposet(f.read_text(), name=f.name) for f in fixtures.iterdir() if f.name.endswith(".iposet")]


def closure_candidates():
    """The lenses the closure family composes pairwise, in its order: its
    primitives over domains of at most 3 elements, then their pairwise
    products."""
    small_primitives = gen._primitive_lenses([p for p in generated_iposets() if len(p.elements) <= 3])
    products = [
        (f"({n1} x {n2})", product_lens(l1, l2))
        for (n1, l1), (n2, l2) in itertools.product(small_primitives, repeat=2)
    ]
    return small_primitives + products


@pytest.fixture(scope="session")
def closure_pool():
    """The closure family: primitives over every generated domain, the
    pairwise products of the small ones, and every type-correct pairwise
    composition of those."""
    return gen.closure_family()


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
