"""Law engine: the shared per-lens context and the element index behind it."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pslens.iposet import ElementIndex, FiniteIPoset, IPosetError
from pslens.laws import LawId, check_law, check_laws, fixture_lenses
from pslens.tasks import (
    TaskRecord,
    enumerate_dt_universe,
    enumerate_dtdt_universe,
    enumerate_og_universe,
    filter_ongoing,
    filter_today,
)

TODAY = "2025-04-01"
RECORDS = [TaskRecord(False, "n", TODAY), TaskRecord(True, "m", "2025-04-02")]


def assert_same_as_law_by_law(lens, source=None, view=None):
    # LawReport equality compares law, holds, counterexample and universe
    together = check_laws(lens, source=source, view=view)
    assert together == [check_law(lens, law, source, view) for law in LawId]


@pytest.mark.parametrize("name", sorted(fixture_lenses()))
def test_check_laws_matches_check_law_on_fixtures(name):
    assert_same_as_law_by_law(fixture_lenses()[name].lens)


def test_check_laws_matches_check_law_on_closure_pool(closure_pool):
    for _, lens in closure_pool[::7]:
        assert_same_as_law_by_law(lens)


def test_check_laws_matches_check_law_on_sampled_task_universe():
    ids = ["a", "b"]
    source = enumerate_dt_universe(ids, RECORDS)
    for lens, view in [
        (filter_ongoing("plain"), source),
        (filter_today("plain", TODAY), source),
        (filter_ongoing("elaborated"), enumerate_og_universe(ids, RECORDS)),
        (filter_today("elaborated", TODAY), enumerate_dtdt_universe(ids, RECORDS, TODAY)),
    ]:
        assert_same_as_law_by_law(lens, source, view)


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


@pytest.mark.parametrize(
    "elements",
    [[{"k": 1}, {"k": 1}], [[1, 2], [1, 2]], [{1}, frozenset({1})], [frozenset({1}), {1}]],
)
def test_finite_iposet_rejects_unhashable_duplicates(elements):
    with pytest.raises(IPosetError, match="duplicate element"):
        FiniteIPoset(elements, [], [])
