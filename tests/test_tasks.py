"""To-do scenario: domains, filters, pipeline, formats."""

import dataclasses
import functools
import io
import itertools
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pslens.tasks
from pslens.cli import main, new_session, run_command, run_lines
from pslens.iposet import UNDEFINED, check_duplicable, join, materialize
from pslens.laws import LawId, check_law, check_laws
from pslens.lens import initiator, is_failure, Reason
from pslens.tasks import (
    Delta,
    ParseError,
    Table,
    TaskRecord,
    TaskText,
    apply_dt,
    dt_domain,
    dtdt_domain,
    dtog_domain,
    dump_delta,
    dump_tasks,
    enumerate_deltas,
    enumerate_dt_universe,
    enumerate_dtdt_universe,
    enumerate_og_universe,
    enumerate_tables,
    enumerate_view_universe,
    filter_ongoing,
    filter_today,
    init_tasks,
    is_task_id,
    load_delta,
    load_tasks,
    task_pipeline,
    tasks_domain,
    upsert,
)

TODAY = "2025-04-01"
APR2 = "2025-04-02"


def rec(done, name, due):
    return TaskRecord(done, name, due)


S_TL = {
    "001": rec(False, "Buy milk", APR2),
    "002": rec(True, "Walk dog", TODAY),
    "003": rec(False, "Jog", TODAY),
}
EGG = rec(False, "Buy egg", TODAY)
STRETCH = rec(False, "Stretch", TODAY)
W_OG = Delta({"004": EGG})
W_DT = Delta({"003": STRETCH}, {"002"})
W_MERGED = Delta({"003": STRETCH, "004": EGG}, {"002"})
S_TL_PRIME = {**S_TL, "004": EGG}
S_TL_SECOND = {"001": S_TL["001"], "003": STRETCH, "004": EGG}

V_OG = {"001": S_TL["001"], "003": S_TL["003"]}
V_DT = {"002": S_TL["002"], "003": S_TL["003"]}
V_OG_PRIME = {**V_OG, "004": EGG}
V_DT_PRIME = {**V_DT, "004": EGG}
V_OG_SECOND = dict(S_TL_SECOND)
V_DT_SECOND = {"003": STRETCH, "004": EGG}


# ---------------------------------------------------------------------------
# records and deltas
# ---------------------------------------------------------------------------


def test_record_validation():
    with pytest.raises(ValueError):
        TaskRecord(False, "", TODAY)
    with pytest.raises(ValueError):
        TaskRecord(False, "x", "April 1st")


@pytest.mark.parametrize("done", ["false", 0, 1, None])
def test_record_done_must_be_a_bool(done):
    """A flag that is not a bool would save as ``true`` and load back unequal."""
    with pytest.raises(ValueError, match="not a bool"):
        TaskRecord(done, "x", TODAY)


@pytest.mark.parametrize("name", ["caf\udcff", "\ud800", "日本\udfff"])
def test_a_name_holding_a_lone_surrogate_is_refused_where_it_enters(name):
    """UTF-8 cannot hold a lone surrogate, so ``TaskRecord`` refuses one
    in a name, and a task or delta text holding one is a parse error
    naming its line; the empty name keeps its own message."""
    with pytest.raises(ValueError, match="holds a lone surrogate, which UTF-8 cannot hold$"):
        TaskRecord(False, name, TODAY)
    with pytest.raises(ParseError, match="^line 2: task name .* holds a lone surrogate"):
        load_tasks(f'task a false "x" 2025-04-01\ntask b false "{name}" 2025-04-01\n')
    with pytest.raises(ParseError, match="^line 2: task name .* holds a lone surrogate"):
        load_delta(f'delete a\npostpone b false "{name}" 2025-04-02\n', "today")
    with pytest.raises(ValueError, match="^task name must be nonempty$"):
        TaskRecord(False, "", TODAY)


def test_delta_refuses_a_string_of_deletes():
    with pytest.raises(ValueError, match="not the string"):
        Delta(deletes="t1")
    assert Delta(deletes=["t1"]).deletes == frozenset({"t1"})


def test_delta_rejects_overlapping_instructions():
    with pytest.raises(ValueError):
        Delta({"a": EGG}, {"a"})
    with pytest.raises(ValueError):
        Delta({"a": EGG}, {"a"}, {})
    assert not dtog_domain().contains(Delta({}, set(), {"a": EGG}))  # completion request must be completed
    with pytest.raises(ValueError):
        Delta({}, {"a"}, {"a": EGG})
    with pytest.raises(ValueError):
        Delta({"a": EGG}, set(), {"a": STRETCH})


@pytest.mark.parametrize(
    "day", ["20250401", "2025-W14-2", "2025-4-1", "2025-04-31", "2025-04-01T00:00", "２０２５-04-01", ""]
)
def test_dates_must_be_canonical(day):
    with pytest.raises(ValueError):
        TaskRecord(False, "x", day)
    with pytest.raises(ValueError):
        dtdt_domain(day)
    with pytest.raises(ValueError):
        filter_today("plain", day)
    with pytest.raises(ParseError, match="^line 1: "):
        load_tasks(f'task a false "x" {day}\n')
    assert main(["--today", day]) == 1


def test_view_date_has_no_default():
    with pytest.raises(TypeError):
        filter_today("plain")
    with pytest.raises(TypeError):
        task_pipeline("plain")


BAD_IDS = ["", "a b", "a\tb", "a\u00a0b", 'a"b', "a\u2028b", "a\x0bb", "#a", "a#b", 7, "a\udcffb", "\ud800"]


@pytest.mark.parametrize("key", BAD_IDS)
def test_ids_must_be_bare_tokens(key):
    assert not is_task_id(key)
    for parts in [{"adds": {key: EGG}}, {"deletes": {key}}, {"moves": {key: EGG}}]:
        with pytest.raises(ValueError):
            Delta(**parts)
    assert not dt_domain().contains({key: EGG})


def test_upsert_semantics():
    assert upsert(S_TL, {}) == S_TL
    assert upsert(S_TL, {"004": EGG}) == S_TL_PRIME
    replaced = upsert(S_TL, {"003": STRETCH})
    assert replaced["003"] == STRETCH and replaced["001"] == S_TL["001"]


# ---------------------------------------------------------------------------
# applying deltas
# ---------------------------------------------------------------------------


def test_apply_dt_insert():
    assert apply_dt(W_OG, S_TL) == S_TL_PRIME


def test_apply_dt_merged():
    assert apply_dt(W_MERGED, S_TL) == S_TL_SECOND
    assert list(apply_dt(W_MERGED, S_TL)) == ["001", "003", "004"]  # upserts keep their place


def test_apply_dt_trivials():
    assert apply_dt(Delta(), S_TL) == S_TL
    assert apply_dt(dict(V_OG), S_TL) == V_OG  # proper state replaces outright


# ---------------------------------------------------------------------------
# persistent tables
# ---------------------------------------------------------------------------

TABLE_IDS = ["a", "b", "c", "d", "e"]
TABLE_RECORDS = [rec(False, "x", TODAY), rec(True, "y", APR2), EGG]


def assert_reads_as(t, model):
    """``t`` answers every read as the plain dict ``model`` does."""
    assert t == model and model == t and not t != model
    assert len(t) == len(model) and dict(t) == model and sorted(t) == sorted(model)
    assert Counter(t.items()) == Counter(model.items()) and Counter(t.values()) == Counter(model.values())
    for k in [*TABLE_IDS, "absent"]:
        assert (k in t) == (k in model) and t.get(k) == model.get(k)
        if k in model:
            assert t[k] == model[k]


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    initial=st.dictionaries(st.sampled_from(TABLE_IDS), st.sampled_from(TABLE_RECORDS)),
)
def test_table_versions_read_as_their_dict_models(data, initial):
    """A random version tree built with ``apply_dt``: updates branch off
    any version, overwrite present ids and delete absent ones, and the
    versions are read in random order, so reroots run both ways.  After
    every step each live version reads as its dict model, and a fresh
    version has the insertion order of ``dict.copy``, ``update`` and
    ``pop`` on the version it came from.  For every ordered pair of live
    versions, ``changed_since`` names every id their models differ on;
    for a version of another table it gives ``None``."""
    ids, records = st.sampled_from(TABLE_IDS), st.sampled_from(TABLE_RECORDS)
    versions = [(Table.of(initial), dict(initial))]
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        i = data.draw(st.integers(0, len(versions) - 1), label="version")
        t, model = versions[i]
        action = data.draw(st.sampled_from(["update", "read", "drop"]), label="action")
        if action == "update":
            adds = data.draw(st.dictionaries(ids, records, max_size=3), label="adds")
            deletes = data.draw(st.frozensets(ids, max_size=3), label="deletes") - adds.keys()
            expected = dict(t.items())  # reading t makes it the newest version
            expected.update(adds)
            for k in deletes:
                expected.pop(k, None)
            assert expected == {k: r for k, r in {**model, **adds}.items() if k not in deletes}
            new = apply_dt(Delta(adds, deletes), t)
            assert new.changed_since(t) == adds.keys() | deletes
            assert list(new) == list(expected)
            versions.append((new, expected))
        elif action == "read":
            assert_reads_as(t, model)
        elif len(versions) > 1:
            del versions[i]
        for j in data.draw(st.permutations(range(len(versions))), label="reads"):
            assert_reads_as(*versions[j])
        for (a, a_model), (b, b_model) in itertools.permutations(versions + versions[:1], 2):
            differ = {k for k in a_model.keys() | b_model.keys() if a_model.get(k) != b_model.get(k)}
            assert differ <= b.changed_since(a)
        assert versions[-1][0].changed_since(Table(initial)) is None
        assert Table(initial).changed_since(versions[-1][0]) is None


def test_table_adoption_copies_a_mapping_once_and_keeps_a_table():
    source = dict(S_TL)
    t = Table.of(source)
    assert Table.of(t) is t and t == source and repr(t) == repr(source)
    source["004"] = EGG
    assert t == S_TL and "004" not in t
    assert apply_dt(t, S_TL) is t  # a proper table replaces the source as it is
    with pytest.raises(TypeError):
        hash(t)


def test_the_source_domain_reads_a_table_as_its_dict():
    """``dt_domain`` selects a table version as a plain dict (its
    ``Table.copy``), and answers for the version exactly as for that dict."""
    older = Table.of(S_TL)
    newer = apply_dt(W_MERGED, older)
    for t in (older, newer, newer, older):  # each read reroots to the other version
        model = dict(t.items())
        selected = dt_domain().select(t)
        assert type(selected) is dict and selected == model
        assert dt_domain().contains(t) is dt_domain().contains(model) is True
        assert dt_domain().split(t) == dt_domain().split(model) == (model, {})
    assert not dt_domain().contains(Table({"001": "not a record"}))


# ---------------------------------------------------------------------------
# the delta domain
# ---------------------------------------------------------------------------


def test_dt_merge_of_the_two_view_deltas():
    assert dt_domain().merge(W_OG, W_DT) == W_MERGED


def test_dt_least_element_is_empty_delta():
    dt = dt_domain()
    assert dt.least == Delta()
    for x in [S_TL, W_OG, W_MERGED, Delta()]:
        assert dt.le(Delta(), x)
        assert dt.ident(Delta(), x)
        assert dt.merge(Delta(), x) == x


def test_dt_least_below_everything_on_bounded_samples():
    dt = dt_domain()
    for x in enumerate_dt_universe(["a", "b"], [rec(False, "n", TODAY), rec(True, "m", APR2)]):
        assert dt.le(Delta(), x) and dt.ident(Delta(), x)


def test_dt_merge_conflicts():
    dt = dt_domain()
    assert dt.merge(Delta({"a": EGG}), Delta({}, {"a"})) is UNDEFINED
    assert dt.merge(Delta({"a": EGG}), Delta({"a": STRETCH})) is UNDEFINED
    assert dt.merge(S_TL, V_OG) is UNDEFINED  # distinct proper tables


def test_dt_delta_absorbs_into_realizing_table():
    dt = dt_domain()
    assert dt.merge(W_OG, S_TL_PRIME) == S_TL_PRIME
    assert dt.merge(S_TL_PRIME, W_OG) == S_TL_PRIME
    assert dt.merge(W_OG, S_TL) is UNDEFINED  # 004 not present in s_tl


def test_dt_identical_updates_require_no_deletes():
    dt = dt_domain()
    assert dt.ident(Delta({"003": S_TL["003"]}), S_TL)
    assert not dt.ident(Delta({}, {"009"}), S_TL)  # harmless delete is still an update
    assert dt.le(Delta({}, {"009"}), S_TL)


RECORDS = [rec(False, "n", TODAY), rec(True, "m", APR2)]


def test_dt_duplicability_at_small_scale():
    universe = enumerate_dt_universe(["a"], RECORDS)
    p = materialize(dt_domain(), universe, name="dt@small")
    assert check_duplicable(p).ok
    for a, b in itertools.product(universe, repeat=2):
        j = join(p, a, b)
        m = dt_domain().merge(a, b)
        assert (j is UNDEFINED) == (m is UNDEFINED)
        if m is not UNDEFINED:
            assert j == m


@st.composite
def deltas(draw):
    ids = ["a", "b", "c"]
    adds = draw(st.dictionaries(st.sampled_from(ids), st.sampled_from(RECORDS), max_size=3))
    remaining = [k for k in ids if k not in adds]
    deletes = draw(st.sets(st.sampled_from(remaining))) if remaining else set()
    return Delta(adds, deletes)


@given(deltas(), deltas())
def test_dt_merge_commutative(d1, d2):
    m12 = dt_domain().merge(d1, d2)
    m21 = dt_domain().merge(d2, d1)
    assert (m12 is UNDEFINED) == (m21 is UNDEFINED)
    if m12 is not UNDEFINED:
        assert m12 == m21


@given(deltas())
def test_dt_merge_idempotent(d):
    assert dt_domain().merge(d, d) == d


@settings(max_examples=60)
@given(deltas(), deltas(), deltas())
def test_dt_merge_associative_in_definedness(d1, d2, d3):
    dt = dt_domain()
    m23 = dt.merge(d2, d3)
    left = dt.merge(d1, m23) if m23 is not UNDEFINED else UNDEFINED
    m12 = dt.merge(d1, d2)
    right = dt.merge(m12, d3) if m12 is not UNDEFINED else UNDEFINED
    assert (left is UNDEFINED) == (right is UNDEFINED)
    if left is not UNDEFINED:
        assert left == right


# ---------------------------------------------------------------------------
# initiator
# ---------------------------------------------------------------------------


def test_init_tasks_reflects_deltas():
    lens = init_tasks()
    assert lens.put(S_TL, W_OG) == S_TL_PRIME
    assert lens.put(S_TL, W_MERGED) == S_TL_SECOND
    assert lens.put(S_TL, Delta()) == S_TL
    assert lens.get(S_TL) == S_TL


def test_init_tasks_u_laws_on_bounded_samples():
    tables = enumerate_tables(["a", "b"], RECORDS)
    universe = enumerate_dt_universe(["a", "b"], RECORDS)
    # sampled ps-consistency sees only the put results inside the sample
    assert all(apply_dt(v, t) in tables for t in tables for v in universe)
    lens = initiator(tasks_domain(), dt_domain(), apply_dt)
    reports = check_laws(lens, [LawId.PS_ACCEPTABILITY, LawId.PS_CONSISTENCY], tables, universe)
    assert [r.holds for r in reports] == [True, True]


def test_init_tasks_well_behaved_on_bounded_samples():
    tables = enumerate_tables(["a", "b"], RECORDS)
    universe = enumerate_dt_universe(["a", "b"], RECORDS)
    report = check_law(init_tasks(), LawId.WB, source=tables, view=universe)
    assert report.holds and report.universe.startswith("sampled")


# ---------------------------------------------------------------------------
# filters, plain
# ---------------------------------------------------------------------------


def test_plain_filter_gets_match_the_worked_example():
    f_og = filter_ongoing("plain")
    f_dt = filter_today("plain", TODAY)
    assert f_og.get(S_TL) == V_OG
    assert f_dt.get(S_TL) == V_DT
    assert f_dt.get(S_TL_SECOND) == V_DT_SECOND


def test_plain_filter_get_on_deltas_restricts_adds_only():
    f_og = filter_ongoing("plain")
    d = Delta({"a": rec(True, "done thing", TODAY), "b": EGG}, {"c"})
    assert f_og.get(d) == Delta({"b": EGG}, {"c"})


def test_plain_filter_put_passes_deltas_through():
    f_og = filter_ongoing("plain")
    assert f_og.put(S_TL, W_OG) == W_OG
    assert f_og.put(Delta(), W_OG) == W_OG  # source shape irrelevant for deltas
    assert f_og.put(S_TL, Delta()) == Delta()


def test_plain_filter_put_proper_view_upserts_over_hidden_rest():
    f_og = filter_ongoing("plain")
    v = {"001": S_TL["001"], "005": rec(False, "New", TODAY)}
    out = f_og.put(S_TL, v)
    assert out == {"001": S_TL["001"], "002": S_TL["002"], "005": v["005"]}


def test_plain_filter_guards():
    f_og = filter_ongoing("plain")
    done_view = {"002": S_TL["002"]}
    r = f_og.put(S_TL, done_view)  # proper view may not contain completed tasks
    assert is_failure(r) and r.reason is Reason.GUARD_FAILED
    r = f_og.put(W_OG, V_OG)  # proper view against a delta source
    assert is_failure(r) and r.reason is Reason.GUARD_FAILED
    r = f_og.put(S_TL, Delta({"a": rec(True, "done", TODAY)}))
    assert is_failure(r) and r.reason is Reason.GUARD_FAILED
    f_dt = filter_today("plain", TODAY)
    r = f_dt.put(S_TL, Delta({"a": rec(False, "later", APR2)}))
    assert is_failure(r) and r.reason is Reason.GUARD_FAILED


def test_plain_filters_pass_ps_laws_on_bounded_samples():
    universe = enumerate_dt_universe(["a", "b"], RECORDS)
    for lens in [filter_ongoing("plain"), filter_today("plain", TODAY)]:
        for law in [LawId.PS_ACCEPTABILITY, LawId.PS_CONSISTENCY, LawId.PS_STABILITY]:
            report = check_law(lens, law, source=universe, view=universe)
            assert report.holds, f"{lens.name} {report}"


# ---------------------------------------------------------------------------
# filters, elaborated
# ---------------------------------------------------------------------------


def test_elaborated_get_splits_delta_adds():
    f_og = filter_ongoing("elaborated")
    done = rec(True, "done thing", TODAY)
    d = Delta({"a": done, "b": EGG}, {"c"})
    assert f_og.get(d) == Delta({"b": EGG}, {"c"}, {"a": done})
    assert f_og.get(S_TL) == V_OG

    f_dt = filter_today("elaborated", TODAY)
    later = rec(False, "later", APR2)
    d2 = Delta({"a": later, "b": EGG}, {"c"})
    assert f_dt.get(d2) == Delta({"b": EGG}, {"c"}, {"a": later})


def test_elaborated_put_reunites_requests():
    f_og = filter_ongoing("elaborated")
    jog_done = rec(True, "Jog", TODAY)
    v = Delta({}, {"001"}, {"003": jog_done})
    assert f_og.put(S_TL, v) == Delta({"003": jog_done}, {"001"})

    f_dt = filter_today("elaborated", TODAY)
    moved = rec(False, "Buy milk", APR2)
    assert f_dt.put(S_TL, Delta({}, set(), {"001": moved})) == Delta({"001": moved}, set())


def test_elaborated_put_out_of_domain_values():
    f_dt = filter_today("elaborated", TODAY)
    r = f_dt.put(S_TL, Delta({"a": rec(False, "later", APR2)}, set(), {}))
    assert is_failure(r) and r.reason is Reason.OUT_OF_DOMAIN  # adds must be due today


def test_source_domain_deltas_carry_no_moves():
    moved = Delta(moves={"a": rec(True, "done", TODAY)})
    assert dtog_domain().contains(moved)
    assert not dt_domain().contains(moved)
    r = filter_ongoing("plain").put(S_TL, moved)
    assert is_failure(r) and r.reason is Reason.OUT_OF_DOMAIN


ONGOING = [rec(False, "n", TODAY), rec(False, "o", APR2)]
DONE = [rec(True, "m", APR2), rec(True, "p", TODAY)]


@st.composite
def og_deltas(draw):
    kinds = draw(st.dictionaries(st.sampled_from(["a", "b", "c"]), st.sampled_from(["adds", "deletes", "moves"])))
    parts: dict = {"adds": {}, "deletes": set(), "moves": {}}
    for k, kind in kinds.items():
        if kind == "deletes":
            parts["deletes"].add(k)
        else:
            parts[kind][k] = draw(st.sampled_from(ONGOING if kind == "adds" else DONE))
    return Delta(**parts)


@given(og_deltas(), og_deltas())
def test_view_merge_is_componentwise_union(d1, d2):
    merged = dtog_domain().merge(d1, d2)
    adds, moves, deletes = {**d1.adds, **d2.adds}, {**d1.moves, **d2.moves}, d1.deletes | d2.deletes
    agree = all(d1.adds.get(k, r) == r for k, r in d2.adds.items())
    agree &= all(d1.moves.get(k, r) == r for k, r in d2.moves.items())
    disjoint = not (adds.keys() & moves.keys() or deletes & (adds.keys() | moves.keys()))
    if agree and disjoint:
        assert merged == Delta(adds, deletes, moves) and dtog_domain().contains(merged)
    else:
        assert merged is UNDEFINED


@pytest.mark.parametrize("view", [dtog_domain(), dtdt_domain(TODAY)], ids=lambda v: v.name)
def test_view_merge_is_sound_at_small_scale(view):
    """Where a view merge is defined it is the join.  It may be undefined
    where a join exists: a move and a deletion of one id both leave the
    id out of a view table, yet they are conflicting edits."""
    universe = enumerate_view_universe(view, ["a", "b"], RECORDS)
    p = materialize(view, universe, name=f"{view.name}@small")
    assert check_duplicable(p).ok
    for a, b in itertools.product(universe, repeat=2):
        m = view.merge(a, b)
        assert m is UNDEFINED or join(p, a, b) == m


def test_elaborated_filters_pass_ps_laws_on_bounded_samples():
    source = enumerate_dt_universe(["a", "b"], RECORDS)
    og_view = enumerate_og_universe(["a", "b"], RECORDS)
    dt_view = enumerate_dtdt_universe(["a", "b"], RECORDS, TODAY)
    for lens, view in [
        (filter_ongoing("elaborated"), og_view),
        (filter_today("elaborated", TODAY), dt_view),
    ]:
        for law in [LawId.PS_ACCEPTABILITY, LawId.PS_CONSISTENCY, LawId.PS_STABILITY]:
            report = check_law(lens, law, source=source, view=view)
            assert report.holds, f"{lens.name} {report}"


def test_fine_intent_distinction_in_ongoing_view():
    """Completion and deletion requests differ as elements even when no
    proper table can tell them apart."""
    dom = dtog_domain()
    done = rec(True, "done thing", TODAY)
    complete_k = Delta({}, set(), {"k": done})
    delete_k = Delta({}, {"k"}, {})
    assert complete_k != delete_k
    tables = enumerate_tables(["k", "j"], [r for r in RECORDS if not r.done])
    for t in tables:
        assert dom.le(complete_k, t) == dom.le(delete_k, t)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def test_pipeline_get_produces_both_views():
    lens = task_pipeline("plain", TODAY)
    assert lens.get(S_TL) == (V_OG, V_DT)


def test_pipeline_put_single_view_update():
    lens = task_pipeline("plain", TODAY)
    out = lens.put(S_TL, (W_OG, Delta()))
    assert out == S_TL_PRIME
    v_og2, v_dt2 = lens.get(out)
    assert (v_og2, v_dt2) == (V_OG_PRIME, V_DT_PRIME)
    assert dt_domain().le(W_OG, v_og2)


def test_pipeline_put_simultaneous_updates():
    lens = task_pipeline("plain", TODAY)
    out = lens.put(S_TL, (W_OG, W_DT))
    assert out == S_TL_SECOND
    v_og2, v_dt2 = lens.get(out)
    assert (v_og2, v_dt2) == (V_OG_SECOND, V_DT_SECOND)
    assert dt_domain().le(W_OG, v_og2)
    assert dt_domain().le(W_DT, v_dt2)


def test_pipeline_merge_conflict_surfaces_from_dup():
    lens = task_pipeline("plain", TODAY)
    r = lens.put(S_TL, (Delta({"x": EGG}), Delta({}, {"x"})))
    assert is_failure(r) and r.reason is Reason.MERGE_CONFLICT


def test_pipeline_elaborated_complete_and_delete():
    lens = task_pipeline("elaborated", TODAY)
    jog_done = rec(True, "Jog", TODAY)
    out = lens.put(S_TL, (Delta({}, {"001"}, {"003": jog_done}), Delta()))
    assert out == {"002": S_TL["002"], "003": jog_done}
    # the completion intention is preserved in the refreshed ongoing view
    v_og2, _ = lens.get(out)
    assert dtog_domain().le(Delta({}, {"001"}, {"003": jog_done}), v_og2)


def test_pipeline_preserves_updates_end_to_end_on_samples():
    """For every sampled source and delta pair with a defined put, each
    view delta sits below its refreshed view."""
    lens = task_pipeline("plain", TODAY)
    dt = dt_domain()
    tables = enumerate_tables(["a", "b"], RECORDS)
    ds = enumerate_deltas(["a"], RECORDS) + [Delta({}, {"b"})]
    checked = 0
    for t in tables:
        for d_og, d_dt in itertools.product(ds, repeat=2):
            out = lens.put(t, (d_og, d_dt))
            if is_failure(out):
                continue
            v_og2, v_dt2 = lens.get(out)
            assert dt.le(d_og, v_og2), (t, d_og, d_dt)
            assert dt.le(d_dt, v_dt2), (t, d_og, d_dt)
            checked += 1
    assert checked > 100


def test_pipeline_well_behaved_on_tiny_universe():
    lens = task_pipeline("plain", TODAY)
    mini = enumerate_dt_universe(["a"], [RECORDS[0]])
    tables = enumerate_tables(["a"], [RECORDS[0]])
    pairs = [(x, y) for x in mini for y in mini]
    report = check_law(lens, LawId.WB, source=tables, view=pairs)
    assert report.holds, str(report)


# the domains of the two staged view deltas, per variant
VIEW_DOMAINS = {"plain": (dt_domain(), dt_domain()), "elaborated": (dtog_domain(), dtdt_domain(TODAY))}
VIEW_RECORDS = [rec(False, "n", TODAY), rec(True, "m", APR2), rec(False, "o", APR2), rec(True, "p", TODAY)]


def test_unchecked_deltas_are_the_checked_ones_in_their_domain():
    """``merge`` and the filters' ``get`` and ``put`` build deltas with the
    unchecked ``Delta._of``: each is what ``Delta(...)`` builds from its
    parts, and an element of the domain it belongs to."""
    ids = ["a", "b"]
    source = enumerate_dt_universe(ids, VIEW_RECORDS)
    universes = {
        dt_domain(): source,
        dtog_domain(): enumerate_og_universe(ids, VIEW_RECORDS),
        dtdt_domain(TODAY): enumerate_dtdt_universe(ids, VIEW_RECORDS, TODAY),
    }
    built = {}  # (how it was built, its domain) -> the deltas built so
    for domain, universe in universes.items():
        built[f"{domain.name} merge", domain] = [domain.merge(a, b) for a, b in itertools.product(universe, repeat=2)]
    for variant in ["plain", "elaborated"]:
        for lens in [filter_ongoing(variant), filter_today(variant, TODAY)]:
            built[f"{lens.name} {variant} get", lens.view] = [lens.get(s) for s in source]
            puts = [lens.put(s, v) for s in source for v in universes[lens.view]]
            built[f"{lens.name} {variant} put", dt_domain()] = puts
    for (how, domain), results in built.items():
        deltas = [d for d in results if isinstance(d, Delta)]
        assert deltas, how
        for d in deltas:
            assert d == Delta(d.adds, d.deletes, d.moves), (how, d)
            assert (type(d.adds), type(d.deletes), type(d.moves)) == (dict, frozenset, dict), (how, d)
            assert domain.contains(d), (how, d)


@functools.cache
def defined_staged_puts(variant):
    """Every defined ``put`` of a staged delta pair (the CLI stages deltas
    only) on every 2-id table, as ``(lens, s, og, dt, out)``; the two
    lemmas below share the list."""
    lens = task_pipeline(variant, TODAY)
    ids = ["a", "b"]
    if variant == "plain":
        og_universe = dt_universe = enumerate_dt_universe(ids, VIEW_RECORDS)
    else:
        og_universe = enumerate_og_universe(ids, VIEW_RECORDS)
        dt_universe = enumerate_dtdt_universe(ids, VIEW_RECORDS, TODAY)
    staged = [(og, dt) for og in og_universe for dt in dt_universe if isinstance(og, Delta) and isinstance(dt, Delta)]
    puts = ((s, og, dt, lens.put(s, (og, dt))) for s in enumerate_tables(ids, VIEW_RECORDS) for og, dt in staged)
    return [(lens, s, og, dt, out) for s, og, dt, out in puts if not is_failure(out)]


@pytest.mark.parametrize("variant", ["plain", "elaborated"])
def test_get_of_the_named_rows_is_the_views_at_the_named_ids(variant):
    """The per-row lemma, exhaustively on 2-id universes: after a defined
    ``put`` of a staged delta pair, the ``get`` of the new source's rows
    at the ids the two deltas name is each full view restricted to those
    ids, and each staged delta is preserved in the one exactly when it is
    in the other (the CLI's "preserved" lines read the restricted views)."""
    checked = 0
    for lens, s, og, dt, out in defined_staged_puts(variant):
        ids = og.ids | dt.ids
        restricted = lens.get({k: out[k] for k in ids if k in out})
        full = lens.get(out)
        for i, (domain, got, view, delta) in enumerate(zip(VIEW_DOMAINS[variant], restricted, full, (og, dt))):
            assert got == {k: r for k, r in view.items() if k in ids}, (i, s, og, dt)
            assert domain.le(delta, got) == domain.le(delta, view), (i, s, og, dt)
        checked += 1
    assert checked > 1000


@pytest.mark.parametrize("variant", ["plain", "elaborated"])
def test_text_patched_for_the_named_ids_is_the_text_of_the_put(variant):
    """The same lemma for the saved text: the ids the new source's undo
    diffs name are among those the two deltas name, and patching the
    text of the old source for them gives ``dump_tasks`` of the new one."""
    checked = 0
    for lens, s, og, dt, _ in defined_staged_puts(variant):
        old = Table(s)
        out = lens.put(old, (og, dt))
        assert out.changed_since(old) <= og.ids | dt.ids, (s, og, dt)
        assert str(TaskText.of(old).patch(out)) == dump_tasks(out), (s, og, dt)
        checked += 1
    assert checked > 1000


class NoScan(dict):
    """A table that answers lookups by id but refuses to be scanned."""

    def __iter__(self):
        raise AssertionError("whole-table scan")

    keys = values = items = copy = __iter__


def tables_unscanned():
    """While it is entered, every ``Table`` version reads through a
    :class:`NoScan` copy of its rerooted dict, so a whole-table scan raises
    whether it goes through the ``Table`` or the dict it holds."""
    reroot = Table._dict
    return mock.patch.object(Table, "_dict", lambda self: NoScan(reroot(self)))


@pytest.mark.parametrize("variant", ["plain", "elaborated"])
def test_views_of_and_view_edits_look_up_only_the_named_ids(variant):
    source = {f"t{i:04d}": rec(i % 3 == 0, f"task {i}", (TODAY, APR2)[i % 2]) for i in range(1000)}
    scanned = new_session(variant, TODAY, source)
    session = dataclasses.replace(scanned, source=NoScan(source))
    ids = {"t0001", "t0002", "t0003", "absent"}
    assert session.views_of(ids) == tuple({k: r for k, r in view.items() if k in ids} for view in scanned.views)
    with pytest.raises(AssertionError, match="whole-table scan"):
        session.views
    if variant == "elaborated":
        session, _ = run_command(session, "edit og complete t0001")
        session, _ = run_command(session, f"edit dt postpone t0002 {APR2}")
        assert session.staged_og == Delta(moves={"t0001": rec(True, "task 1", APR2)})
        assert session.staged_dt == Delta(moves={"t0002": rec(False, "task 2", APR2)})


def test_text_patch_looks_up_only_the_changed_ids():
    source = Table({f"t{i:04d}": rec(i % 3 == 0, f"task {i}", (TODAY, APR2)[i % 2]) for i in range(1000)})
    text = TaskText.of(source)
    out = apply_dt(Delta({"new": EGG, "t0004": STRETCH}, {"t0001", "absent"}), source)
    with tables_unscanned():
        patched = text.patch(out)
    assert str(patched) == dump_tasks(out) and patched.table is out
    assert str(text) == dump_tasks(source)  # the patch copies; the kept text is unchanged


@pytest.mark.parametrize("variant", ["plain", "elaborated"])
def test_save_after_a_put_patches_the_kept_text_without_scanning_the_source(tmp_path, variant):
    source = {f"t{i:04d}": rec(i % 3 == 0, f"task {i}", (TODAY, APR2)[i % 2]) for i in range(1000)}
    session = new_session(variant, TODAY, source)
    lines = ["edit og del t0001", f'edit og add t0002 "renamed" {TODAY}', f'edit dt add new "fresh" {TODAY}', "put"]
    session = run_lines(session, lines, out=io.StringIO())
    assert session.source.changed_since(session.text.table) == {"t0001", "t0002", "new"}
    expected = dump_tasks(session.source).encode()
    saved = tmp_path / "saved.tasks"
    with tables_unscanned():
        session, out = run_command(session, f"save {saved}")
    assert out == [f"saved {saved}"] and saved.read_bytes() == expected
    assert str(session.text).encode() == expected and session.text.table is session.source


TEXT_IDS = st.sampled_from([f"k{i:02d}" for i in range(12)])
TEXT_CHANGES = st.dictionaries(TEXT_IDS, st.none() | st.sampled_from(TABLE_RECORDS), max_size=5)


def assert_renders(text, model, block):
    """``text`` is the canonical text of ``model`` in sorted blocks of
    one to ``block`` lines, each block's ``lengths`` cutting its UTF-8
    data into exactly the lines of its ids, and keeps a table version
    that reads as ``model``."""
    assert str(text) == dump_tasks(model)
    assert b"".join(data for _, _, data in text.blocks) == dump_tasks(model).encode()
    assert [k for ids, _, _ in text.blocks for k in ids] == sorted(model)
    for ids, lengths, data in text.blocks:
        lines = [dump_tasks({k: model[k]}).encode() for k in ids]
        assert 0 < len(ids) == len(lengths) <= block and data == b"".join(lines)
        ends = list(itertools.accumulate(lengths))
        assert ends[-1] == len(data) and [data[end - n : end] for end, n in zip(ends, lengths)] == lines
    assert text.table == model


@settings(max_examples=150, deadline=None)
@given(
    block=st.integers(1, 4),
    initial=st.dictionaries(TEXT_IDS, st.sampled_from(TABLE_RECORDS)),
    steps=st.lists(
        st.tuples(st.integers(0, 8), TEXT_CHANGES, st.lists(TEXT_IDS, max_size=2), st.integers(0, 8)), max_size=8
    ),
)
@example(
    block=2,
    initial={},
    steps=[
        (0, {"k05": EGG, "k06": STRETCH}, [], 0),  # the empty table gains its first block
        (1, {"k01": EGG}, ["k09"], 0),  # before the first block, which overflows; k09 is absent from both
        (2, {"k01": None, "k05": None}, ["k06"], 1),  # the first block, [k01, k05], is deleted whole
        (0, {"k03": None}, ["k04"], 3),  # the empty text patched for absent deletes only, and a branch's text
    ],
)
def test_text_patches_render_their_tables(block, initial, steps):
    """Chained patches, each from any earlier text, against ``dump_tasks``
    of a dict model, with blocks of at most ``block`` lines: a step
    upserts or deletes some ids (deleting some absent ones) and also
    upserts some ids with the records they hold or deletes them absent.
    Each step also patches another earlier text, maybe on another branch,
    to the new version.  After every step every earlier text still
    renders its own table, and a patch to an unrelated table formats it
    whole.  ``_WHOLE`` is 0, so no share of changed rows formats a version
    of the same table whole, and every such patch goes through the blocks."""
    with mock.patch.object(pslens.tasks, "_BLOCK", block), mock.patch.object(pslens.tasks, "_WHOLE", 0):
        versions = [(TaskText.of(Table(initial)), dict(initial))]
        for pick, changes, named, other in steps:
            text, model = versions[pick % len(versions)]
            adds = {k: r for k, r in changes.items() if r is not None}
            adds.update({k: model[k] for k in named if k in model and k not in changes})
            deletes = {k for k, r in changes.items() if r is None} | {k for k in named if k not in model}
            new = apply_dt(Delta(adds, deletes - adds.keys()), text.table)
            versions.append((text.patch(new), {k: r for k, r in {**model, **changes}.items() if r is not None}))
            assert_renders(versions[other % len(versions)][0].patch(new), versions[-1][1], block)
            for text, model in versions:
                assert_renders(text, model, block)
        unrelated = Table({"k00": EGG, **initial})
        whole = versions[-1][0].patch(unrelated)
        assert whole.table is unrelated and whole == TaskText.of(unrelated)
        assert_renders(whole, {"k00": EGG, **initial}, block)


WIDE_RECORDS = [rec(False, "x", TODAY), rec(True, "Café ☕ 𝄞", APR2), rec(False, "日本", TODAY)]


@settings(max_examples=100, deadline=None)
@given(
    block=st.integers(1, 4),
    initial=st.dictionaries(TEXT_IDS, st.sampled_from(WIDE_RECORDS)),
    steps=st.lists(st.dictionaries(TEXT_IDS, st.none() | st.sampled_from(WIDE_RECORDS), max_size=5), max_size=6),
)
def test_text_patches_splice_multibyte_lines(block, initial, steps):
    """Chained patches over names of one to four UTF-8 bytes a character:
    a multi-byte line is spliced at its size in bytes."""
    with mock.patch.object(pslens.tasks, "_BLOCK", block), mock.patch.object(pslens.tasks, "_WHOLE", 0):
        text, model = TaskText.of(Table(initial)), dict(initial)
        assert_renders(text, model, block)
        for changes in steps:
            adds = {k: r for k, r in changes.items() if r is not None}
            new = apply_dt(Delta(adds, changes.keys() - adds.keys()), text.table)
            text, model = text.patch(new), {k: r for k, r in {**model, **changes}.items() if r is not None}
            assert_renders(text, model, block)


def test_a_patch_that_only_replaces_lines_keeps_each_block_s_ids():
    """A block whose changed ids are all replaced keeps its ``ids`` list
    object and gets new ``lengths`` and bytes; a block that gains an id
    gets a new ``ids`` list, and the kept text's blocks are unchanged."""
    source = Table({f"t{i:04d}": rec(i % 3 == 0, f"task {i}", TODAY) for i in range(1000)})
    text = TaskText.of(source)
    out = apply_dt(Delta({"t0002": rec(False, "Café ☕", APR2), "t0500": STRETCH, "t0500a": EGG}), source)
    patched = text.patch(out)
    assert str(patched) == dump_tasks(out) and str(text) == dump_tasks(source)
    first, new_first = text.blocks[0], patched.blocks[0]
    assert new_first[0] is first[0] and new_first[1] is not first[1] and new_first[2] != first[2]
    middle = next(b for b, (ids, _, _) in enumerate(text.blocks) if "t0500" in ids)
    assert patched.blocks[middle][0] is not text.blocks[middle][0] and "t0500a" in patched.blocks[middle][0]
    assert "t0500a" not in text.blocks[middle][0]


def test_a_patch_past_a_quarter_of_the_rows_formats_the_version_whole():
    """Past 1/_WHOLE of the rows changed, the patch is ``TaskText.of`` of the
    version: the same blocks, none shared with the kept text."""
    source = Table({f"t{i:04d}": rec(i % 3 == 0, f"task {i}", (TODAY, APR2)[i % 2]) for i in range(1000)})
    text = TaskText.of(source)
    steps = [Delta(deletes={f"t{i:04d}"}) for i in range(0, 300, 3)]
    steps += [Delta({f"t{i:04d}": STRETCH}) for i in range(1, 300, 3)] + [Delta({f"n{i:03d}": EGG}) for i in range(100)]
    out = source
    for d in steps:  # 300 versions, each changing one id of 1000
        out = apply_dt(d, out)
    assert len(out.changed_since(source)) * pslens.tasks._WHOLE > len(out)
    patched = text.patch(out)
    assert str(patched) == dump_tasks(out) and patched.table is out and patched == TaskText.of(out)
    assert not any(new is old for new in patched.blocks for old in text.blocks)
    assert str(text) == dump_tasks(source)


def test_a_patch_rebuilds_only_the_blocks_its_ids_fall_in():
    """Pinned by structure rather than time: patching k ids of a 1e4-row
    text leaves all but at most k blocks the same objects as before."""
    source = Table({f"t{i:05d}": rec(i % 3 == 0, f"task {i}", (TODAY, APR2)[i % 2]) for i in range(10_000)})
    text = TaskText.of(source)
    changed = {"absent", "t00002", "t05000x", "t09999"}
    out = apply_dt(Delta({"t00002": STRETCH, "t05000x": EGG}, {"t09999", "absent"}), source)
    patched = text.patch(out)
    assert str(patched) == dump_tasks(out) and str(text) == dump_tasks(source)
    assert len(patched.blocks) == len(text.blocks) > 70
    assert sum(new is not old for new, old in zip(patched.blocks, text.blocks)) <= len(changed)


@pytest.mark.parametrize("variant", ["plain", "elaborated"])
def test_show_renders_the_source_as_dump_tasks_with_and_without_unsaved_ids(tmp_path, variant):
    def rendered(t):
        return ["  " + line for line in dump_tasks(t).split("\n")[:-1]] or ["  (empty)"]

    session = new_session(variant, TODAY, S_TL)
    steps = [[], ["edit og del 001", f'edit dt add 000 "first" {TODAY}', "put"], [f"save {tmp_path / 'out.tasks'}"]]
    steps += [["edit og del 000", "edit og del 003", "edit dt del 002", "put"]]
    for lines in steps:
        session = run_lines(session, lines, out=io.StringIO())
        assert (session.text.table is not session.source) == (lines[-1:] == ["put"])
        og, dt = session.views
        expected = ["source:", *rendered(session.source), "ongoing view:", *rendered(og)]
        assert run_command(session, "show") == (session, expected + [f"today view ({TODAY}):", *rendered(dt)])
    assert session.source == {} and rendered(session.source) == ["  (empty)"]


@pytest.mark.parametrize("variant", ["plain", "elaborated"])
def test_a_put_updates_the_source_dict_in_place_and_keeps_an_undo_diff(variant):
    """No copy, pinned by structure rather than time: after a ``put`` on a
    1e4-row session the new source holds the dict the old source held,
    and the old source holds undo entries for the merged delta's ids
    alone.  A second ``put`` from the old session gives what a put on a
    copy of the table gives."""
    source = {f"t{i:05d}": rec(i % 3 == 0, f"task {i}", (TODAY, APR2)[i % 2]) for i in range(10_000)}
    lines = ["edit og del t00001", f'edit og add t00002 "renamed" {TODAY}', f'edit dt add new "fresh" {TODAY}']
    lines += ["edit dt del absent"] + (["edit og complete t00004"] if variant == "elaborated" else [])
    staged = run_lines(new_session(variant, TODAY, source), lines, out=io.StringIO())
    storage = staged.source._data
    after, out = run_command(staged, "put")
    assert out[0] == "source now has 10000 task(s)"
    assert after.source._data is storage and after.source._next is None
    assert staged.source._next is after.source
    assert staged.source._data.keys() == staged.staged_og.ids | staged.staged_dt.ids
    expected = {**source, "t00002": rec(False, "renamed", TODAY), "new": rec(False, "fresh", TODAY)}
    del expected["t00001"]
    if variant == "elaborated":
        expected["t00004"] = dataclasses.replace(source["t00004"], done=True)
    again, _ = run_command(staged, "put")
    assert again.source == after.source == expected and staged.source == source
    assert dump_tasks(again.source) == dump_tasks(after.source) == dump_tasks(expected)


def test_delta_ids_name_adds_deletes_and_moves():
    d = Delta({"a": EGG}, {"b"}, {"c": rec(True, "x", TODAY)})
    assert d.ids == {"a", "b", "c"}
    assert Delta().ids == frozenset()


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------


def test_tasks_round_trip_and_canonical_order():
    text = dump_tasks(S_TL)
    assert text.splitlines()[0].startswith("task 001")
    assert load_tasks(text) == S_TL
    assert dump_tasks(load_tasks(text)) == text


def test_loaded_records_share_one_string_per_due_date():
    t = load_tasks(f'task a false "x" {TODAY}\ntask b true "y" {APR2}\ntask c false "z" {TODAY}\n')
    assert t["a"].due is t["c"].due and t["b"].due == APR2


def test_records_are_slotted_values():
    r = rec(False, "x", TODAY)
    assert not hasattr(r, "__dict__")
    assert [f.name for f in dataclasses.fields(r)] == ["done", "name", "due"]
    assert dataclasses.replace(r, done=True) == rec(True, "x", TODAY) != r
    assert hash(r) == hash(rec(False, "x", TODAY))


def test_tasks_quoting():
    tricky = {"a": rec(False, 'say "hi" \\ there', TODAY)}
    assert load_tasks(dump_tasks(tricky)) == tricky


@pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\u2028b", "a\r\nb", '\\n"\\'])
def test_names_with_line_breaks_round_trip(name, tmp_path):
    t = {"a": rec(False, name, TODAY)}
    assert load_tasks(dump_tasks(t)) == t
    path = tmp_path / "t.tasks"  # as the CLI's save and load do it
    path.write_bytes(dump_tasks(t).encode("utf-8"))
    with open(path, encoding="utf-8", newline="") as f:
        assert load_tasks(f.read()) == t


def test_tasks_parse_errors():
    with pytest.raises(ParseError):
        load_tasks("task 001 maybe x 2025-01-01\n")
    with pytest.raises(ParseError):
        load_tasks("task 001 false \"a\" 2025-01-01\ntask 001 false \"b\" 2025-01-01\n")
    with pytest.raises(ParseError):
        load_tasks("wibble\n")


task_ids = st.text(min_size=1, max_size=6).filter(is_task_id)
names = st.text(min_size=1, max_size=10)
records = st.builds(TaskRecord, st.booleans(), names, st.sampled_from([TODAY, APR2]))


@given(st.dictionaries(task_ids, records, max_size=4))
def test_tasks_round_trip_over_accepted_ids(t):
    assert load_tasks(dump_tasks(t)) == t


@pytest.mark.parametrize(
    "shape, clause",
    [
        ("tasks", 'task "a b" false "x" 2025-04-01'),
        ("tasks", 'task "" false "x" 2025-04-01'),
        ("tasks", 'task "a#b" false "x" 2025-04-01'),
        ("plain", 'upsert "a\tb" false "x" 2025-04-01'),
        ("plain", 'delete "a\\"b"'),
        ("ongoing", 'complete "#a" "x" 2025-04-01'),
        ("today", 'postpone "a b" false "x" 2025-04-02'),
        ("tasks", 'task a\udcff false "x" 2025-04-01'),
        ("today", "delete \ud800"),
    ],
)
def test_bad_ids_are_parse_errors_with_line_numbers(shape, clause):
    first = 'task ok false "x" 2025-04-01' if shape == "tasks" else "delete ok"
    text = f"# a comment\n{first}\n{clause}\n"
    with pytest.raises(ParseError, match="^line 3: task id"):
        load_tasks(text) if shape == "tasks" else load_delta(text, shape)


def test_delta_round_trips_all_shapes():
    d = Delta({"004": EGG}, {"002"})
    assert load_delta(dump_delta(d), "plain") == d
    og = Delta({"004": EGG}, {"001"}, {"003": rec(True, "Jog", TODAY)})
    assert load_delta(dump_delta(og, "ongoing"), "ongoing") == og
    dt = Delta({"004": EGG}, {"002"}, {"001": rec(False, "Buy milk", APR2)})
    assert load_delta(dump_delta(dt, "today"), "today") == dt


def test_delta_shape_mismatch_is_parse_error():
    og = Delta({}, set(), {"003": rec(True, "Jog", TODAY)})
    with pytest.raises(ParseError):
        load_delta(dump_delta(og, "ongoing"), "plain")
    with pytest.raises(ValueError):
        dump_delta(og, "plain")
    with pytest.raises(ParseError, match="^line 2: "):
        load_delta('delete b\nupsert a true "x" 2025-04-01\n', "ongoing")  # ongoing-view upserts are ongoing
    with pytest.raises(ParseError):
        load_delta("upsert a false \"x\" 2025-01-01\ndelete a\n", "plain")


def test_unknown_delta_shape_is_value_error():
    for call in (lambda: dump_delta(Delta(), "bogus"), lambda: load_delta("", "bogus")):
        with pytest.raises(ValueError, match="^unknown delta shape 'bogus'$"):
            call()


@pytest.mark.parametrize(
    "shape, text",
    [
        ("plain", 'upsert a false "x" 2025-04-01\nupsert a false "y" 2025-04-01\n'),
        ("plain", "delete a\n# twice\ndelete a\n"),
        ("ongoing", 'complete a "x" 2025-04-01\ncomplete a "y" 2025-04-01\n'),
        ("today", 'postpone a false "x" 2025-04-02\npostpone a false "y" 2025-04-03\n'),
        ("plain", 'upsert a false "x" 2025-04-01\ndelete a\n'),
        ("ongoing", 'delete a\ncomplete a "x" 2025-04-01\n'),
        ("ongoing", 'complete a "x" 2025-04-01\nupsert a false "x" 2025-04-01\n'),
        ("today", 'postpone a false "x" 2025-04-02\n\ndelete a\n'),
    ],
)
def test_delta_repeated_id_is_parse_error(shape, text):
    last = len(text.splitlines())
    with pytest.raises(ParseError, match=f"^line {last}: duplicate"):
        load_delta(text, shape)
