"""To-do task tables synchronized across two filtered views.

A task source is a finite mapping from ids to records ``(done, name,
due)``.  Ids are bare tokens (see :func:`is_task_id`); due dates are
canonical ``YYYY-MM-DD`` text compared by equality only, and "today" is
always an explicit parameter, never ambient clock state.

Both views are one construction, the ``filter`` lens of Foster et al.
(TOPLAS 2007): keep the records a predicate accepts.  A
:class:`FilterDomain` holds the tables its filter keeps whole together
with the update intentions over them, the deltas
``Delta(adds, deletes, moves)``:

* ``adds`` are upserted records the view keeps;
* ``deletes`` are ids to remove;
* ``moves`` are upserted records the edit moves *out of* the view:
  completions in the ongoing view, postponements in the due-today view.

The three id groups are pairwise disjoint; conflicting instructions are
rejected outright.  Deltas are ordered by component-wise inclusion, sit
below every table that realizes them, and merge by union when the union
is still a delta.  A delta with nothing to delete or move and whose adds
are already present is an identical update for the table.  The source
domain is the filter that keeps every record, so its deltas never move.

:func:`filter_lens` builds every view lens from its domain.  The plain
variant shows deltas in the source domain, so records the filter
rejects are dropped by ``get`` and refused by ``put``; the elaborated
variant shows them in the view domain, so ``get`` turns them into moves
and ``put`` upserts the moves back.
"""

from __future__ import annotations

import collections.abc
import datetime
import functools
import itertools
import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from .iposet import UNDEFINED, IPoset, _escape, _is_bare_token, _quote, _read_directives
from .lens import (
    PSLens,
    PutFailure,
    Reason,
    dup_lens,
    initiator,
    pipeline,
    product_lens,
)
from .updates import UpdateSpace


class ParseError(ValueError):
    """A task or delta file (or inline clause) failed to parse."""


_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _encodable(text: str) -> bool:
    """Whether UTF-8 can hold ``text``: it holds no lone surrogate."""
    return text.isascii() or _LONE_SURROGATE.search(text) is None


def is_task_id(x: Any) -> bool:
    """Whether ``x`` is a bare token of the line grammar (ids are written unquoted) that UTF-8 can hold."""
    return _is_bare_token(x) and _encodable(x)


_VALID_DATES: set[str] = set()  # the dates check_date has accepted: at most one entry per calendar day


def check_date(text: Any) -> str:
    """``text`` itself if it is a canonical ``YYYY-MM-DD`` calendar date."""
    if type(text) is str and text in _VALID_DATES:
        return text
    try:
        if _DATE.fullmatch(text):
            datetime.date.fromisoformat(text)
            if type(text) is str:
                _VALID_DATES.add(text)
            return text
    except (TypeError, ValueError):
        pass
    raise ValueError(f"date {text!r} is not a YYYY-MM-DD date")


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """One to-do entry: completion flag, display name, due date."""

    done: bool
    name: str
    due: str

    def __post_init__(self):
        if type(self.done) is not bool:
            raise ValueError(f"task done flag {self.done!r} is not a bool")
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("task name must be nonempty")
        if not _encodable(self.name):
            raise ValueError(f"task name {self.name!r} holds a lone surrogate, which UTF-8 cannot hold")
        check_date(self.due)


def valid_tasks(t: Any) -> bool:
    return isinstance(t, (dict, Table)) and all(is_task_id(k) and isinstance(v, TaskRecord) for k, v in t.items())


def _check_ids(ids: Iterable) -> None:
    for k in ids:
        if not is_task_id(k):
            raise ValueError(f"task id {k!r} is not a bare token in UTF-8")


def _check_table(table: Mapping, label: str) -> Mapping:
    """``table`` itself, once its ids are task ids and its values records."""
    _check_ids(table)
    if not all(isinstance(r, TaskRecord) for r in table.values()):
        raise ValueError(f"{label} is not a valid task table")
    return table


@dataclass(frozen=True)
class Delta:
    """Update intention over a task table: upserts, deletions, moves.

    ``adds`` must be present in any realizing table and ``deletes``
    absent.  ``moves`` are upserts that leave the view the delta lives
    in, so a realizing view lacks them.  The three id groups are
    pairwise disjoint by construction (rejected, not normalized, so no
    instruction silently wins).

    A delta is checked once, where it enters: ``Delta(...)`` checks every
    id and record (a ``str`` is not a collection of deletes), and
    :meth:`_of` only the overlap of the id groups.
    """

    adds: dict
    deletes: frozenset
    moves: dict

    def __init__(self, adds: Mapping = (), deletes: Iterable = (), moves: Mapping = ()):
        adds, moves = _check_table(dict(adds), "adds"), _check_table(dict(moves), "moves")
        if isinstance(deletes, str):
            raise ValueError(f"deletes must be a collection of task ids, not the string {deletes!r}")
        deletes = frozenset(deletes)
        _check_ids(deletes)
        self._fill(adds, deletes, moves)

    @classmethod
    def _of(cls, adds: dict, deletes: frozenset, moves: dict) -> Delta:
        """The unchecked positional entry, for a delta built from parts of checked
        deltas: ``adds`` and ``moves`` are fresh task tables and ``deletes`` a
        frozenset of task ids.  Overlapping id groups still raise ``ValueError``."""
        return cls.__new__(cls)._fill(adds, deletes, moves)

    def _fill(self, adds: dict, deletes: frozenset, moves: dict) -> Delta:
        if not (deletes.isdisjoint(adds) and deletes.isdisjoint(moves) and adds.keys().isdisjoint(moves)):
            raise ValueError("delta id groups overlap")
        self.__dict__.update(adds=adds, deletes=deletes, moves=moves)  # frozen: no __setattr__
        return self

    @property
    def ids(self) -> frozenset:
        """Every id the delta names: the only ids applying it can change."""
        return frozenset((*self.adds, *self.deletes, *self.moves))


# ---------------------------------------------------------------------------
# Table helpers
# ---------------------------------------------------------------------------


_ABSENT = object()  # an undo entry for an id its version lacks


def _swap(data: dict, diff: dict) -> dict:
    """Apply ``diff`` to ``data`` in place, in its order; the diff that undoes it."""
    undo = {k: data.get(k, _ABSENT) for k in diff}
    for k, r in diff.items():
        if r is _ABSENT:
            data.pop(k, None)
        else:
            data[k] = r
    return undo


class Table(collections.abc.Mapping):
    """A persistent task table: updating a version gives a new one, and
    each version keeps its value.

    The versions share one dict by rerooting (Baker, "Shallow binding
    makes functional arrays fast", 1991): the newest holds the dict, each
    older one an undo diff (id to record, or ``_ABSENT``) and the next
    newer version.  Reading an older version reverses the diffs between
    it and the newest, at their size.  A version shows insertion order
    only while it is the newest; its views and iterators hold until
    another version is read, and versions of one table must not be read
    from two threads at once.  Whole-table reads go to the dict, and
    ``Mapping`` gives ``keys``, ``values`` and an ``==`` that copies both sides.
    """

    __slots__ = ("_data", "_next")

    def __init__(self, t: Mapping = ()):
        self._data, self._next = dict(t), None

    @classmethod
    def of(cls, t: Mapping) -> Table:
        """``t`` itself if it is a table, else a table of a copy of ``t``."""
        return t if isinstance(t, Table) else cls(t)

    def _dict(self) -> dict:
        """The shared dict, rerooted to this version."""
        if self._next is None:
            return self._data
        path, node = [], self
        while node._next is not None:
            path.append(node)
            node = node._next
        data = node._data
        for older in reversed(path):
            node._data, node._next = _swap(data, older._data), older
            node = older
        self._data, self._next = data, None
        return data

    def updated(self, adds: Mapping, deletes: Iterable) -> Table:
        """The version with ``adds`` upserted and then ``deletes`` removed;
        O(|adds| + |deletes|), and this version becomes an undo diff."""
        new = Table.__new__(Table)
        new._data, new._next = self._dict(), None
        self._data, self._next = _swap(new._data, {**adds, **dict.fromkeys(deletes, _ABSENT)}), new
        return new

    def __getitem__(self, k):
        return self._dict()[k]

    def __contains__(self, k):
        return k in self._dict()

    def __iter__(self):
        return iter(self._dict())

    def __len__(self):
        return len(self._dict())

    def items(self):
        return self._dict().items()

    def copy(self) -> dict:
        """A plain dict of this version, copied at dict speed."""
        return self._dict().copy()

    def changed_since(self, older: Table) -> Optional[set]:
        """Every id this version may differ on from ``older`` (``None`` if that is another table's
        version): the undo diffs' keys on the path, at O(versions + diff entries) and no scan."""
        self._dict()
        ids, node = set(), older
        while node._next is not None:
            ids.update(node._data)
            node = node._next
        return ids if node is self else None

    def __repr__(self):
        return repr(self._dict())


def upsert(t: Mapping, a: Mapping) -> dict:
    """Update-or-insert ``a`` into ``t``; on common ids, ``a`` wins."""
    return {**t, **a}


def table_subset(a: Mapping, b: Mapping) -> bool:
    return all(k in b and b[k] == r for k, r in a.items())


def _union(a: dict, b: dict) -> Optional[dict]:
    """Both tables at once, or ``None`` when they disagree on an id."""
    if any(k in a and a[k] != r for k, r in b.items()):
        return None
    return {**a, **b}


def apply_dt(v: Any, t: Mapping) -> Table:
    """Apply a source-domain element as an update to a proper table.

    A proper view replaces the table; a delta upserts its adds and then
    removes its deletes (order immaterial thanks to disjointness), so
    only the ids the delta names change.  On a :class:`Table` a delta
    costs O(|delta|): the result is a new version and ``t`` keeps its
    value; any other table is copied once.  Total for every valid input.
    """
    if isinstance(v, Delta):
        return Table.of(t).updated(v.adds, v.deletes)
    return Table.of(v)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


class TasksDomain(IPoset):
    """Proper task tables, discrete."""

    name = "tasks"

    def le(self, a, b):
        return a == b

    def ident(self, a, b):
        return a == b

    def contains(self, x):
        return valid_tasks(x)


class FilterDomain(IPoset):
    """The tables a filter keeps whole, with the deltas over them.

    ``select`` restricts a table to the records the filter keeps, in one
    pass over the table; the rest of a table is its complement by id.
    A delta belongs here when the filter keeps all of its adds and none
    of its moves.  Deltas order by component-wise inclusion and sit
    below the tables realizing them: adds present, deletes and moves
    absent (the order cannot tell a move from a deletion, yet the deltas
    stay distinct elements).  Only a delta with nothing to delete or move
    counts as an identical update for a table.  Merge is union of deltas
    (failing on invalid unions) or absorption into a compatible table.

    The source's domain is the update-encoding recipe's instance
    (:func:`delta_update_space`): the recipe gives the same order and
    merge.  Its identical updates are the exception: the recipe also
    counts a delta deleting only ids a table lacks, since applying it
    leaves the table as it is.  The cut is deliberate: deleting an id a
    view does not show is not a no-op on the source.  With the recipe's
    identical updates, every filter lens fails ps-acceptability at
    ``s = {b: done record}``, which neither view shows, and
    ``v = Delta(deletes={b})``, whose ``put`` deletes ``b``.
    """

    has_merge = True

    def __init__(self, name: str, select: Callable[[Mapping], dict]):
        self.name = name
        self.select = select
        self.least = Delta()

    def split(self, t: Mapping) -> tuple[dict, dict]:
        """The records of ``t`` the filter keeps, and the rest."""
        kept = self.select(t)
        return kept, {k: r for k, r in t.items() if k not in kept}

    def contains(self, x):
        if isinstance(x, Delta):
            return len(self.select(x.adds)) == len(x.adds) and not self.select(x.moves)
        return valid_tasks(x) and len(self.select(x)) == len(x)

    def le(self, a, b):
        if isinstance(a, Delta) and isinstance(b, Delta):
            return table_subset(a.adds, b.adds) and table_subset(a.moves, b.moves) and a.deletes <= b.deletes
        if isinstance(a, Delta):
            return table_subset(a.adds, b) and not any(k in b for k in (*a.deletes, *a.moves))
        return not isinstance(b, Delta) and a == b

    def ident(self, a, b):
        if isinstance(a, Delta) and not isinstance(b, Delta):
            return not a.deletes and not a.moves and table_subset(a.adds, b)
        return self.le(a, b)

    def merge(self, a, b):
        if not isinstance(a, Delta) and not isinstance(b, Delta):
            return a if a == b else UNDEFINED
        if not isinstance(b, Delta):
            return b if self.le(a, b) else UNDEFINED
        if not isinstance(a, Delta):
            return a if self.le(b, a) else UNDEFINED
        adds, moves = _union(a.adds, b.adds), _union(a.moves, b.moves)
        if adds is None or moves is None:
            return UNDEFINED  # same id upserted with different records
        try:
            return Delta._of(adds, a.deletes | b.deletes, moves)
        except ValueError:
            return UNDEFINED  # the union's id groups overlap


_TASKS = TasksDomain()
_DT = FilterDomain("tasks+deltas", lambda t: t.copy())  # a dict, or a Table read as one
_DTOG = FilterDomain("ongoing-view", lambda t: {k: r for k, r in t.items() if not r.done})


def tasks_domain() -> TasksDomain:
    return _TASKS


def dt_domain() -> FilterDomain:
    """The source's delta domain: the filter that keeps every record."""
    return _DT


def dtog_domain() -> FilterDomain:
    """The ongoing view's domain: the filter that keeps unfinished tasks."""
    return _DTOG


@functools.cache
def dtdt_domain(today: str) -> FilterDomain:
    """The due-today view's domain for a fixed day, one object per day."""
    check_date(today)
    return FilterDomain(f"due-{today}-view", lambda t: {k: r for k, r in t.items() if r.due == today})


# ---------------------------------------------------------------------------
# Lenses
# ---------------------------------------------------------------------------


def init_tasks() -> PSLens:
    """Embed proper tables among deltas; apply deltas coming back."""
    return initiator(tasks_domain(), dt_domain(), apply_dt, name="init-tasks")


def filter_lens(view: FilterDomain, variant: str, name: str) -> PSLens:
    """The view lens showing the records ``view`` keeps.

    ``get`` restricts a table, and splits a delta's adds into the kept
    ones and the rest; plain drops the rest, elaborated keeps them as
    moves.  ``put`` upserts a proper view over the filtered-out rest of
    a proper source, and hands a delta back with its moves upserted.
    Plain deltas live in the source domain, so a plain ``put`` refuses
    adds the filter rejects with ``GuardFailed``; elaborated deltas live
    in ``view`` and out-of-view values are ``OutOfDomain``.
    """
    if variant not in ("plain", "elaborated"):
        raise ValueError(f"unknown variant {variant!r}")
    elaborated = variant == "elaborated"
    side = view if elaborated else _DT

    def get(s):
        if not isinstance(s, Delta):
            return view.select(s)
        kept, rest = view.split(s.adds)
        return Delta._of(kept, s.deletes, rest if elaborated else {})

    def put(s, v):
        if not side.contains(v):
            return PutFailure(Reason.OUT_OF_DOMAIN, (s, v), (name,))
        if (side is not view and not view.contains(v)) or (not isinstance(v, Delta) and isinstance(s, Delta)):
            return PutFailure(Reason.GUARD_FAILED, (s, v), (name,))
        if not isinstance(v, Delta):
            return upsert(view.split(s)[1], v)
        return Delta._of(upsert(v.adds, v.moves), v.deletes, {})

    return PSLens(_DT, side, get=get, put=put, name=name)


def filter_ongoing(variant: str) -> PSLens:
    """The ongoing-tasks view lens; elaborated moves are completions."""
    return filter_lens(dtog_domain(), variant, "filter-ongoing")


def filter_today(variant: str, today: str) -> PSLens:
    """The due-today view lens; elaborated moves are postponements."""
    return filter_lens(dtdt_domain(today), variant, f"filter-due-{today}")


def task_pipeline(variant: str, today: str) -> PSLens:
    """The whole synchronizer: embed, duplicate, filter both copies.

    ``get`` produces the pair of views; ``put`` pushes a pair of view
    updates back through the filters, merges them over the shared
    source, and applies the merged delta to the task table.
    """
    return pipeline(
        init_tasks(),
        dup_lens(dt_domain(), name="dup-tasks"),
        product_lens(filter_ongoing(variant), filter_today(variant, today)),
        name=f"tasks-{variant}-{today}",
    )


# ---------------------------------------------------------------------------
# Bounded enumeration (for exhaustive desk-scale checking)
# ---------------------------------------------------------------------------


def enumerate_tables(ids: list[str], records: list[TaskRecord]) -> list[dict]:
    """All task tables over the given ids and record values."""
    out = []
    options = [None] + list(records)
    for combo in itertools.product(options, repeat=len(ids)):
        out.append({k: r for k, r in zip(ids, combo) if r is not None})
    return out


def enumerate_deltas(ids: list[str], records: list[TaskRecord], moved: list[TaskRecord] = ()) -> list[Delta]:
    """All deltas over the given ids: each id is left out, added with one
    of ``records``, moved with one of ``moved``, or deleted."""
    out = []
    options: list = [("skip", None)] + [("adds", r) for r in records] + [("moves", r) for r in moved]
    options.append(("deletes", None))
    for combo in itertools.product(options, repeat=len(ids)):
        parts: dict = {"adds": {}, "deletes": {}, "moves": {}}
        for k, (part, r) in zip(ids, combo):
            if part != "skip":
                parts[part][k] = r
        out.append(Delta(**parts))
    return out


def enumerate_view_universe(view: FilterDomain, ids: list[str], records: list[TaskRecord]) -> list:
    """The elements of ``view`` over the given ids and record values:
    first the tables, then the deltas."""
    kept, moved = (list(t.values()) for t in view.split(dict(enumerate(records))))
    return enumerate_tables(ids, kept) + enumerate_deltas(ids, kept, moved)


def enumerate_dt_universe(ids: list[str], records: list[TaskRecord]) -> list:
    return enumerate_view_universe(dt_domain(), ids, records)


def delta_update_space(ids: list[str], records: list[TaskRecord]) -> UpdateSpace:
    """The source deltas as an instance of the update-encoding recipe.

    States are the tables over ``ids`` and ``records``, updates are the
    deltas over them, ordered and merged as in :func:`dt_domain`, and an
    update applies by :func:`apply_dt`.  Its origin-erased domain is
    :func:`dt_domain` on the same elements except for identical updates
    (see :class:`FilterDomain`).
    """
    tables, deltas = enumerate_tables(ids, records), enumerate_deltas(ids, records)
    pairs = list(itertools.product(deltas, repeat=2))
    return UpdateSpace(
        tables,
        deltas,
        [(a, b) for a, b in pairs if _DT.le(a, b)],
        [(a, b, m) for a, b in pairs for m in (_DT.merge(a, b),) if m is not UNDEFINED],
        [(u, t, apply_dt(u, t)) for u in deltas for t in tables],
        name=f"deltas-{len(ids)}-ids",
    )


def enumerate_og_universe(ids: list[str], records: list[TaskRecord]) -> list:
    return enumerate_view_universe(dtog_domain(), ids, records)


def enumerate_dtdt_universe(ids: list[str], records: list[TaskRecord], today: str) -> list:
    return enumerate_view_universe(dtdt_domain(today), ids, records)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

#: The clauses of a delta file with their argument counts, per delta
#: shape; ``complete`` and ``postpone`` carry the delta's moves.
_CLAUSES = {
    "plain": {"upsert": 4, "delete": 1},
    "ongoing": {"upsert": 4, "complete": 3, "delete": 1},
    "today": {"upsert": 4, "postpone": 4, "delete": 1},
}


def _clauses(shape: str) -> dict[str, int]:
    """The clauses of a delta shape with their argument counts."""
    if shape not in _CLAUSES:
        raise ValueError(f"unknown delta shape {shape!r}")
    return _CLAUSES[shape]


# the characters a quoted name escapes (f-string expressions take no backslashes before 3.12)
_DQ, _BS, _LF, _CR = '"', "\\", "\n", "\r"


def _task_lines(ids: Iterable, t: Mapping, tag: str = "task") -> list[str]:
    """The canonical ``tag`` line (``task``, or a delta's ``upsert`` or
    ``postpone``) of each of ``ids`` in ``t``, in the order given.

    Each row is formatted in place, and only a name holding a character
    the quotes escape goes through the escaper.
    """
    return [
        f'{tag} {k} {"true" if r.done else "false"} '
        f'"{_escape(n) if _DQ in n or _BS in n or _LF in n or _CR in n else n}" {r.due}\n'
        for k in ids for r in (t[k],) for n in (r.name,)
    ]


def dump_tasks(t: Mapping) -> str:
    """Canonical task-table text: one line per task, sorted by id.

    The ids are sorted on their own, which takes CPython's all-``str``
    comparison fast path.
    """
    return "".join(_task_lines(sorted(t), t))


_BLOCK = 128  # lines per block at most; 64 saves as fast at 1e4-1e5 rows and slower at 1e3
_WHOLE = 4  # a patch formats a version whole past 1/_WHOLE of its rows changed (crossover: 20-30%)


def _block(ids: list, lines: list) -> tuple:
    """The block ``(ids, lengths, data)`` of ``lines``: ``data`` is their join
    in UTF-8 and ``lengths`` the size of each in it."""
    text = "".join(lines)
    data = text.encode()
    one_byte = len(data) == len(text)  # every character is ASCII, so each line's size in bytes is its length
    return ids, array("I", map(len, lines) if one_byte else (len(line.encode()) for line in lines)), data


def _step(n: int) -> int:
    """The lines per block, the last maybe fewer, when ``n`` lines are cut
    into the fewest blocks of at most ``_BLOCK`` lines as evenly as they go."""
    return -(-n // -(-n // _BLOCK)) if n else 1  # ceil(n / ceil(n / _BLOCK))


def _blocks(ids: list, t: Mapping) -> list[tuple]:
    """The blocks of the sorted ``ids`` of ``t``, formatted one block at a
    time, so that the lines of one block at most are held as strs."""
    step = _step(len(ids))
    return [_block(chunk, _task_lines(chunk, t)) for i in range(0, len(ids), step) for chunk in (ids[i : i + step],)]


def _cut(ids: list, lengths: array, data: bytes) -> list[tuple]:
    """The block ``(ids, lengths, data)`` as the fewest blocks of at most
    ``_BLOCK`` lines, cut at line offsets as evenly as they go: itself if
    it fits, none if it has no lines."""
    if len(ids) <= _BLOCK:
        return [(ids, lengths, data)] if ids else []
    step, at, out = _step(len(ids)), 0, []
    for i in range(0, len(ids), step):
        size = sum(lengths[i : i + step])
        out.append((ids[i : i + step], lengths[i : i + step], data[at : at + size]))
        at += size
    return out


def _splice(ids: list, lengths: array, data: bytes, lines: dict) -> tuple:
    """The block ``(ids, lengths, data)`` with the UTF-8 line of each id in
    ``lines`` put in its sorted place, or cut out where that is ``None``, by
    slicing ``data`` at the offsets ``lengths`` gives.  The same ``ids``
    list is kept when no id comes or goes."""
    new_ids, lengths, pieces, end = ids, lengths[:], [], len(data)
    for k in sorted(lines, reverse=True):  # from the end, so the offsets before it hold
        i, line = bisect_left(new_ids, k), lines[k]
        hit = i < len(new_ids) and new_ids[i] == k
        if not hit and line is None:
            continue  # deleted, and absent already
        at = sum(lengths[:i])
        pieces += (data[at + lengths[i] if hit else at : end], line or b"")
        end = at
        if hit and line is not None:
            lengths[i] = len(line)
            continue
        new_ids = ids.copy() if new_ids is ids else new_ids
        if hit:
            del new_ids[i], lengths[i]
        else:
            new_ids.insert(i, k)
            lengths.insert(i, len(line))
    pieces.append(data[:end])
    pieces.reverse()
    return new_ids, lengths, b"".join(pieces)


@dataclass(frozen=True, slots=True)
class TaskText:
    """The canonical text of a task table, kept in sorted blocks: a chunked
    string of one level (Boehm, Atkinson & Plass, "Ropes", 1995).

    Each of ``blocks`` is ``(ids, lengths, data)`` for at most ``_BLOCK``
    consecutive sorted ids: ``data`` is their lines joined and encoded to
    UTF-8 when the block is built, and ``lengths[i]`` the size of the line
    of ``ids[i]`` in it, so each line is held once, as bytes.  No id or
    name holding a lone surrogate enters a table, so UTF-8 holds every
    line.  ``str(text)``, which decodes the blocks, is :func:`dump_tasks`
    of ``table``, the version kept, and a save writes the block bytes as
    they are.  Nothing is changed in place: :meth:`patch` shares every
    block it does not rebuild, so an older text still renders its own version.
    """

    blocks: list
    table: Table = field(compare=False, repr=False)

    @classmethod
    def of(cls, t: Table) -> "TaskText":
        return cls(_blocks(sorted(data := t._dict()), data), t)

    def patch(self, t: Table) -> "TaskText":
        """The text of ``t``: only the ids :meth:`Table.changed_since` gives are
        looked up in ``t``, and only the blocks they fall in are rebuilt (an id
        before every block falls in the first), at O(|changed| * _BLOCK) beyond
        one read of the blocks, and each changed line is spliced into its block's
        bytes.  ``t`` is formatted whole, which is then faster, if it is not a
        version of ``table`` or over 1/_WHOLE of its rows changed."""
        changed, data = t.changed_since(self.table), t._dict()
        if changed is None or len(changed) * _WHOLE > len(data):
            return TaskText.of(t)
        present = [k for k in changed if k in data]
        utf8 = {k: line.encode() for k, line in zip(present, _task_lines(present, data))}
        blocks, firsts = self.blocks.copy(), [ids[0] for ids, _, _ in self.blocks]
        touched: dict[int, dict] = {}  # block index to its changed ids' UTF-8 lines (None: deleted)
        for k in changed:
            touched.setdefault(bisect_right(firsts, k, 1) - 1, {})[k] = utf8.get(k)
        for b in sorted(touched, reverse=True):  # from the end, so the lower indices hold
            block = blocks[b] if blocks else ([], array("I"), b"")  # kept, split, dropped, or a first block
            blocks[b : b + 1] = _cut(*_splice(*block, touched[b]))
        return TaskText(blocks, t)

    def __str__(self) -> str:
        return b"".join(data for _, _, data in self.blocks).decode()


def _read_clauses(text: str, arity: dict[str, int], upserts: FilterDomain = _DT) -> dict[str, dict]:
    """Per clause tag, the records its lines give by task id (``None``
    for ``delete``; ``complete`` implies the done flag).  A line that
    does not parse, a bad id, flag, name or date, an ``upsert`` of a
    record the ``upserts`` view does not keep, and a second clause for
    one id are each a :class:`ParseError` naming the line."""
    parts: dict[str, dict] = {tag: {} for tag in arity}
    seen: set[str] = set()
    dues: dict[str, str] = {}  # one string per distinct due date, shared by its records
    for lineno, tag, args in _read_directives(text, arity, ParseError):
        key, fields = args[0], ("true", *args[1:]) if tag == "complete" else args[1:]
        try:
            _check_ids((key,))
            if key in seen:
                raise ValueError(f"duplicate task id {key!r}")
            seen.add(key)
            if fields and fields[0] not in ("true", "false"):
                raise ValueError(f"bad done flag {fields[0]!r}")
            record = (
                TaskRecord(fields[0] == "true", fields[1], dues.setdefault(fields[2], fields[2])) if fields else None
            )
            if tag == "upsert" and not upserts.select({key: record}):
                raise ValueError(f"the {upserts.name} does not keep the upserted record of {key!r}")
            parts[tag][key] = record
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return parts


def load_tasks(text: str) -> dict:
    """Parse a task-table file: ``task <id> <done> <name> <due>`` lines
    in the grammar of :func:`~pslens.iposet._read_directives`."""
    return _read_clauses(text, {"task": 4})["task"]


def dump_delta(d: Delta, shape: str = "plain") -> str:
    """Canonical delta text in the given shape (see :func:`load_delta`).

    Moves are written as ``complete`` clauses in the ``ongoing`` shape
    and as ``postpone`` clauses in the ``today`` shape; a ``plain``
    delta has no clause for them.
    """
    clauses = _clauses(shape)
    lines = _task_lines(sorted(d.adds), d.adds, "upsert")
    for k in sorted(d.moves):
        r = d.moves[k]
        if "complete" in clauses and r.done:
            # completions are completed by definition; the flag is implied
            lines.append(f"complete {k} {_quote(r.name)} {r.due}\n")
        elif "postpone" in clauses:
            lines += _task_lines((k,), d.moves, "postpone")
        else:
            raise ValueError(f"the move of {k!r} has no clause in a {shape} delta")
    lines += [f"delete {k}\n" for k in sorted(d.deletes)]
    return "".join(lines)


def load_delta(text: str, shape: str = "plain") -> Delta:
    """Parse a delta file of the given shape.

    ``shape`` is ``plain`` (upsert/delete), ``ongoing``
    (upsert/complete/delete, moves are completions and upserts must be
    ongoing) or ``today`` (upsert/postpone/delete, moves are
    postponements).  Lines follow the grammar of
    :func:`~pslens.iposet._read_directives`, and each id has one clause.
    :func:`_read_clauses` has checked every clause, so the delta is unchecked.
    """
    parts = _read_clauses(text, _clauses(shape), _DTOG if shape == "ongoing" else _DT)
    return Delta._of(parts["upsert"], frozenset(parts["delete"]), parts.get("complete") or parts.get("postpone", {}))
