"""To-do task tables synchronized across two filtered views.

A task source is a finite mapping from opaque ids to records
``(done, name, due)``.  Two views show the ongoing tasks and the tasks
due on a given day.  Updates to the views travel back as *deltas*:

* the plain delta ``Delta(adds, deletes)`` upserts the ``adds`` table
  and removes the ``deletes`` ids (a two-phase-set shape: the two parts
  must be disjoint, conflicting instructions are rejected outright);
* the elaborated per-view deltas carry a third table for requests that
  are invisible in the view itself: completions in the ongoing view
  (``DeltaOG``) and postponements in the due-today view (``DeltaDT``).

Deltas are ordered by component-wise inclusion, sit below every proper
table that realizes them, and merge by union when the union is still a
valid delta.  A delta with nothing to delete (or complete or postpone)
and whose adds are already present is an identical update for the
table.

Dates are ISO-8601 text compared by equality only; "today" is always an
explicit parameter, never ambient clock state.
"""

from __future__ import annotations

import datetime
import itertools
import shlex
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from .iposet import UNDEFINED, IPoset
from .lens import (
    PSLens,
    PutFailure,
    Reason,
    dup_lens,
    initiator,
    pipeline,
    product_lens,
)


class ParseError(ValueError):
    """A task or delta file (or inline clause) failed to parse."""


@dataclass(frozen=True)
class TaskRecord:
    """One to-do entry: completion flag, display name, due date."""

    done: bool
    name: str
    due: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("task name must be nonempty")
        try:
            datetime.date.fromisoformat(self.due)
        except (TypeError, ValueError):
            raise ValueError(f"due date {self.due!r} is not an ISO date") from None


#: A task table is a plain mapping id -> record; treat as immutable.
Tasks = dict


def valid_tasks(t: Any) -> bool:
    return isinstance(t, dict) and all(
        isinstance(k, str) and k and isinstance(v, TaskRecord) for k, v in t.items()
    )


def _freeze_ids(ids: Iterable) -> frozenset:
    ids = frozenset(ids)
    if not all(isinstance(k, str) and k for k in ids):
        raise ValueError("task ids must be nonempty strings")
    return ids


def _check_table(table: Mapping, label: str) -> dict:
    table = dict(table)
    if not valid_tasks(table):
        raise ValueError(f"{label} is not a valid task table")
    return table


@dataclass(frozen=True)
class Delta:
    """Upsert-and-delete update intention over a task table.

    ``adds`` must be present in any realizing table, ``deletes`` must be
    absent; the two parts are disjoint by construction (rejected, not
    normalized, so no instruction silently wins).
    """

    adds: dict
    deletes: frozenset

    def __init__(self, adds: Mapping = (), deletes: Iterable = ()):
        object.__setattr__(self, "adds", _check_table(adds, "adds"))
        object.__setattr__(self, "deletes", _freeze_ids(deletes))
        if self.deletes & set(self.adds):
            raise ValueError("delta adds and deletes overlap")


@dataclass(frozen=True)
class DeltaOG:
    """Ongoing-view update intention: adds, completions, deletes.

    Adds are ongoing records, completions are completed records; the
    three id sets are pairwise disjoint.
    """

    adds: dict
    completes: dict
    deletes: frozenset

    def __init__(self, adds: Mapping = (), completes: Mapping = (), deletes: Iterable = ()):
        adds = _check_table(adds, "adds")
        completes = _check_table(completes, "completes")
        if any(r.done for r in adds.values()):
            raise ValueError("ongoing-view adds must be ongoing records")
        if any(not r.done for r in completes.values()):
            raise ValueError("completion requests must be completed records")
        object.__setattr__(self, "adds", adds)
        object.__setattr__(self, "completes", completes)
        object.__setattr__(self, "deletes", _freeze_ids(deletes))
        groups = [set(adds), set(completes), set(self.deletes)]
        for g1, g2 in itertools.combinations(groups, 2):
            if g1 & g2:
                raise ValueError("delta id groups overlap")


@dataclass(frozen=True)
class DeltaDT:
    """Due-today-view update intention: adds, postponements, deletes.

    Date constraints (adds due today, postponements due elsewhere) are
    relative to the view's day and are checked by the domain, not here.
    """

    adds: dict
    postpones: dict
    deletes: frozenset

    def __init__(self, adds: Mapping = (), postpones: Mapping = (), deletes: Iterable = ()):
        object.__setattr__(self, "adds", _check_table(adds, "adds"))
        object.__setattr__(self, "postpones", _check_table(postpones, "postpones"))
        object.__setattr__(self, "deletes", _freeze_ids(deletes))
        groups = [set(self.adds), set(self.postpones), set(self.deletes)]
        for g1, g2 in itertools.combinations(groups, 2):
            if g1 & g2:
                raise ValueError("delta id groups overlap")


# ---------------------------------------------------------------------------
# Table helpers
# ---------------------------------------------------------------------------


def upsert(t: Mapping, a: Mapping) -> dict:
    """Update-or-insert ``a`` into ``t``; on common ids, ``a`` wins."""
    return {**t, **a}


def table_subset(a: Mapping, b: Mapping) -> bool:
    return all(k in b and b[k] == r for k, r in a.items())


def restrict_ongoing(t: Mapping) -> dict:
    return {k: r for k, r in t.items() if not r.done}


def restrict_completed(t: Mapping) -> dict:
    return {k: r for k, r in t.items() if r.done}


def restrict_due(t: Mapping, today: str) -> dict:
    return {k: r for k, r in t.items() if r.due == today}


def restrict_not_due(t: Mapping, today: str) -> dict:
    return {k: r for k, r in t.items() if r.due != today}


def apply_dt(v: Any, t: Mapping) -> dict:
    """Apply a task-domain element as an update to a proper table.

    A proper view replaces the table; a delta upserts its adds and then
    removes its deletes (order immaterial thanks to disjointness).
    Total for every valid input.
    """
    if isinstance(v, dict):
        return dict(v)
    if isinstance(v, Delta):
        return {k: r for k, r in upsert(t, v.adds).items() if k not in v.deletes}
    raise TypeError(f"not a task-domain element: {v!r}")


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


class DTDomain(IPoset):
    """Task tables together with plain deltas.

    Deltas order by component-wise inclusion and sit below the tables
    realizing them; only a delete-free delta counts as an identical
    update for a table.  Merge is union of deltas (failing on invalid
    unions) or absorption into a compatible table.
    """

    name = "tasks+deltas"
    has_merge = True

    def __init__(self):
        self.least = Delta()

    def contains(self, x):
        return valid_tasks(x) or isinstance(x, Delta)

    def le(self, a, b):
        if isinstance(a, Delta) and isinstance(b, Delta):
            return table_subset(a.adds, b.adds) and a.deletes <= b.deletes
        if isinstance(a, Delta) and isinstance(b, dict):
            return table_subset(a.adds, b) and not (a.deletes & set(b))
        if isinstance(a, dict) and isinstance(b, dict):
            return a == b
        return False

    def ident(self, a, b):
        if isinstance(a, Delta) and isinstance(b, dict):
            return not a.deletes and table_subset(a.adds, b)
        return self.le(a, b)

    def merge(self, a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            return a if a == b else UNDEFINED
        if isinstance(a, Delta) and isinstance(b, dict):
            return b if self.le(a, b) else UNDEFINED
        if isinstance(a, dict) and isinstance(b, Delta):
            return a if self.le(b, a) else UNDEFINED
        adds = dict(a.adds)
        for k, r in b.adds.items():
            if adds.get(k, r) != r:
                return UNDEFINED  # same id upserted with different records
        adds.update(b.adds)
        deletes = a.deletes | b.deletes
        if deletes & set(adds):
            return UNDEFINED
        return Delta(adds, deletes)


class DTOGDomain(IPoset):
    """Ongoing-view domain: all-ongoing tables plus elaborated deltas.

    Completion and deletion requests both demand absence from any
    realizing table (the proper order cannot tell them apart), yet the
    deltas remain distinct elements, which is the point of carrying the
    completes table separately.  No merge operator is attached: this
    domain is never duplicated.
    """

    name = "ongoing-view"

    def __init__(self):
        self.least = DeltaOG()

    def contains(self, x):
        if isinstance(x, DeltaOG):
            return True
        return valid_tasks(x) and all(not r.done for r in x.values())

    def le(self, a, b):
        if isinstance(a, DeltaOG) and isinstance(b, DeltaOG):
            return (
                table_subset(a.adds, b.adds)
                and table_subset(a.completes, b.completes)
                and a.deletes <= b.deletes
            )
        if isinstance(a, DeltaOG) and isinstance(b, dict):
            hidden = set(a.completes) | a.deletes
            return table_subset(a.adds, b) and not (hidden & set(b))
        if isinstance(a, dict) and isinstance(b, dict):
            return a == b
        return False

    def ident(self, a, b):
        if isinstance(a, DeltaOG) and isinstance(b, dict):
            return not a.completes and not a.deletes and table_subset(a.adds, b)
        return self.le(a, b)


class DTDTDomain(IPoset):
    """Due-today-view domain for a fixed day, mirror of the ongoing one.

    Adds are due today; postponement requests carry the task with its
    new (different) due date.  No merge operator is attached.
    """

    def __init__(self, today: str):
        datetime.date.fromisoformat(today)
        self.today = today
        self.name = f"due-{today}-view"
        self.least = DeltaDT()

    def contains(self, x):
        if isinstance(x, DeltaDT):
            return all(r.due == self.today for r in x.adds.values()) and all(
                r.due != self.today for r in x.postpones.values()
            )
        return valid_tasks(x) and all(r.due == self.today for r in x.values())

    def le(self, a, b):
        if isinstance(a, DeltaDT) and isinstance(b, DeltaDT):
            return (
                table_subset(a.adds, b.adds)
                and table_subset(a.postpones, b.postpones)
                and a.deletes <= b.deletes
            )
        if isinstance(a, DeltaDT) and isinstance(b, dict):
            hidden = set(a.postpones) | a.deletes
            return table_subset(a.adds, b) and not (hidden & set(b))
        if isinstance(a, dict) and isinstance(b, dict):
            return a == b
        return False

    def ident(self, a, b):
        if isinstance(a, DeltaDT) and isinstance(b, dict):
            return not a.postpones and not a.deletes and table_subset(a.adds, b)
        return self.le(a, b)


_TASKS = TasksDomain()
_DT = DTDomain()
_DTOG = DTOGDomain()
_DTDT_CACHE: dict[str, DTDTDomain] = {}


def tasks_domain() -> TasksDomain:
    return _TASKS


def dt_domain() -> DTDomain:
    return _DT


def dtog_domain() -> DTOGDomain:
    return _DTOG


def dtdt_domain(today: str) -> DTDTDomain:
    if today not in _DTDT_CACHE:
        _DTDT_CACHE[today] = DTDTDomain(today)
    return _DTDT_CACHE[today]


# ---------------------------------------------------------------------------
# Lenses
# ---------------------------------------------------------------------------


def init_tasks() -> PSLens:
    """Embed proper tables among deltas; apply deltas coming back."""
    return initiator(tasks_domain(), dt_domain(), apply_dt, name="init-tasks")


def filter_ongoing(variant: str = "plain") -> PSLens:
    """The ongoing-tasks view lens.

    Plain: both sides live in the delta domain; ``get`` restricts, and
    ``put`` hands deltas back unchanged (their adds must be ongoing)
    while a proper updated view is upserted over the filtered-out rest.
    Elaborated: the view's delta splits its adds by completion flag into
    separate add and complete requests, and ``put`` reunites them.
    """
    if variant == "plain":

        def get(s):
            if isinstance(s, dict):
                return restrict_ongoing(s)
            return Delta(restrict_ongoing(s.adds), s.deletes)

        def put(s, v):
            if not _DT.contains(v):
                return PutFailure(Reason.OUT_OF_DOMAIN, (s, v), ("filter-ongoing",))
            if isinstance(v, dict):
                if any(r.done for r in v.values()) or not isinstance(s, dict):
                    return PutFailure(Reason.GUARD_FAILED, (s, v), ("filter-ongoing",))
                return upsert(restrict_completed(s), v)
            if any(r.done for r in v.adds.values()):
                return PutFailure(Reason.GUARD_FAILED, (s, v), ("filter-ongoing",))
            return v

        return PSLens(_DT, _DT, get=get, put=put, name="filter-ongoing")

    if variant == "elaborated":

        def get(s):
            if isinstance(s, dict):
                return restrict_ongoing(s)
            return DeltaOG(restrict_ongoing(s.adds), restrict_completed(s.adds), s.deletes)

        def put(s, v):
            if not _DTOG.contains(v):
                return PutFailure(Reason.OUT_OF_DOMAIN, (s, v), ("filter-ongoing",))
            if isinstance(v, dict):
                if not isinstance(s, dict):
                    return PutFailure(Reason.GUARD_FAILED, (s, v), ("filter-ongoing",))
                return upsert(restrict_completed(s), v)
            return Delta(upsert(v.adds, v.completes), v.deletes)

        return PSLens(_DT, _DTOG, get=get, put=put, name="filter-ongoing")

    raise ValueError(f"unknown variant {variant!r}")


def filter_today(variant: str = "plain", today: str = "") -> PSLens:
    """The due-today view lens; mirror of :func:`filter_ongoing`.

    The elaborated variant splits a delta's adds by due date into add
    and postpone requests; putting a postponement back upserts the task
    with its new date.
    """
    if not today:
        raise ValueError("filter_today needs an explicit day")
    datetime.date.fromisoformat(today)
    name = f"filter-due-{today}"
    if variant == "plain":

        def get(s):
            if isinstance(s, dict):
                return restrict_due(s, today)
            return Delta(restrict_due(s.adds, today), s.deletes)

        def put(s, v):
            if not _DT.contains(v):
                return PutFailure(Reason.OUT_OF_DOMAIN, (s, v), (name,))
            if isinstance(v, dict):
                if any(r.due != today for r in v.values()) or not isinstance(s, dict):
                    return PutFailure(Reason.GUARD_FAILED, (s, v), (name,))
                return upsert(restrict_not_due(s, today), v)
            if any(r.due != today for r in v.adds.values()):
                return PutFailure(Reason.GUARD_FAILED, (s, v), (name,))
            return v

        return PSLens(_DT, _DT, get=get, put=put, name=name)

    if variant == "elaborated":
        view = dtdt_domain(today)

        def get(s):
            if isinstance(s, dict):
                return restrict_due(s, today)
            return DeltaDT(restrict_due(s.adds, today), restrict_not_due(s.adds, today), s.deletes)

        def put(s, v):
            if not view.contains(v):
                return PutFailure(Reason.OUT_OF_DOMAIN, (s, v), (name,))
            if isinstance(v, dict):
                if not isinstance(s, dict):
                    return PutFailure(Reason.GUARD_FAILED, (s, v), (name,))
                return upsert(restrict_not_due(s, today), v)
            return Delta(upsert(v.adds, v.postpones), v.deletes)

        return PSLens(_DT, view, get=get, put=put, name=name)

    raise ValueError(f"unknown variant {variant!r}")


def task_pipeline(variant: str = "plain", today: str = "") -> PSLens:
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


def enumerate_deltas(ids: list[str], records: list[TaskRecord]) -> list[Delta]:
    """All plain deltas over the given ids and record values."""
    out = []
    options: list = [("skip", None)] + [("add", r) for r in records] + [("del", None)]
    for combo in itertools.product(options, repeat=len(ids)):
        adds = {k: r for k, (kind, r) in zip(ids, combo) if kind == "add"}
        deletes = {k for k, (kind, _) in zip(ids, combo) if kind == "del"}
        out.append(Delta(adds, deletes))
    return out


def enumerate_dt_universe(ids: list[str], records: list[TaskRecord]) -> list:
    return enumerate_tables(ids, records) + enumerate_deltas(ids, records)


def enumerate_og_universe(ids: list[str], records: list[TaskRecord]) -> list:
    """Ongoing-view elements over the given ids and record values."""
    ongoing = [r for r in records if not r.done]
    completed = [r for r in records if r.done]
    out: list = [t for t in enumerate_tables(ids, ongoing)]
    options: list = [("skip", None)]
    options += [("add", r) for r in ongoing]
    options += [("complete", r) for r in completed]
    options += [("del", None)]
    for combo in itertools.product(options, repeat=len(ids)):
        adds = {k: r for k, (kind, r) in zip(ids, combo) if kind == "add"}
        completes = {k: r for k, (kind, r) in zip(ids, combo) if kind == "complete"}
        deletes = {k for k, (kind, _) in zip(ids, combo) if kind == "del"}
        out.append(DeltaOG(adds, completes, deletes))
    return out


def enumerate_dtdt_universe(ids: list[str], records: list[TaskRecord], today: str) -> list:
    """Due-today-view elements over the given ids and record values."""
    due = [r for r in records if r.due == today]
    elsewhere = [r for r in records if r.due != today]
    out: list = [t for t in enumerate_tables(ids, due)]
    options: list = [("skip", None)]
    options += [("add", r) for r in due]
    options += [("postpone", r) for r in elsewhere]
    options += [("del", None)]
    for combo in itertools.product(options, repeat=len(ids)):
        adds = {k: r for k, (kind, r) in zip(ids, combo) if kind == "add"}
        postpones = {k: r for k, (kind, r) in zip(ids, combo) if kind == "postpone"}
        deletes = {k for k, (kind, _) in zip(ids, combo) if kind == "del"}
        out.append(DeltaDT(adds, postpones, deletes))
    return out


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _record_fields(r: TaskRecord) -> str:
    return f"{'true' if r.done else 'false'} {_quote(r.name)} {r.due}"


def dump_tasks(t: Mapping) -> str:
    """Canonical task-table text: one line per task, sorted by id."""
    return "".join(f"task {k} {_record_fields(t[k])}\n" for k in sorted(t))


def _parse_record(args: list[str], lineno: int, done: Optional[bool] = None) -> TaskRecord:
    try:
        if done is None:
            flag, name, due = args
            if flag not in ("true", "false"):
                raise ValueError(f"bad done flag {flag!r}")
            done = flag == "true"
        else:
            name, due = args
        return TaskRecord(done, name, due)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            tokens = shlex.split(raw, comments=True)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if tokens:
            yield lineno, tokens


def load_tasks(text: str) -> dict:
    """Parse a task-table file."""
    out: dict = {}
    for lineno, tokens in _tokenize(text):
        if tokens[0] != "task" or len(tokens) != 5:
            raise ParseError(f"line {lineno}: expected 'task <id> <done> <name> <due>'")
        key = tokens[1]
        if key in out:
            raise ParseError(f"line {lineno}: duplicate task id {key!r}")
        out[key] = _parse_record(tokens[2:], lineno)
    return out


def dump_delta(d: Any) -> str:
    """Canonical delta text for any of the three delta shapes."""
    lines = []
    if isinstance(d, Delta):
        adds, third, kind = d.adds, {}, ""
    elif isinstance(d, DeltaOG):
        adds, third, kind = d.adds, d.completes, "complete"
    elif isinstance(d, DeltaDT):
        adds, third, kind = d.adds, d.postpones, "postpone"
    else:
        raise TypeError(f"not a delta: {d!r}")
    lines += [f"upsert {k} {_record_fields(adds[k])}" for k in sorted(adds)]
    if kind == "complete":
        # completions are completed by definition; the flag is implied
        lines += [f"complete {k} {_quote(third[k].name)} {third[k].due}" for k in sorted(third)]
    else:
        lines += [f"{kind} {k} {_record_fields(third[k])}" for k in sorted(third)]
    lines += [f"delete {k}" for k in sorted(d.deletes)]
    return "".join(line + "\n" for line in lines)


def load_delta(text: str, shape: str = "plain") -> Any:
    """Parse a delta file into the requested shape.

    ``shape`` is ``plain`` (upsert/delete), ``ongoing``
    (upsert/complete/delete) or ``today`` (upsert/postpone/delete).
    """
    if shape not in ("plain", "ongoing", "today"):
        raise ValueError(f"unknown delta shape {shape!r}")
    adds: dict = {}
    third: dict = {}
    deletes: set = set()
    parts = {"upsert": adds, "delete": deletes, "complete": third, "postpone": third}
    for lineno, tokens in _tokenize(text):
        tag, args = tokens[0], tokens[1:]
        part = parts.get(tag)
        if part is not None and args and args[0] in part:
            raise ParseError(f"line {lineno}: duplicate {tag} clause for task id {args[0]!r}")
        if tag == "upsert" and len(args) == 4:
            adds[args[0]] = _parse_record(args[1:], lineno)
        elif tag == "delete" and len(args) == 1:
            deletes.add(args[0])
        elif tag == "complete" and len(args) == 3 and shape == "ongoing":
            third[args[0]] = _parse_record(args[1:], lineno, done=True)
        elif tag == "postpone" and len(args) == 4 and shape == "today":
            third[args[0]] = _parse_record(args[1:], lineno)
        else:
            raise ParseError(f"line {lineno}: cannot parse {tag!r} clause for {shape} delta")
    try:
        if shape == "plain":
            return Delta(adds, deletes)
        if shape == "ongoing":
            return DeltaOG(adds, third, deletes)
        return DeltaDT(adds, third, deletes)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
