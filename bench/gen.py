"""Seeded input generators for the benchmark.

Everything here is built from the public ``pslens`` API and a
``random.Random`` seeded from the command line, so the same seed gives
the same inputs.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

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

#: Size of the generated closure family that acceptance criteria 4-5
#: quantify over; the bench refuses to run if the mirror drifts from it.
CLOSURE_FAMILY_SIZE = 3629


# ---------------------------------------------------------------------------
# Closure family (mirror of the acceptance suite's generator)
# ---------------------------------------------------------------------------


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
    """The finite domains (at most 5 elements) the closure family uses."""
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
            out.append((f"constant[{p.name}]", constant_lens(p, target, 1, name=f"constant[{p.name}]")))
        if p.has_merge and check_duplicable(p).ok:
            out.append((f"dup[{p.name}]", dup_lens(p, name=f"dup[{p.name}]", check=False)))
        out.append((f"untag[{p.name}]", untag_s(p, name=f"untag[{p.name}]")))
    return out


def closure_family():
    """Primitives over every generated domain, all pairwise products of
    the primitives over domains of at most 3 elements, and all
    type-correct pairwise compositions of those primitives and products.

    Returns ``(name, lens)`` pairs in a fixed order.
    """
    all_posets = generated_iposets()
    singles = _primitive_lenses(all_posets)
    small_primitives = _primitive_lenses([p for p in all_posets if len(p.elements) <= 3])
    products = [
        (f"({n1} x {n2})", product_lens(l1, l2))
        for (n1, l1), (n2, l2) in itertools.product(small_primitives, repeat=2)
    ]
    candidates = small_primitives + products
    compositions = [
        (f"({n1} ; {n2})", compose(l1, l2))
        for (n1, l1), (n2, l2) in itertools.product(candidates, repeat=2)
        if structurally_equal(l1.view, l2.source)
    ]
    return singles + products + compositions


def lens_cells(lens) -> int:
    """Size |S| x |V| of a finite lens's exhaustive universe."""
    return len(lens.source.elements) * len(lens.view.elements)


def stratified_sample(family: list, rng: random.Random, block: int) -> list:
    """One random member of every ``block`` neighbours in cost order.

    Per-lens cost grows with universe size and has a heavy tail, so the
    family is ranked by universe size, then by name, which keeps lenses
    of the same construction together; every seed then draws a sample of
    the same cost profile.
    """
    ranked = sorted(family, key=lambda item: (lens_cells(item[1]), item[0]))
    return [rng.choice(ranked[k : k + block]) for k in range(0, len(ranked), block)]


def spread(groups: list[list], rng: random.Random) -> list:
    """Interleave groups so each is spread evenly over the result.

    Item ``k`` of a group of ``n`` sits at position ``(k + u) / n`` for a
    random offset ``u`` per group, so any prefix holds each group in
    proportion to its size.
    """
    keyed = []
    for group in groups:
        u = rng.random()
        keyed += [((k + u) / len(group), rng.random(), item) for k, item in enumerate(group)]
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


# ---------------------------------------------------------------------------
# Task tables and edit streams
# ---------------------------------------------------------------------------

TODAY = "2025-04-01"
DATES = ["2025-03-29", "2025-03-30", "2025-03-31", TODAY, "2025-04-02", "2025-04-03", "2025-04-04"]
_WORDS = ["buy", "milk", "walk", "dog", "write", "report", "call", "mom", "fix", "bike", "read", "paper",
          "pay", "rent", "clean", "desk", "plan", "trip", "jog", "stretch", "bake", "bread", "mail", "form"]


def task_name(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} {rng.randrange(1000)}"


def task_table(rng: random.Random, n: int) -> dict:
    """``n`` model rows ``(done, name, due)``, a quarter of them done,
    under ids whose sorted order differs from the insertion order, so a
    dump must sort."""
    numbers = rng.sample(range(10 * n), n)
    return {f"t{k:07d}": (rng.random() < 0.25, task_name(rng), rng.choice(DATES)) for k in numbers}


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def tasks_text(table: dict) -> str:
    """The README's canonical task-table text, written from the model."""
    return "".join(
        f"task {k} {'true' if table[k][0] else 'false'} {_quote(table[k][1])} {table[k][2]}\n" for k in sorted(table)
    )


class TaskModel:
    """Independent dict model of one synchronization session.

    Rows are plain ``(done, name, due)`` tuples; the model knows the
    README semantics of a put (adds upsert, deletes remove, completions
    set the done flag, postponements move the due date) and nothing of
    the library's lenses.
    """

    def __init__(self, table: dict):
        self.table = dict(table)

    def apply(self, spec: "RoundSpec", elaborated: bool) -> None:
        for side in (spec.og, spec.dt):
            for key, record in side.adds.items():
                self.table[key] = record
            for key in side.deletes:
                self.table.pop(key, None)
        if elaborated:
            for key in spec.completes:
                done, name, due = self.table[key]
                self.table[key] = (True, name, due)
            for key, due in spec.postpones.items():
                done, name, _ = self.table[key]
                self.table[key] = (done, name, due)


@dataclasses.dataclass
class SideEdit:
    """One view's staged edits: inline clauses plus an optional file."""

    adds: dict
    deletes: list
    inline: list  # command lines, ``{file}`` stands for the delta file path
    file_text: str | None = None


@dataclasses.dataclass
class RoundSpec:
    """One sync round: both views' edits, elaborated-only clauses, and
    whether the two views were made to conflict."""

    index: int
    og: SideEdit
    dt: SideEdit
    completes: list
    postpones: dict
    conflict: bool
    save: bool


class EditStream:
    """Seeded rounds of view edits over a shared id set.

    Plain and elaborated sessions see the same base clauses; the
    elaborated session adds one completion and one postponement per
    round.  Completions and postponements change records, never ids, so
    every base clause stays valid in both sessions.  Ids touched in one
    round are pairwise distinct across clauses and views except in the
    injected conflicts.  ``models`` holds, per variant, the table a
    session must hold once the latest round has been put.
    """

    def __init__(self, rng: random.Random, table: dict, conflict_every: int, save_every: int):
        self.rng = rng
        self.conflict_every = conflict_every
        self.save_every = save_every
        self.ids = list(table)
        self.slot = {k: i for i, k in enumerate(self.ids)}
        self.models = {"plain": TaskModel(table), "elaborated": TaskModel(table)}
        self.fresh = 0
        self.index = 0

    def _new_id(self) -> str:
        self.fresh += 1
        return f"n{self.fresh:07d}"

    def _pick_existing(self, touched: set, accept=lambda key: True) -> str | None:
        for _ in range(64):
            key = self.ids[self.rng.randrange(len(self.ids))]
            if key not in touched and accept(key):
                touched.add(key)
                return key
        return None

    def _side(self, side: str, touched: set) -> SideEdit:
        rng = self.rng
        edit = SideEdit({}, [], [])
        due_today = side == "dt"
        for _ in range(rng.randint(1, 2)):
            action = rng.random()
            if action < 0.45:
                key = self._new_id()
            elif action < 0.7:
                key = self._pick_existing(touched)
            else:
                key = self._pick_existing(touched)
                if key is not None:
                    edit.deletes.append(key)
                    edit.inline.append(f"edit {side} del {key}")
                continue
            if key is None:
                continue
            touched.add(key)
            record = (False, task_name(rng), TODAY if due_today else rng.choice(DATES))
            edit.adds[key] = record
            edit.inline.append(f"edit {side} add {key} {_quote(record[1])} {record[2]}")
        if rng.random() < 0.35:
            lines = []
            for _ in range(rng.randint(1, 3)):
                key = self._new_id()
                touched.add(key)
                record = (False, task_name(rng), TODAY if due_today else rng.choice(DATES))
                edit.adds[key] = record
                lines.append(f"upsert {key} false {_quote(record[1])} {record[2]}\n")
            key = self._pick_existing(touched)
            if key is not None:
                edit.deletes.append(key)
                lines.append(f"delete {key}\n")
            edit.file_text = "".join(lines)
            edit.inline.append(f"edit {side} file {{file}}")
        return edit

    def next_round(self) -> RoundSpec:
        touched: set = set()
        og, dt = self._side("og", touched), self._side("dt", touched)
        conflict = self.index % self.conflict_every == self.conflict_every - 1
        if conflict:
            key = (self.rng.random() < 0.5 and self._pick_existing(touched)) or self._new_id()
            name = task_name(self.rng)
            og.inline.append(f"edit og add {key} {_quote(name)} {TODAY}")
            if self.rng.random() < 0.5:
                dt.inline.append(f"edit dt del {key}")
            else:
                dt.inline.append(f"edit dt add {key} {_quote(name + ' again')} {TODAY}")
        model = self.models["elaborated"].table
        complete = self._pick_existing(touched, lambda k: not model[k][0])
        postpone = self._pick_existing(touched, lambda k: model[k][2] == TODAY)
        spec = RoundSpec(
            self.index,
            og,
            dt,
            [complete] if complete else [],
            {postpone: self.rng.choice([d for d in DATES if d != TODAY])} if postpone else {},
            conflict,
            self.index % self.save_every == self.save_every - 1,
        )
        if not conflict:
            self._commit(spec)
        self.index += 1
        return spec

    def _commit(self, spec: RoundSpec) -> None:
        for variant, model in self.models.items():
            model.apply(spec, elaborated=variant == "elaborated")
        for side in (spec.og, spec.dt):
            for key in side.adds:
                if key not in self.slot:
                    self.slot[key] = len(self.ids)
                    self.ids.append(key)
            for key in side.deletes:
                i = self.slot.pop(key)
                last = self.ids.pop()
                if last != key:
                    self.ids[i] = last
                    self.slot[last] = i
