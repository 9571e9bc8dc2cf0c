"""The benchmark's three workloads.

Each workload is one closed-loop client: it issues its next call into
``pslens`` only after the previous one returned.  An *op* is the unit
the end-to-end latency is taken over: one verdict for ``law-closure``
and ``desk-check``, one sync round (edits, ``put``, and on every few
rounds a ``save``) for ``task-sync``.  ``work`` returns a workload's
fixed, seeded work list; each call builds fresh state, so a run can
replay it.  Every op is judged against an oracle outside its timed
region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import random
import re
import shlex
from itertools import product
from pathlib import Path
from time import perf_counter
from typing import Callable

import pslens.cli
from pslens.iposet import UNDEFINED, check_duplicable, join, materialize, powerset_iposet, verify_iposet
from pslens.laws import LawId, check_laws, fixture_lenses, recheck_counterexample, run_fixture_suite
from pslens.lens import Reason, dup_lens, is_failure, pipeline, product_lens
from pslens.tasks import (
    TaskRecord,
    dt_domain,
    enumerate_dt_universe,
    enumerate_dtdt_universe,
    enumerate_og_universe,
    filter_ongoing,
    filter_today,
    init_tasks,
    task_pipeline,
)
from pslens.updates import (
    check_condition,
    check_state_elimination,
    check_sufficient,
    enumerate_update_spaces,
    g1_violation_space,
    g2_violation_space,
    g3_violation_space,
    gen_iposet,
)

import gen
from spans import IPosetProxy, Recorder, canon, wrap_function, wrap_stage, wrap_subject

CONDITIONS = ("G1", "G2", "G3")


@dataclasses.dataclass
class Outcome:
    """What one op took and whether the oracle agreed with it."""

    seconds: float
    ok: bool
    digest: str
    info: dict = dataclasses.field(default_factory=dict)  # named per-op values, e.g. seconds per command
    kind: str = "op"  # "open" for a session's load, which is not an op


Op = Callable[[object], Outcome]


def _proxy(domain, rec):
    return IPosetProxy(domain, rec) if rec.tracing else domain


# ---------------------------------------------------------------------------
# Law verdicts (law-closure, and the sampled part of desk-check)
# ---------------------------------------------------------------------------


def _law_verdict(label: str, lens, rec, expect=None, source=None, view=None) -> Outcome:
    """All laws on one lens, with every counterexample re-substituted.

    The oracle: ``wb`` holds (or, for a catalog fixture, every
    designated verdict comes out as designated), the derived-lemma
    implications hold, and every failing report is confirmed.
    """
    subject = wrap_subject(lens, rec) if rec.tracing else lens
    start = perf_counter()
    with rec.request("verdict", kind="laws"):
        with rec.span("laws.check"):
            reports = check_laws(subject, source=source, view=view)
        failing = [r for r in reports if not r.holds]
        with rec.span("laws.recheck"):
            confirmed = [recheck_counterexample(subject, r, source, view) for r in failing]
    seconds = perf_counter() - start

    holds = {r.law: r.holds for r in reports}
    if expect is None:
        ok = holds[LawId.WB]
    else:
        ok = all(holds[law] == want for law, want in expect.items())
    if holds[LawId.WEAK_WB]:
        ok &= holds[LawId.GET_MONOTONE] and holds[LawId.VIEW_STABILITY]
    if holds[LawId.WB]:
        ok &= holds[LawId.STABILITY] and holds[LawId.PUT_DETERMINES_GET]
    ok &= all(confirmed)
    if rec.tracing:
        n_source = len(source if source is not None else lens.source.elements)
        n_view = len(view if view is not None else lens.view.elements)
        rec.counts["laws.universe_cells"] += n_source * n_view
        rec.counts["laws.failing_reports"] += len(failing)
        rec.counts["laws.recheck_confirmed"] += sum(confirmed)
    digest = label + "|" + ";".join(f"{r.law.value}={int(r.holds)}:{canon(r.counterexample)}" for r in reports)
    return Outcome(seconds, ok, digest + f"|confirmed={sum(confirmed)}")


class LawClosure:
    """Every law on a seeded, stratified sample of the closure family,
    plus the deviant fixture catalog."""

    name = "law-closure"
    BLOCK = 3  # the sample holds one lens in 3: 1210 of the 3629

    def setup(self, seed: int):
        family = gen.closure_family()
        sample = gen.stratified_sample(family, random.Random(f"{self.name}:{seed}"), self.BLOCK)
        return family, sample, fixture_lenses()

    def gates(self, inputs) -> list[tuple[str, bool]]:
        family, _, _ = inputs
        return [
            (f"closure family has {gen.CLOSURE_FAMILY_SIZE} lenses", len(family) == gen.CLOSURE_FAMILY_SIZE),
            ("run_fixture_suite passes", run_fixture_suite()[1]),
        ]

    def work(self, inputs, seed: int, rec) -> list[Op]:
        _, sample, fixtures = inputs
        closure_ops = [(lambda r, n=n, lens=lens: _law_verdict(n, lens, r)) for n, lens in sample]
        fixture_ops = [
            (lambda r, f=f: _law_verdict(f"fixture {f.name}", f.lens, r, expect=f.expect)) for f in fixtures.values()
        ]
        return gen.spread([closure_ops, fixture_ops], random.Random(f"{self.name}:order:{seed}"))


# ---------------------------------------------------------------------------
# desk-check
# ---------------------------------------------------------------------------


def _space_verdict(index: int, us, rec, broken: str | None = None) -> Outcome:
    """The update-encoding recipe on one update space.

    Oracle: on an enumerated space, G1-G3 imply duplicability of the
    generated domain and each sufficient condition implies the condition
    it stands for; on a necessity fixture, exactly the designated
    condition fails and the generated domain is not duplicable.
    """
    start = perf_counter()
    with rec.request("verdict", kind="space"):
        with rec.span("updates.check_condition"):
            conds = {w: check_condition(us, w).ok for w in CONDITIONS}
        with rec.span("updates.check_sufficient"):
            fine = check_sufficient(us, "fine-enough").ok
            assoc = check_sufficient(us, "associative-join").ok
        with rec.span("updates.state_elimination"):
            elim = check_state_elimination(us).ok
        with rec.span("updates.gen_iposet"):
            domain = gen_iposet(us)
        with rec.span("iposet.duplicable"):
            dup = check_duplicable(_proxy(domain, rec)).ok
    seconds = perf_counter() - start

    satisfied = all(conds.values())
    if broken is None:
        ok = (dup or not satisfied) and (conds["G1"] or not fine) and (conds["G2"] or not assoc)
    else:
        ok = all(conds[w] == (w != broken) for w in CONDITIONS) and not dup
    if rec.tracing:
        rec.counts["updates.spaces"] += 1
        rec.counts["updates.satisfying"] += satisfied
    flags = "".join(str(int(x)) for x in (*conds.values(), fine, assoc, elim, dup))
    return Outcome(seconds, ok, f"space {index} {us.name}|{flags}", {"satisfying": satisfied and broken is None})


def _expected_join(a: frozenset, b: frozenset):
    """Join under reverse inclusion: the intersection, if nonempty."""
    return (a & b) or UNDEFINED


def _powerset_verdict(items: list, rec) -> Outcome:
    """Build a powerset domain, validate it, and join every pair."""
    start = perf_counter()
    with rec.request("verdict", kind="powerset"):
        with rec.span("iposet.construct"):
            domain = powerset_iposet(items)
        proxy = _proxy(domain, rec)
        with rec.span("iposet.verify"):
            valid = verify_iposet(proxy).ok
        with rec.span("iposet.duplicable"):
            dup = check_duplicable(proxy).ok
        joins = []
        for a, b in product(domain.elements, repeat=2):
            with rec.span("iposet.join"):
                joins.append(join(proxy, a, b))
    seconds = perf_counter() - start

    expected = [_expected_join(a, b) for a, b in product(domain.elements, repeat=2)]
    ok = valid and dup and all(j is e if e is UNDEFINED else j == e for j, e in zip(joins, expected))
    return Outcome(seconds, ok, f"powerset {len(domain.elements)}|{int(valid)}{int(dup)}|{canon(joins)}")


def _desk_verdict(universe: list, rec) -> Outcome:
    """Tabulate the delta domain on the 25-element desk universe and
    compare its merge with brute-force joins on every pair."""
    start = perf_counter()
    with rec.request("verdict", kind="desk"):
        with rec.span("iposet.construct"):
            desk = materialize(dt_domain(), universe, name="tasks+deltas@desk")
        proxy = _proxy(desk, rec)
        with rec.span("iposet.verify"):
            valid = verify_iposet(proxy).ok
        with rec.span("iposet.duplicable"):
            dup = check_duplicable(proxy).ok
        pairs = []
        for x, y in product(universe, repeat=2):
            with rec.span("iposet.join"):
                j = join(proxy, x, y)
            pairs.append((j, dt_domain().merge(x, y)))
    seconds = perf_counter() - start

    agree = all((j is UNDEFINED and m is UNDEFINED) or (j is not UNDEFINED and j == m) for j, m in pairs)
    ok = len(universe) == 25 and valid and dup and agree
    defined = sum(j is not UNDEFINED for j, _ in pairs)
    return Outcome(seconds, ok, f"desk {canon(universe[-1])}|{int(valid)}{int(dup)}{int(agree)}|{defined}")


def _desk_records(rng: random.Random, n: int) -> list:
    """``n`` distinct records: the first ongoing and due today, the second
    completed and due another day, the rest random."""
    other = [d for d in gen.DATES if d != gen.TODAY]
    shapes = [(False, gen.TODAY), (True, rng.choice(other))]
    shapes += [(rng.random() < 0.5, rng.choice(gen.DATES)) for _ in range(n - 2)]
    return [TaskRecord(done, f"{gen.task_name(rng)} {i}", due) for i, (done, due) in enumerate(shapes)]


def _ids(rng: random.Random, n: int) -> list:
    return sorted(f"{rng.choice('abcdefgh')}{k}" for k in rng.sample(range(100), n))


class DeskCheck:
    """Validation over structured, mostly unhashable carriers: the
    update-encoding recipe on every enumerated space, powerset domains,
    the desk-scale delta domain and the four filter lenses' laws."""

    name = "desk-check"
    POWERSET_ITEMS = (3, 4, 5)  # domains of 7, 15 and 31 elements
    FILTER_RECORDS = 3  # records per filter-lens universe; 2 ids give 41 source elements

    def setup(self, seed: int):
        spaces = list(enumerate_update_spaces())
        necessity = [(g1_violation_space(), "G1"), (g2_violation_space(), "G2"), (g3_violation_space(), "G3")]
        lenses = [
            ("filter-ongoing plain", filter_ongoing("plain"), "plain"),
            ("filter-today plain", filter_today("plain", gen.TODAY), "plain"),
            ("filter-ongoing elaborated", filter_ongoing("elaborated"), "ongoing"),
            ("filter-today elaborated", filter_today("elaborated", gen.TODAY), "today"),
        ]
        return spaces, necessity, lenses

    def gates(self, inputs) -> list[tuple[str, bool]]:
        return [("266 update spaces enumerated", len(inputs[0]) == 266)]

    def work(self, inputs, seed: int, rec) -> list[Op]:
        spaces, necessity, lenses = inputs
        rng = random.Random(f"{self.name}:{seed}")
        space_ops = [(lambda r, i=i, us=us: _space_verdict(i, us, r)) for i, us in enumerate(spaces)]
        space_ops += [(lambda r, us=us, b=b: _space_verdict(-1, us, r, broken=b)) for us, b in necessity]
        powerset_ops = [
            (lambda r, items=[f"{gen.task_name(rng)}#{i}" for i in range(n)]: _powerset_verdict(items, r))
            for n in self.POWERSET_ITEMS
        ]
        desk_universe = enumerate_dt_universe(_ids(rng, 2), _desk_records(rng, 2))
        desk_ops = [lambda r: _desk_verdict(desk_universe, r)]
        ids, records = _ids(rng, 2), _desk_records(rng, self.FILTER_RECORDS)
        source = enumerate_dt_universe(ids, records)
        views = {
            "plain": source,
            "ongoing": enumerate_og_universe(ids, records),
            "today": enumerate_dtdt_universe(ids, records, gen.TODAY),
        }
        filter_ops = [
            (lambda r, n=f"{n} {canon(ids)}", lens=lens, v=views[shape]: _law_verdict(n, lens, r, source=source, view=v))
            for n, lens, shape in lenses
        ]
        return gen.spread([space_ops, powerset_ops, desk_ops, filter_ops], rng)

    @staticmethod
    def work_gate(outcomes: list[Outcome]) -> tuple[str, bool]:
        satisfying = sum(o.info.get("satisfying", False) for o in outcomes)
        return (f"recipe lemma: at least 20 satisfying spaces (saw {satisfying})", satisfying >= 20)


# ---------------------------------------------------------------------------
# task-sync
# ---------------------------------------------------------------------------

_REFUSAL = re.compile(r"^put undefined: (\w+) at (.+?), witness ")
VARIANTS = ("plain", "elaborated")


def traced_pipeline(variant: str, today: str, rec: Recorder):
    """``task_pipeline`` rebuilt from its public stage constructors with
    every stage wrapped in spans."""
    return wrap_stage(
        pipeline(
            wrap_stage(init_tasks(), rec, put_name="pipeline.apply"),
            wrap_stage(dup_lens(dt_domain(), name="dup-tasks"), rec, put_name="pipeline.merge"),
            product_lens(
                wrap_stage(filter_ongoing(variant), rec, "pipeline.filter_get", "pipeline.filter_put"),
                wrap_stage(filter_today(variant, today), rec, "pipeline.filter_get", "pipeline.filter_put"),
            ),
            name=f"tasks-{variant}-{today}",
        ),
        rec,
        "pipeline.get",
        "pipeline.put",
    )


def fresh_cli(rec):
    """The CLI module with a cold pipeline cache; when tracing, its
    calls into ``pslens.tasks`` go through span wrappers."""
    cli = importlib.reload(pslens.cli)
    if rec.tracing:
        cli.task_pipeline = lambda variant, today: traced_pipeline(variant, today, rec)
        for name in ("load_tasks", "load_delta", "dump_tasks"):
            setattr(cli, name, wrap_function(getattr(cli, name), rec, f"tasks.{name}"))
        for name in ("dt_domain", "dtog_domain", "dtdt_domain"):
            domain = getattr(cli, name)
            setattr(cli, name, lambda *args, _domain=domain: IPosetProxy(_domain(*args), rec, prefix="tasks"))
    return cli


class SyncPass:
    """One plain and one elaborated CLI session driven round by round."""

    def __init__(self, cli, rec, table_path: Path, workdir: Path, stream: gen.EditStream, rows: int):
        self.cli, self.rec, self.workdir, self.stream = cli, rec, workdir, stream
        self.table_path, self.rows = table_path, rows
        self.references = {v: task_pipeline(v, gen.TODAY) for v in VARIANTS} if rec.tracing else None
        self.spec: gen.RoundSpec | None = None
        with rec.request("cli.new"):
            self.sessions = {v: cli.new_session(v, gen.TODAY) for v in VARIANTS}

    def command(self, variant: str, kind: str, line: str) -> tuple[list[str], float]:
        with self.rec.request(f"cli.{kind}", variant=variant):
            start = perf_counter()
            self.sessions[variant], out = self.cli.run_command(self.sessions[variant], line)
            return out, perf_counter() - start

    def load(self, variant: str) -> Outcome:
        out, seconds = self.command(variant, "load", f"load {shlex.quote(str(self.table_path))}")
        if self.rec.tracing:
            self.rec.counts["tasks.rows_loaded"] += self.rows
        ok = out == [f"loaded {self.rows} task(s)"]
        return Outcome(seconds, ok, f"{variant} load|{out}", {"variant": variant}, kind="open")

    def step(self, variant: str) -> Outcome:
        """The next round on one session; the plain session goes first and
        draws the round that the elaborated session then replays."""
        if variant == VARIANTS[0]:
            self.spec = self.stream.next_round()
        return self.round(variant, self.spec)

    def round(self, variant: str, spec: gen.RoundSpec) -> Outcome:
        """Stage the round's edits, put, and reset or save as due.

        The oracle: every edit is staged; the put is refused with
        ``MergeConflict`` exactly on injected conflicts and otherwise
        leaves as many tasks as the model holds, with both intentions
        preserved; a checkpoint matches the model byte for byte.
        """
        model = self.stream.models[variant].table
        parts = {"edit": 0.0}
        ok = True
        for side, edit in (("og", spec.og), ("dt", spec.dt)):
            path = self.workdir / f"{variant}-{side}.delta"
            if edit.file_text is not None:
                path.write_text(edit.file_text)
            for line in edit.inline:
                out, seconds = self.command(variant, "edit", line.format(file=shlex.quote(str(path))))
                parts["edit"] += seconds
                ok &= out == [f"staged for {side} view"]
        if variant == "elaborated":
            extra = [("og", f"edit og complete {k}") for k in spec.completes]
            extra += [("dt", f"edit dt postpone {k} {due}") for k, due in spec.postpones.items()]
            for side, line in extra:
                out, seconds = self.command(variant, "edit", line)
                parts["edit"] += seconds
                ok &= out == [f"staged for {side} view"]

        before = self.sessions[variant]
        out, parts["put"] = self.command(variant, "put", "put")
        refusal = _REFUSAL.match(out[0]) if out else None
        if spec.conflict:
            ok &= refusal is not None and refusal.group(1) == "MergeConflict" and out[1:] == ["session unchanged"]
            outcome = f"refused {refusal.group(1)} at {refusal.group(2)}" if refusal else f"accepted {out}"
            reset, parts["reset"] = self.command(variant, "reset", "reset")
            ok &= reset == ["staged deltas dropped"]
        else:
            ok &= out == [
                f"source now has {len(model)} task(s)",
                "og delta preserved in refreshed view: yes",
                "dt delta preserved in refreshed view: yes",
            ]
            outcome = out[0] if out else "no output"
        if self.references is not None:
            ok &= self._matches_reference(variant, before, spec.conflict)

        checkpoint = ""
        if spec.save:
            path = self.workdir / f"checkpoint-{variant}.tasks"
            out, parts["save"] = self.command(variant, "save", f"save {shlex.quote(str(path))}")
            saved = path.read_bytes()
            ok &= out == [f"saved {path}"] and saved == gen.tasks_text(model).encode()
            checkpoint = hashlib.sha256(saved).hexdigest()[:16]
        seconds = sum(parts.values())
        return Outcome(seconds, ok, f"{variant} round {spec.index}|{outcome}|{checkpoint}", dict(parts, variant=variant))

    def _matches_reference(self, variant: str, before, conflict: bool) -> bool:
        """The rebuilt, wrapped pipeline agrees with ``task_pipeline``."""
        reference = self.references[variant]
        expected = reference.put(before.source, (before.staged_og, before.staged_dt))
        after = self.sessions[variant]
        if conflict:
            return is_failure(expected) and expected.reason is Reason.MERGE_CONFLICT and after.source is before.source
        return after.source == expected and after.views == reference.get(expected)


class TaskSync:
    """Both CLI sessions, in process, on a generated table."""

    name = "task-sync"
    ROWS = 10_000
    ROUNDS = 150  # sync rounds per session in the work list
    CONFLICT_EVERY = 10  # every 10th round stages conflicting view edits
    SAVE_EVERY = 5

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        table = gen.task_table(rng, self.ROWS)
        path = self.workdir / "source.tasks"
        path.write_text(gen.tasks_text(table))
        return table, path

    def gates(self, inputs) -> list[tuple[str, bool]]:
        return []

    def work(self, inputs, seed: int, rec) -> list[Op]:
        table, path = inputs
        stream = gen.EditStream(random.Random(f"{self.name}:edits:{seed}"), table, self.CONFLICT_EVERY, self.SAVE_EVERY)
        sync = SyncPass(fresh_cli(rec), rec, path, self.workdir, stream, self.ROWS)
        loads = [lambda r, v=v: sync.load(v) for v in VARIANTS]
        return loads + [lambda r, v=v: sync.step(v) for v in VARIANTS] * self.ROUNDS
