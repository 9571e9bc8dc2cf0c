"""Executable round-tripping laws with exhaustive finite checking.

Every law is evaluated as its literal quantified formula over a
universe: the full carriers for enumerable domains, or caller-supplied
sample lists for infinite ones (in which case the report says so and
claims nothing beyond the samples).  Each law is written once, as a
scanner over one range per quantified variable.  A failing report always
carries a concrete counterexample, which :func:`recheck_counterexample`
confirms by running the law's scanner at the witness alone.

The catalog in :func:`fixture_lenses` collects the standard lawful
primitives together with three deliberately deviant lenses:

* ``bad`` satisfies both weak laws yet needs n round-trips to
  stabilize, so it fails ps-stability;
* ``put-nonmono-first`` is fully lawful although its ``put`` is not
  monotone in the source argument;
* ``const-unit-ns`` is fully lawful yet violates the WPutGet variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator, Optional

from .iposet import (
    ElementIndex,
    IPoset,
    _bits,
    _load_fixture,
    discrete,
    lift_omega,
    load_iposet,
    product_iposet,
)
from .lens import (
    PSLens,
    compose,
    constant_lens,
    dup_lens,
    identity_lens,
    initiator,
    is_failure,
    untag_s,
)


class UniverseMismatchError(ValueError):
    """A sample or witness element is outside the lens's carrier, or a needed carrier is not enumerable."""


class LawId(Enum):
    """The checkable laws.

    ``wb`` is the conjunction of ``weak-wb`` and ``ps-stability``;
    ``weak-wb`` conjoins ``ps-consistency`` and ``ps-acceptability``.
    """

    CLASSICAL_CONSISTENCY = "classical-consistency"
    CLASSICAL_ACCEPTABILITY = "classical-acceptability"
    STABILITY = "stability"
    PS_CONSISTENCY = "ps-consistency"
    PS_ACCEPTABILITY = "ps-acceptability"
    PS_STABILITY = "ps-stability"
    WEAK_WB = "weak-wb"
    WB = "wb"
    GET_MONOTONE = "get-monotone"
    VIEW_STABILITY = "view-stability"
    PUT_DETERMINES_GET = "put-determines-get"
    WPUTGET = "wputget"


@dataclass
class LawReport:
    """Verdict of one law over one universe.

    A failing report's counterexample maps the law's quantified
    variables to concrete elements; for the composite laws it also
    records which conjunct failed under the key ``"_law"``.
    """

    law: LawId
    holds: bool
    counterexample: Optional[dict]
    universe: str

    def __str__(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        out = f"{self.law.value}: {verdict} [{self.universe}]"
        if self.counterexample is not None:
            items = ", ".join(f"{k}={v!r}" for k, v in self.counterexample.items())
            out += f" counterexample: {items}"
        return out


# ---------------------------------------------------------------------------
# Evaluation engine
# ---------------------------------------------------------------------------


class _Space:
    """Sample list with the bit rows of its order and identical updates, indexed by int.

    :meth:`locate` is the only membership test.  A whole carrier (``values`` is ``None``) is a member
    without asking, and keeps the domain's :meth:`IPoset.rows` where it has them.  Any other value (a
    sample, kept once, or a get/put result, appended past the quantifier range ``n``) is asked
    ``contains`` once, when new, and adds its row, asking the domain of each new ordered pair once.
    """

    def __init__(self, domain: IPoset, values: Optional[list], exhaustive: bool, side: str = "source"):
        self.domain, self.side = domain, side
        carrier = values is None
        values = domain.elements if carrier else values
        rows = domain.rows() if exhaustive else None
        self._index = ElementIndex(values if rows else ())
        self.values = self._index.values
        self.up, self.id_up = rows or ([], [])
        for v in () if rows else values:
            if self.locate(v, carrier) < 0:
                raise UniverseMismatchError(f"sample {v!r} is outside the {side} carrier")
        self.n = len(self.values)

    def locate(self, x: Any, member: bool = False) -> int:
        """Position of ``x``, appended with its rows when new and in the carrier; -1 when it is not."""
        i = self._index.index(x)
        if i < 0 and (member or self.domain.contains(x)):
            i, vs = self._index.append(x, i), self.values
            self.up, self.id_up = (
                [row | 1 << i if rel(v, x) else row for row, v in zip(rows, vs)]
                + [sum(1 << j for j, v in enumerate(vs) if rel(x, v))]
                for rows, rel in ((self.up, self.domain.le), (self.id_up, self.domain.ident))
            )
        return i

    def le(self, i: int, j: int) -> int:
        return self.up[i] >> j & 1

    def ident(self, i: int, j: int) -> int:
        return self.id_up[i] >> j & 1

    def above(self, i: int, js: range) -> Iterator[int]:
        """The ``j`` in ``js`` with ``le(i, j)``, in ascending order."""
        return _bits(self.up[i] & (1 << js.stop) - (1 << js.start))


class _Ctx:
    """One lens pinned to a source/view universe, with get/put memos."""

    def __init__(self, lens: PSLens, source: Optional[list], view: Optional[list], exhaustive: bool):
        self.lens = lens
        self.S = _Space(lens.source, source, exhaustive)
        self.V = _Space(lens.view, view, exhaustive, "view")
        self.exhaustive = exhaustive
        self._get: dict[int, int] = {}
        # an exhaustive universe appends no value, so put(i, j) memoizes at slot i * |V| + j
        self._stride = self.V.n if exhaustive else 0
        self._put: Any = [None] * (self.S.n * self.V.n) if self._stride else {}
        self._image: dict[tuple[int, range], list[tuple[int, int]]] = {}

    @property
    def universe(self) -> str:
        kind = "exhaustive finite" if self.exhaustive else "sampled"
        return f"{kind}: {self.S.n} source x {self.V.n} view"

    def get(self, i: int) -> int:
        hit = self._get.get(i)
        if hit is None:
            hit = self.V.locate(self.lens.get(self.S.values[i]))
            if hit < 0:
                raise ValueError(f"broken lens {self.lens.name!r}: get left the view carrier at {self.S.values[i]!r}")
            self._get[i] = hit
        return hit

    def put(self, i: int, j: int) -> Any:
        """Source index for a defined put, else the PutFailure."""
        key = i * self._stride + j if self._stride else (i, j)
        hit = self._put[key] if self._stride else self._put.get(key)
        if hit is None:
            hit = self.lens.put(self.S.values[i], self.V.values[j])
            if not is_failure(hit) and (hit := self.S.locate(hit)) < 0:
                raise ValueError(
                    f"broken lens {self.lens.name!r}: put left the source carrier "
                    f"at {(self.S.values[i], self.V.values[j])!r}"
                )
            self._put[key] = hit
        return hit

    def image(self, j: int, sources: range) -> list[tuple[int, int]]:
        """The image of ``put(-, v)`` over ``sources``: ``(s0, put(s0, v))`` for
        the first source giving each distinct defined result, in order."""
        key = (j, sources)
        hit = self._image.get(key)
        if hit is None:
            first: dict[int, int] = {}
            for i in sources:
                r = self.put(i, j)
                if not is_failure(r):
                    first.setdefault(r, i)
            hit = self._image[key] = [(i, r) for r, i in first.items()]
        return hit

    def sv(self, i: int) -> Any:
        return self.S.values[i]

    def vv(self, j: int) -> Any:
        return self.V.values[j]


def _scan_classical_consistency(c: _Ctx, ss: range, vs: range) -> Optional[dict]:
    for i in ss:
        for j in vs:
            r = c.put(i, j)
            if is_failure(r):
                continue
            if c.get(r) != j:
                return {"s": c.sv(i), "v'": c.vv(j), "s'": c.sv(r), "get s'": c.vv(c.get(r))}
    return None


def _scan_classical_acceptability(c: _Ctx, ss: range) -> Optional[dict]:
    for i in ss:
        r = c.put(i, c.get(i))
        if is_failure(r) or r != i:
            got = r if is_failure(r) else c.sv(r)
            return {"s": c.sv(i), "v": c.vv(c.get(i)), "put result": got}
    return None


def _scan_stability(c: _Ctx, s0s: range, vs: range) -> Optional[dict]:
    for i in s0s:
        for j in vs:
            s = c.put(i, j)
            if is_failure(s):
                continue
            r = c.put(s, c.get(s))
            if is_failure(r) or r != s:
                got = r if is_failure(r) else c.sv(r)
                return {"s0": c.sv(i), "v": c.vv(j), "s": c.sv(s), "round-trip put": got}
    return None


def _scan_ps_consistency(c: _Ctx, ss: range, vs: range, s1s: range) -> Optional[dict]:
    for j in vs:
        for i, r in c.image(j, ss):
            for i2 in c.S.above(r, s1s):
                if not c.V.le(j, c.get(i2)):
                    return {
                        "s": c.sv(i),
                        "v'": c.vv(j),
                        "put result": c.sv(r),
                        "s'": c.sv(i2),
                        "get s'": c.vv(c.get(i2)),
                    }
    return None


def _scan_ps_acceptability(c: _Ctx, ss: range, vs: range) -> Optional[dict]:
    for i in ss:
        g = c.get(i)
        for j in vs:
            if not c.V.ident(j, g):
                continue
            r = c.put(i, j)
            if is_failure(r) or not c.S.ident(r, i):
                got = r if is_failure(r) else c.sv(r)
                return {"s": c.sv(i), "v": c.vv(j), "put result": got}
    return None


def _scan_ps_stability(c: _Ctx, s0s: range, vs: range, s1s: range, v2s: range) -> Optional[dict]:
    for j in vs:
        for i0, s in c.image(j, s0s):
            for i2 in c.S.above(s, s1s):  # s'
                g2 = c.get(i2)
                for j2 in c.V.above(j, v2s):  # v''
                    if not c.V.ident(j2, g2):
                        continue
                    s2 = c.put(i2, j2)
                    if is_failure(s2):
                        continue  # definedness of put(s', v'') is a hypothesis
                    if not c.S.le(s, s2):
                        return {
                            "s0": c.sv(i0),
                            "v": c.vv(j),
                            "s": c.sv(s),
                            "s'": c.sv(i2),
                            "v''": c.vv(j2),
                            "s''": c.sv(s2),
                        }
    return None


def _scan_get_monotone(c: _Ctx, ss: range, s1s: range) -> Optional[dict]:
    for i in ss:
        for i2 in s1s:
            if c.S.le(i, i2) and not c.V.le(c.get(i), c.get(i2)):
                return {
                    "s": c.sv(i),
                    "s'": c.sv(i2),
                    "get s": c.vv(c.get(i)),
                    "get s'": c.vv(c.get(i2)),
                }
    return None


def _scan_view_stability(c: _Ctx, ss: range) -> Optional[dict]:
    for i in ss:
        g = c.get(i)
        r = c.put(i, g)
        if is_failure(r) or c.get(r) != g:
            got = r if is_failure(r) else c.vv(c.get(r))
            return {"s": c.sv(i), "get s": c.vv(g), "get after round-trip": got}
    return None


def _scan_put_determines_get(c: _Ctx, ss: range) -> Optional[dict]:
    # V_s = {v | put(s0, v) <= s for some s0} ranges over the whole universe: s_i is
    # above some put(-, v_j) when bit i of reach[j], the OR of their rows, is set
    reach = [0] * c.V.n
    for j in range(c.V.n):
        for _, r in c.image(j, range(c.S.n)):
            reach[j] |= c.S.up[r]
    for i in ss:
        pool = [j for j in range(c.V.n) if reach[j] >> i & 1]
        best = next((j for j in pool if all(c.V.le(j2, j) for j2 in pool)), None)
        if best is None or c.get(i) != best:
            return {
                "s": c.sv(i),
                "V_s": [c.vv(j) for j in pool],
                "max": None if best is None else c.vv(best),
                "get s": c.vv(c.get(i)),
            }
    return None


def _scan_wputget(c: _Ctx, s0s: range, vs: range) -> Optional[dict]:
    for i in s0s:
        for j in vs:
            s = c.put(i, j)
            if is_failure(s):
                continue
            r = c.put(i, c.get(s))
            if is_failure(r) or r != s:
                got = r if is_failure(r) else c.sv(r)
                return {"s0": c.sv(i), "v": c.vv(j), "s": c.sv(s), "adjusted put": got}
    return None


def _scan_putput(c: _Ctx, s0s: range, v1s: range, v2s: range) -> Optional[dict]:
    for i in s0s:
        for j1 in v1s:
            s1 = c.put(i, j1)
            if is_failure(s1):
                continue
            for j2 in v2s:
                s2 = c.put(s1, j2)
                if is_failure(s2):
                    continue
                r = c.put(i, j2)
                if is_failure(r) or r != s2:
                    got = r if is_failure(r) else c.sv(r)
                    return {
                        "s0": c.sv(i),
                        "v1": c.vv(j1),
                        "s1": c.sv(s1),
                        "v2": c.vv(j2),
                        "s2": c.sv(s2),
                        "shortcut put": got,
                    }
    return None


# Each law's one written formula, by name: a scanner takes one range of
# indices per quantified variable, named here by its witness key ("s..."
# over sources, "v..." over views), and returns the witness dict of the
# first false instance, or None.  "putput" is informational, not a LawId.
_SCANNERS: dict[str, tuple[Callable[..., Optional[dict]], tuple[str, ...]]] = {
    "classical-consistency": (_scan_classical_consistency, ("s", "v'")),
    "classical-acceptability": (_scan_classical_acceptability, ("s",)),
    "stability": (_scan_stability, ("s0", "v")),
    "ps-consistency": (_scan_ps_consistency, ("s", "v'", "s'")),
    "ps-acceptability": (_scan_ps_acceptability, ("s", "v")),
    "ps-stability": (_scan_ps_stability, ("s0", "v", "s'", "v''")),
    "get-monotone": (_scan_get_monotone, ("s", "s'")),
    "view-stability": (_scan_view_stability, ("s",)),
    "put-determines-get": (_scan_put_determines_get, ("s",)),
    "wputget": (_scan_wputget, ("s0", "v")),
    "putput": (_scan_putput, ("s0", "v1", "v2")),
}

_COMPOSITES: dict[LawId, tuple[LawId, ...]] = {
    LawId.WEAK_WB: (LawId.PS_ACCEPTABILITY, LawId.PS_CONSISTENCY),
    LawId.WB: (LawId.PS_ACCEPTABILITY, LawId.PS_CONSISTENCY, LawId.PS_STABILITY),
}


def _scan(c: _Ctx, name: str, at: Optional[dict] = None) -> Optional[dict]:
    """Run the named scanner over ``c``'s whole universe, or only at the
    elements that the witness ``at`` names."""
    scanner, variables = _SCANNERS[name]
    ranges = []
    for var in variables:
        space = c.S if var[0] == "s" else c.V
        i = None if at is None else space.locate(at[var])
        if i is not None and i < 0:
            raise UniverseMismatchError(f"witness {var}={at[var]!r} is outside the {space.side} carrier")
        ranges.append(range(space.n) if i is None else range(i, i + 1))
    return scanner(c, *ranges)


def _universe_for(lens: PSLens, source: Optional[list], view: Optional[list]) -> tuple[Any, Any, bool]:
    """The samples for a ``_Ctx``, ``None`` standing for a whole carrier, and whether both sides are whole."""
    for side, domain, samples in (("source", lens.source, source), ("view", lens.view, view)):
        if samples is None and domain.elements is None:
            raise UniverseMismatchError(f"{side} of {lens.name!r} is not enumerable; supply {side} samples")
    return source, view, source is None and view is None


def check_law(
    lens: PSLens,
    law: LawId,
    source: Optional[list] = None,
    view: Optional[list] = None,
) -> LawReport:
    """Evaluate one law over a universe.

    With no samples given, both carriers must be enumerable and the
    check is exhaustive; otherwise it quantifies over the samples only
    and the report is marked ``sampled``.
    """
    return check_laws(lens, [law], source, view)[0]


def check_laws(
    lens: PSLens,
    laws: Optional[list[LawId]] = None,
    source: Optional[list] = None,
    view: Optional[list] = None,
) -> list[LawReport]:
    """Evaluate several laws (all of them by default) over one universe.

    All requested laws share one memoized context for the lens and
    universe: each ``get``, each ``put``, each image of ``put(-, v)`` and
    each law's scanner is evaluated at most once, so ``weak-wb`` and
    ``wb`` reuse the witnesses of their conjuncts.  Order and
    identical-update queries read bit rows: a whole carrier's own
    (:meth:`IPoset.rows`) where it has them, and otherwise each ordered
    pair asked of the domain once.  Values are located in the
    universe through a hash where they are hashable and by structural
    equality otherwise, so domains need no hashing contract; a value new
    to the universe is asked ``contains`` once, as it enters.  The reports
    are the ones :func:`check_law` gives law by law, each with its own
    counterexample dict.
    """
    src, vw, exhaustive = _universe_for(lens, source, view)
    ctx = _Ctx(lens, src, vw, exhaustive)
    witnesses: dict[LawId, Optional[dict]] = {}

    def scan(law: LawId) -> Optional[dict]:
        if law not in witnesses:
            witnesses[law] = _scan(ctx, law.value)
        return witnesses[law]

    reports = []
    for law in list(LawId) if laws is None else laws:
        if law in _COMPOSITES:
            failed = next((part for part in _COMPOSITES[law] if scan(part) is not None), None)
            witness = None if failed is None else {"_law": failed.value, **scan(failed)}
        else:
            witness = scan(law)
            witness = None if witness is None else dict(witness)
        reports.append(LawReport(law, witness is None, witness, ctx.universe))
    return reports


def recheck_counterexample(
    lens: PSLens,
    report: LawReport,
    source: Optional[list] = None,
    view: Optional[list] = None,
) -> bool:
    """Re-substitute a report's counterexample into the law's formula.

    Runs the law's own scanner at the witness alone and returns True when
    that instance is false, i.e. the counterexample is genuine.
    ``put-determines-get`` takes a maximum over the whole universe, so it
    is rerun on ``source`` and ``view`` instead.  Like :func:`check_laws`,
    raises ``ValueError("broken lens ...")`` when ``get`` or ``put``
    leaves its carrier; a witness value outside its carrier is a
    :class:`UniverseMismatchError` naming the variable.
    """
    if report.holds or report.counterexample is None:
        raise ValueError("report carries no counterexample")
    w = dict(report.counterexample)
    law = LawId(w.pop("_law")) if "_law" in w else report.law
    if law is LawId.PUT_DETERMINES_GET:
        rerun = check_law(lens, law, source, view)
        return (not rerun.holds) and rerun.counterexample["s"] == w["s"]
    return _scan(_Ctx(lens, [], [], False), law.value, w) is not None


def check_composition_closure(
    l1: PSLens,
    l2: PSLens,
    source: Optional[list] = None,
    mid: Optional[list] = None,
    view: Optional[list] = None,
) -> LawReport:
    """Well-behavedness of ``l1 ; l2`` given well-behaved parts.

    The parts are verified first (a precondition, so their failure
    raises); closure then demands the composite passes ``wb`` on the
    same universe.  A failure here with lawful inputs flags a harness or
    combinator bug, since well-behavedness is closed under composition.
    """
    for part, s_u, v_u in ((l1, source, mid), (l2, mid, view)):
        rep = check_law(part, LawId.WB, s_u, v_u)
        if not rep.holds:
            raise ValueError(f"precondition: {part.name!r} is not well-behaved: {rep}")
    return check_law(compose(l1, l2), LawId.WB, source, view)


# ---------------------------------------------------------------------------
# PutPut probe (informational only)
# ---------------------------------------------------------------------------


@dataclass
class ProbeReport:
    """Informational verdict for a property that is not a required law."""

    name: str
    holds: bool
    counterexample: Optional[dict]
    universe: str

    def __str__(self) -> str:
        verdict = "holds" if self.holds else "does not hold"
        out = f"{self.name} (informational): {verdict} [{self.universe}]"
        if self.counterexample is not None:
            items = ", ".join(f"{k}={v!r}" for k, v in self.counterexample.items())
            out += f" counterexample: {items}"
        return out


def putput_probe(
    lens: PSLens, source: Optional[list] = None, view: Optional[list] = None
) -> ProbeReport:
    """Probe whether ``put`` preserves update composition.

    Not required of any lens here (it is typically too strong for
    view-update translators), but worth reporting: domains that admit
    no-op updates usually break it.
    """
    src, vw, exhaustive = _universe_for(lens, source, view)
    c = _Ctx(lens, src, vw, exhaustive)
    witness = _scan(c, "putput")
    return ProbeReport("putput", witness is None, witness, c.universe)


# ---------------------------------------------------------------------------
# Fixture catalog
# ---------------------------------------------------------------------------


@dataclass
class LensFixture:
    """A named lens with its designated verdicts for the suite."""

    name: str
    lens: PSLens
    expect: dict[LawId, bool]
    note: str = ""


def fixture_lenses() -> dict[str, LensFixture]:
    """The regression catalog: lawful primitives plus the deviant trio.

    All domains are finite so every designated verdict is checked
    exhaustively.  The tabled domains load from the packaged fixture
    files (the same text format the serializer emits).
    """
    unit = _load_fixture("unit.iposet", load_iposet, "unit")
    unit_omega = _load_fixture("unit_omega.iposet", load_iposet, "unit_omega")
    bool_omega = _load_fixture("bool_omega.iposet", load_iposet, "bool_omega")
    counter = _load_fixture("counter_chain.iposet", load_iposet, "counter_chain")
    nat_omega = _load_fixture("nat_omega.iposet", load_iposet, "nat_omega")

    pair_omega = product_iposet(
        lift_omega(discrete([1]), name="one_omega"),
        lift_omega(discrete([2]), name="two_omega"),
        name="pair_omega",
    )

    fixtures: list[LensFixture] = []

    fixtures.append(
        LensFixture(
            "identity-counter",
            identity_lens(counter, name="identity-counter"),
            {LawId.WB: True, LawId.WEAK_WB: True},
            "identity is lawful over any domain",
        )
    )
    fixtures.append(
        LensFixture(
            "constant-unit",
            constant_lens(counter, unit_omega, "unit", name="constant-unit"),
            {LawId.WB: True},
            "constant lens over a lower-bounded source",
        )
    )
    fixtures.append(
        LensFixture(
            "dup-pair-omega",
            dup_lens(pair_omega, name="dup-pair-omega"),
            {LawId.WB: True},
            "duplication over a duplicable product of lifted points",
        )
    )
    fixtures.append(
        LensFixture(
            "untag-unit-omega",
            untag_s(unit_omega, name="untag-unit-omega"),
            {LawId.WB: True},
            "untagging keeps the source's tag",
        )
    )

    nat_source = discrete(["0", "1", "2"], name="nat")

    def apply_nat(v, s):
        return s if v == "omega" else v

    fixtures.append(
        LensFixture(
            "init-nat",
            initiator(nat_source, nat_omega, apply_nat, name="init-nat"),
            {LawId.WB: True},
            "number initiator; putput does not hold for it",
        )
    )

    def bad_put(s, v):
        return "0" if s == "0" else str(int(s) - 1)

    fixtures.append(
        LensFixture(
            "bad",
            PSLens(counter, unit, get=lambda s: "unit", put=bad_put, name="bad"),
            {LawId.WEAK_WB: True, LawId.PS_STABILITY: False, LawId.WB: False},
            "needs n round-trips to stabilize from the n-th counter state",
        )
    )

    def nonmono_get(s):
        return "omega" if s == "omega" else "unit"

    def nonmono_put(s, v):
        if v == "omega":
            return "omega"
        return s if s != "omega" else "true"

    fixtures.append(
        LensFixture(
            "put-nonmono-first",
            PSLens(bool_omega, unit_omega, get=nonmono_get, put=nonmono_put, name="put-nonmono-first"),
            {LawId.WB: True},
            "lawful although put is not monotone in its first argument",
        )
    )

    def const_ns_put(s, v):
        return s if v == "unit" else "omega"

    fixtures.append(
        LensFixture(
            "const-unit-ns",
            PSLens(unit_omega, unit_omega, get=lambda s: "unit", put=const_ns_put, name="const-unit-ns"),
            {LawId.WB: True, LawId.WPUTGET: False},
            "lawful but does not satisfy the WPutGet variant",
        )
    )

    return {f.name: f for f in fixtures}


def run_fixture_suite(names: Optional[list[str]] = None) -> tuple[list[str], bool]:
    """Evaluate the designated laws of the named fixtures (all by default).

    Returns printable lines and an overall flag that is False when any
    expected-lawful lens fails or any counterexample fixture passes its
    designated failing law.  A name outside the catalog is a
    ``ValueError``, raised before any law is checked.
    """
    catalog = fixture_lenses()
    picked = list(catalog) if names is None else names
    for name in picked:
        if name not in catalog:
            raise ValueError(f"unknown fixture {name!r}")
    lines = []
    all_ok = True
    for name in picked:
        fixture = catalog[name]
        reports = check_laws(fixture.lens, list(fixture.expect))
        for expected, report in zip(fixture.expect.values(), reports):
            ok = report.holds == expected
            all_ok = all_ok and ok
            status = "ok" if ok else "UNEXPECTED"
            lines.append(f"{name}: {report} expected={'holds' if expected else 'fails'} [{status}]")
    return lines, all_ok
