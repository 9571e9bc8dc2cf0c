"""Executable round-tripping laws with exhaustive finite checking.

Every law is evaluated as its literal quantified formula over a
universe: the full carriers for enumerable domains, or caller-supplied
sample lists for infinite ones (in which case the report says so and
claims nothing beyond the samples).  A failing report always carries a
concrete counterexample that can be re-substituted into the formula.

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
from importlib import resources
from typing import Any, Callable, Optional

from .iposet import (
    ElementIndex,
    FiniteIPoset,
    IPoset,
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
    """A supplied sample element is outside the lens's carrier."""


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
    """Sample list with memoized order/ident relations, indexed by int.

    Values computed during checking (get/put results) are appended past
    the quantifier range ``n`` so relations involving them memoize too.
    Elements are located at their first structurally equal position.
    """

    def __init__(self, domain: IPoset, values: list):
        self.domain = domain
        self._index = ElementIndex(values)
        self.values = self._index.values
        self.n = len(self.values)
        self._le: dict[tuple[int, int], bool] = {}
        self._id: dict[tuple[int, int], bool] = {}

    def locate(self, v: Any) -> int:
        return self._index.intern(v)

    def le(self, i: int, j: int) -> bool:
        key = (i, j)
        hit = self._le.get(key)
        if hit is None:
            hit = self._le[key] = self.domain.le(self.values[i], self.values[j])
        return hit

    def ident(self, i: int, j: int) -> bool:
        key = (i, j)
        hit = self._id.get(key)
        if hit is None:
            hit = self._id[key] = self.domain.ident(self.values[i], self.values[j])
        return hit


class _Ctx:
    """One lens pinned to a source/view universe, with get/put memos."""

    def __init__(self, lens: PSLens, source: list, view: list, exhaustive: bool):
        self.lens = lens
        self.S = _Space(lens.source, source)
        self.V = _Space(lens.view, view)
        self.exhaustive = exhaustive
        self._get: dict[int, int] = {}
        self._put: dict[tuple[int, int], Any] = {}
        self._image: dict[int, list[tuple[int, int]]] = {}

    @property
    def universe(self) -> str:
        kind = "exhaustive finite" if self.exhaustive else "sampled"
        return f"{kind}: {self.S.n} source x {self.V.n} view"

    def get(self, i: int) -> int:
        hit = self._get.get(i)
        if hit is None:
            out = self.lens.get(self.S.values[i])
            if not self.lens.view.contains(out):
                raise ValueError(
                    f"broken lens {self.lens.name!r}: get left the view carrier at {self.S.values[i]!r}"
                )
            hit = self._get[i] = self.V.locate(out)
        return hit

    def put(self, i: int, j: int) -> Any:
        """Source index for a defined put, else the PutFailure."""
        key = (i, j)
        hit = self._put.get(key)
        if hit is None:
            out = self.lens.put(self.S.values[i], self.V.values[j])
            if is_failure(out):
                hit = out
            else:
                if not self.lens.source.contains(out):
                    raise ValueError(
                        f"broken lens {self.lens.name!r}: put left the source carrier "
                        f"at {(self.S.values[i], self.V.values[j])!r}"
                    )
                hit = self.S.locate(out)
            self._put[key] = hit
        return hit

    def image(self, j: int) -> list[tuple[int, int]]:
        """The image of ``put(-, v)``: ``(s0, put(s0, v))`` for the first
        source giving each distinct defined result, in source order."""
        hit = self._image.get(j)
        if hit is None:
            first: dict[int, int] = {}
            for i in range(self.S.n):
                r = self.put(i, j)
                if not is_failure(r):
                    first.setdefault(r, i)
            hit = self._image[j] = [(i, r) for r, i in first.items()]
        return hit

    def sv(self, i: int) -> Any:
        return self.S.values[i]

    def vv(self, j: int) -> Any:
        return self.V.values[j]


def _scan_classical_consistency(c: _Ctx) -> Optional[dict]:
    for i in range(c.S.n):
        for j in range(c.V.n):
            r = c.put(i, j)
            if is_failure(r):
                continue
            if c.get(r) != j:
                return {"s": c.sv(i), "v'": c.vv(j), "s'": c.sv(r), "get s'": c.vv(c.get(r))}
    return None


def _scan_classical_acceptability(c: _Ctx) -> Optional[dict]:
    for i in range(c.S.n):
        r = c.put(i, c.get(i))
        if is_failure(r) or r != i:
            got = r if is_failure(r) else c.sv(r)
            return {"s": c.sv(i), "v": c.vv(c.get(i)), "put result": got}
    return None


def _scan_stability(c: _Ctx) -> Optional[dict]:
    for i in range(c.S.n):
        for j in range(c.V.n):
            s = c.put(i, j)
            if is_failure(s):
                continue
            r = c.put(s, c.get(s))
            if is_failure(r) or r != s:
                got = r if is_failure(r) else c.sv(r)
                return {"s0": c.sv(i), "v": c.vv(j), "s": c.sv(s), "round-trip put": got}
    return None


def _scan_ps_consistency(c: _Ctx) -> Optional[dict]:
    for j in range(c.V.n):
        for i, r in c.image(j):
            for i2 in range(c.S.n):
                if not c.S.le(r, i2):
                    continue
                if not c.V.le(j, c.get(i2)):
                    return {
                        "s": c.sv(i),
                        "v'": c.vv(j),
                        "put result": c.sv(r),
                        "s'": c.sv(i2),
                        "get s'": c.vv(c.get(i2)),
                    }
    return None


def _scan_ps_acceptability(c: _Ctx) -> Optional[dict]:
    for i in range(c.S.n):
        g = c.get(i)
        for j in range(c.V.n):
            if not c.V.ident(j, g):
                continue
            r = c.put(i, j)
            if is_failure(r) or not c.S.ident(r, i):
                got = r if is_failure(r) else c.sv(r)
                return {"s": c.sv(i), "v": c.vv(j), "put result": got}
    return None


def _scan_ps_stability(c: _Ctx) -> Optional[dict]:
    for j in range(c.V.n):
        for i0, s in c.image(j):
            for i2 in range(c.S.n):  # s'
                if not c.S.le(s, i2):
                    continue
                g2 = c.get(i2)
                for j2 in range(c.V.n):  # v''
                    if not (c.V.le(j, j2) and c.V.ident(j2, g2)):
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


def _scan_get_monotone(c: _Ctx) -> Optional[dict]:
    for i in range(c.S.n):
        for i2 in range(c.S.n):
            if c.S.le(i, i2) and not c.V.le(c.get(i), c.get(i2)):
                return {
                    "s": c.sv(i),
                    "s'": c.sv(i2),
                    "get s": c.vv(c.get(i)),
                    "get s'": c.vv(c.get(i2)),
                }
    return None


def _scan_view_stability(c: _Ctx) -> Optional[dict]:
    for i in range(c.S.n):
        g = c.get(i)
        r = c.put(i, g)
        if is_failure(r) or c.get(r) != g:
            got = r if is_failure(r) else c.vv(c.get(r))
            return {"s": c.sv(i), "get s": c.vv(g), "get after round-trip": got}
    return None


def _scan_put_determines_get(c: _Ctx) -> Optional[dict]:
    for i in range(c.S.n):
        pool = [j for j in range(c.V.n) if any(c.S.le(r, i) for _, r in c.image(j))]
        best = None
        for j in pool:
            if all(c.V.le(j2, j) for j2 in pool):
                best = j
                break
        if best is None or c.get(i) != best:
            return {
                "s": c.sv(i),
                "V_s": [c.vv(j) for j in pool],
                "max": None if best is None else c.vv(best),
                "get s": c.vv(c.get(i)),
            }
    return None


def _scan_wputget(c: _Ctx) -> Optional[dict]:
    for i in range(c.S.n):
        for j in range(c.V.n):
            s = c.put(i, j)
            if is_failure(s):
                continue
            r = c.put(i, c.get(s))
            if is_failure(r) or r != s:
                got = r if is_failure(r) else c.sv(r)
                return {"s0": c.sv(i), "v": c.vv(j), "s": c.sv(s), "adjusted put": got}
    return None


_SCANNERS: dict[LawId, Callable[[_Ctx], Optional[dict]]] = {
    LawId.CLASSICAL_CONSISTENCY: _scan_classical_consistency,
    LawId.CLASSICAL_ACCEPTABILITY: _scan_classical_acceptability,
    LawId.STABILITY: _scan_stability,
    LawId.PS_CONSISTENCY: _scan_ps_consistency,
    LawId.PS_ACCEPTABILITY: _scan_ps_acceptability,
    LawId.PS_STABILITY: _scan_ps_stability,
    LawId.GET_MONOTONE: _scan_get_monotone,
    LawId.VIEW_STABILITY: _scan_view_stability,
    LawId.PUT_DETERMINES_GET: _scan_put_determines_get,
    LawId.WPUTGET: _scan_wputget,
}

_COMPOSITES: dict[LawId, tuple[LawId, ...]] = {
    LawId.WEAK_WB: (LawId.PS_ACCEPTABILITY, LawId.PS_CONSISTENCY),
    LawId.WB: (LawId.PS_ACCEPTABILITY, LawId.PS_CONSISTENCY, LawId.PS_STABILITY),
}


def _universe_for(lens: PSLens, source: Optional[list], view: Optional[list]) -> tuple[list, list, bool]:
    sides = []
    for side, domain, samples in (("source", lens.source, source), ("view", lens.view, view)):
        if samples is None:
            samples = domain.elements
            if samples is None:
                raise UniverseMismatchError(f"{side} of {lens.name!r} is not enumerable; supply {side} samples")
        else:
            for x in samples:
                if not domain.contains(x):
                    raise UniverseMismatchError(f"sample {x!r} is outside the {side} carrier")
        sides.append(list(samples))
    return sides[0], sides[1], source is None and view is None


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
    each order or identical-update query is evaluated at most once, and
    each law's scanner runs at most once, so ``weak-wb`` and ``wb`` reuse
    the witnesses of their conjuncts.  Values are located in the
    universe through a hash where they are hashable and by structural
    equality otherwise, so domains need no hashing contract.  The reports
    are the ones :func:`check_law` gives law by law, each with its own
    counterexample dict.
    """
    src, vw, exhaustive = _universe_for(lens, source, view)
    ctx = _Ctx(lens, src, vw, exhaustive)
    witnesses: dict[LawId, Optional[dict]] = {}

    def scan(law: LawId) -> Optional[dict]:
        if law not in witnesses:
            witnesses[law] = _SCANNERS[law](ctx)
        return witnesses[law]

    reports = []
    for law in laws or list(LawId):
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

    Returns True when the law instance indeed evaluates to false at the
    witness, i.e. the counterexample is genuine.
    """
    if report.holds or report.counterexample is None:
        raise ValueError("report carries no counterexample")
    w = dict(report.counterexample)
    law = LawId(w.pop("_law")) if "_law" in w else report.law
    S, V = lens.source, lens.view
    get, put = lens.get, lens.put

    def defined(x):
        return not is_failure(x)

    if law is LawId.CLASSICAL_CONSISTENCY:
        r = put(w["s"], w["v'"])
        return defined(r) and not (get(r) == w["v'"])
    if law is LawId.CLASSICAL_ACCEPTABILITY:
        r = put(w["s"], get(w["s"]))
        return not (defined(r) and r == w["s"])
    if law is LawId.STABILITY:
        s = put(w["s0"], w["v"])
        if not defined(s):
            return False
        r = put(s, get(s))
        return not (defined(r) and r == s)
    if law is LawId.PS_CONSISTENCY:
        r = put(w["s"], w["v'"])
        return defined(r) and S.le(r, w["s'"]) and not V.le(w["v'"], get(w["s'"]))
    if law is LawId.PS_ACCEPTABILITY:
        if not V.ident(w["v"], get(w["s"])):
            return False
        r = put(w["s"], w["v"])
        return not (defined(r) and S.ident(r, w["s"]))
    if law is LawId.PS_STABILITY:
        s = put(w["s0"], w["v"])
        if not defined(s) or not S.le(s, w["s'"]):
            return False
        if not (V.le(w["v"], w["v''"]) and V.ident(w["v''"], get(w["s'"]))):
            return False
        s2 = put(w["s'"], w["v''"])
        return defined(s2) and not S.le(s, s2)
    if law is LawId.GET_MONOTONE:
        return S.le(w["s"], w["s'"]) and not V.le(get(w["s"]), get(w["s'"]))
    if law is LawId.VIEW_STABILITY:
        r = put(w["s"], get(w["s"]))
        return not (defined(r) and get(r) == get(w["s"]))
    if law is LawId.WPUTGET:
        s = put(w["s0"], w["v"])
        if not defined(s):
            return False
        r = put(w["s0"], get(s))
        return not (defined(r) and r == s)
    if law is LawId.PUT_DETERMINES_GET:
        rerun = check_law(lens, law, source, view)
        return (not rerun.holds) and rerun.counterexample["s"] == w["s"]
    raise ValueError(f"cannot recheck {law}")


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
    for i in range(c.S.n):
        for j1 in range(c.V.n):
            s1 = c.put(i, j1)
            if is_failure(s1):
                continue
            for j2 in range(c.V.n):
                s2 = c.put(s1, j2)
                if is_failure(s2):
                    continue
                r = c.put(i, j2)
                if is_failure(r) or r != s2:
                    got = r if is_failure(r) else c.sv(r)
                    witness = {
                        "s0": c.sv(i),
                        "v1": c.vv(j1),
                        "s1": c.sv(s1),
                        "v2": c.vv(j2),
                        "s2": c.sv(s2),
                        "shortcut put": got,
                    }
                    return ProbeReport("putput", False, witness, c.universe)
    return ProbeReport("putput", True, None, c.universe)


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


def _load_fixture_domain(filename: str, name: str) -> FiniteIPoset:
    text = resources.files("pslens").joinpath("fixtures", filename).read_text()
    return load_iposet(text, name=name)


def fixture_lenses() -> dict[str, LensFixture]:
    """The regression catalog: lawful primitives plus the deviant trio.

    All domains are finite so every designated verdict is checked
    exhaustively.  The tabled domains load from the packaged fixture
    files (the same text format the serializer emits).
    """
    unit = _load_fixture_domain("unit.iposet", "unit")
    unit_omega = _load_fixture_domain("unit_omega.iposet", "unit_omega")
    bool_omega = _load_fixture_domain("bool_omega.iposet", "bool_omega")
    counter = _load_fixture_domain("counter_chain.iposet", "counter_chain")
    nat_omega = _load_fixture_domain("nat_omega.iposet", "nat_omega")

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
    """Evaluate every fixture's designated laws.

    Returns printable lines and an overall flag that is False when any
    expected-lawful lens fails or any counterexample fixture passes its
    designated failing law.  A name outside the catalog is a
    ``ValueError``, raised before any law is checked.
    """
    catalog = fixture_lenses()
    picked = names or list(catalog)
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
