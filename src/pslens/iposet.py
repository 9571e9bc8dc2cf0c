"""Partially ordered state domains with identical-update structure.

A domain here is a carrier of *states* ordered by ``le``, where
``le(a, b)`` reads "a is less specified than b": everything the update
intention ``a`` asks for is preserved in ``b``.  On top of the order,
each domain distinguishes a reflexive sub-relation ``ident`` of
*identical updates*: ``ident(a, b)`` means that, applied against ``b``,
the state ``a`` requests nothing new.  A domain may also carry

* a least element (an intention that specifies nothing and acts as an
  identical update for every state), and
* a partial binary ``merge`` that soundly computes least upper bounds;
  merging is how simultaneous update intentions from different views
  are combined, and its partiality models genuinely conflicting
  updates.

Finite domains store their relations as explicit tables and validate
the axioms eagerly; infinite domains implement the same interface with
computed predicates and are only ever checked on caller-supplied
samples.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Optional


class IPosetError(ValueError):
    """A domain failed its construction-time axioms."""


class InvalidArgsError(IPosetError):
    """A standard construction was given mismatched arguments."""


class NonMonotonePredicateError(IPosetError):
    """A carrier restriction used a non-monotone predicate."""


class MissingMergeError(IPosetError):
    """A duplicability check was asked of a domain without a merge table."""


class _Undefined:
    """Result of a partial operation outside its domain of definition."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNDEFINED"


#: Singleton returned by partial operations (``join``, ``merge``) when no
#: result exists.  Always compare with ``is``; carrier elements may be falsy.
UNDEFINED = _Undefined()


class _Omega:
    """Fresh least element introduced by :func:`lift_omega`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Omega"


#: Default bottom element for lifted domains ("anything", the empty intention).
OMEGA = _Omega()


@dataclass(frozen=True)
class InL:
    """Left injection into a sum domain."""

    value: Any


@dataclass(frozen=True)
class InR:
    """Right injection into a sum domain."""

    value: Any


# ---------------------------------------------------------------------------
# Validation reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance, with the witnessing elements."""

    axiom: str
    witness: tuple
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.axiom}: witness {self.witness!r}"
        return f"{msg} ({self.detail})" if self.detail else msg


@dataclass
class ValidationReport:
    """Outcome of an axiom or condition check.

    ``ok`` is true iff no violation was recorded; every violation names
    the failed axiom and carries concrete witnesses, so a report is
    re-checkable by hand.
    """

    subject: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, axiom: str, witness: tuple, detail: str = "") -> None:
        self.violations.append(Violation(axiom, witness, detail))

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Domain interface
# ---------------------------------------------------------------------------


class IPoset:
    """Interface shared by all state domains.

    Elements are compared by structural equality only; no hashing
    contract is assumed.  ``elements`` is a list for enumerable (finite)
    domains and ``None`` otherwise.  ``least`` is the distinguished
    bottom element, an identical update relative to every element (the
    empty intention), or ``None`` when the domain is not lower-bounded.
    Finite tables, and products and sums of them, also answer ``le`` and
    ``ident`` from bit rows (:meth:`rows`); other domains give ``None``.
    ``shape``, made on first use, hashes a table's rows and merge table or
    a product's or sum's parts; other domains have ``None``.
    """

    name: str = ""
    least: Any = None
    has_merge: bool = False
    shape: Optional[int] = None

    @property
    def elements(self) -> Optional[list]:
        return None

    def le(self, a: Any, b: Any) -> bool:
        raise NotImplementedError

    def ident(self, a: Any, b: Any) -> bool:
        """True when ``a`` is an identical update relative to ``b``."""
        raise NotImplementedError

    def merge(self, a: Any, b: Any) -> Any:
        return UNDEFINED

    def contains(self, x: Any) -> bool:
        raise NotImplementedError

    def rows(self) -> Optional[tuple[list[int], list[int]]]:
        """Read-only ``(up, id_up)``, an int per element: bit ``j`` of row ``i`` is ``le``/``ident`` of ``e_i, e_j``."""
        return None

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        n = "inf" if (els := self.elements) is None else len(els)
        return f"<{label}: {n} elements>"


class ElementIndex:
    """A growing list of values with first-position lookup under ``==``.

    ``index(x)`` answers exactly like a linear scan for the first ``i``
    with ``values[i] == x`` (or -1), so no hashing contract is imposed on
    elements.  Hashable values are found through a dict keyed on their
    first position; unhashable ones (sets, dicts, lists, ...) sit in a
    side list that every hashable lookup scans, which keeps cross-type
    equalities such as ``{1} == frozenset({1})`` and ``1 == True``
    answered in list order.  An unhashable query is found by identity
    when it is a value held here (its first equal position is noted as
    it is added), and otherwise by scanning all values.  As in Python's
    own containers, equality is assumed to be reflexive.
    """

    __slots__ = ("values", "_first", "_unhashable", "_held")

    def __init__(self, values: Iterable = ()):
        self.values: list = []
        self._first: dict = {}
        self._unhashable: list[tuple[int, Any]] = []
        self._held: dict[int, int] = {}  # id of a held unhashable value -> its first equal position
        for v in values:
            self.append(v)

    def append(self, v: Any, first: Optional[int] = None) -> int:
        """Add ``v`` at the end, even when an equal value is present;
        ``first`` is ``index(v)`` when the caller has already asked it."""
        i = len(self.values)
        try:
            self._first.setdefault(v, i)
        except TypeError:
            first = self.index(v) if first is None else first
            self._held.setdefault(id(v), i if first < 0 else first)
            self._unhashable.append((i, v))
        self.values.append(v)
        return i

    def index(self, x: Any) -> int:
        """First position of a value equal to ``x``, or -1."""
        try:
            i = self._first.get(x, -1)
        except TypeError:
            i = self._held.get(id(x))  # ids of held values cannot be reused while they are held
            if i is not None:
                return i
            for i, v in enumerate(self.values):
                if v == x:
                    return i
            return -1
        for j, v in self._unhashable:
            if 0 <= i < j:
                break
            if v == x:
                return j
        return i

    def intern(self, x: Any) -> int:
        """Position of ``x``, appending it when no equal value is present."""
        i = self.index(x)
        return i if i >= 0 else self.append(x, i)


class FiniteIPoset(IPoset):
    """Explicitly tabled finite domain, validated eagerly.

    ``le`` and ``id_rel`` are given as iterables of element pairs and
    ``merge`` as an iterable of ``(a, b, result)`` triples.  ``least`` is
    the first element below every element, designated only when it is an
    identical update relative to every element too; else ``None``.
    Unless ``validate=False``, construction runs :func:`verify_iposet` and
    raises :class:`IPosetError` on the first report of violations.
    """

    def __init__(self, elements: Iterable, le: Iterable[tuple], id_rel: Iterable[tuple],
                 merge: Optional[Iterable[tuple]] = None, name: str = "", validate: bool = True):
        self._index, self.name = _distinct(elements), name
        self._elements = self._index.values
        rows = [0] * len(self._elements), [0] * len(self._elements)
        for row, pairs in zip(rows, (le, id_rel)):
            for a, b in pairs:
                row[self._idx(a)] |= 1 << self._idx(b)
        table = None if merge is None else {}
        for a, b, r in merge or ():
            key, ri = (self._idx(a), self._idx(b)), self._idx(r)
            if table.setdefault(key, ri) != ri:
                raise IPosetError(f"merge not functional at {(a, b)!r}")
        self._place(*rows, table, validate)

    @classmethod
    def _of(cls, index: ElementIndex, up: list, id_up: list, merge: Optional[dict], name: str = "", validate=True):
        """The positional entry: ``index`` holds a carrier without equal elements, ``up``/``id_up``
        are its rows (:meth:`rows`) and ``merge`` maps ``(i, j)`` to the position of ``e_i + e_j``."""
        p = cls.__new__(cls)
        p._index, p._elements, p.name = index, index.values, name
        return p._place(up, id_up, merge, validate)

    def _place(self, up: list, id_up: list, merge: Optional[dict], validate: bool) -> FiniteIPoset:
        self._up, self._id_up, self._merge, self.has_merge = up, id_up, merge, merge is not None
        k = _least(full := (1 << len(up)) - 1, up)
        self.least = None if k is None or id_up[k] & full != full else self._elements[k]
        if validate and not (report := verify_iposet(self)).ok:
            raise IPosetError(str(report))
        return self

    def _idx(self, x: Any) -> int:
        i = self._index.index(x)
        if i < 0:
            raise IPosetError(f"{x!r} is not a carrier element of {self!r}")
        return i

    @property
    def elements(self) -> list:
        return self._elements

    def le(self, a: Any, b: Any) -> bool:
        return bool(self._up[self._idx(a)] >> self._idx(b) & 1)

    def ident(self, a: Any, b: Any) -> bool:
        return bool(self._id_up[self._idx(a)] >> self._idx(b) & 1)

    def merge(self, a: Any, b: Any) -> Any:
        if self._merge is None:
            return UNDEFINED
        r = self._merge.get((self._idx(a), self._idx(b)))
        return UNDEFINED if r is None else self._elements[r]

    def contains(self, x: Any) -> bool:
        return self._index.index(x) >= 0

    def rows(self) -> tuple[list[int], list[int]]:
        return self._up, self._id_up

    @cached_property
    def shape(self) -> int:
        merge = None if self._merge is None else frozenset(self._merge.items())
        return hash((tuple(self._up), tuple(self._id_up), merge))

    def le_pairs(self) -> list[tuple]:
        return _row_pairs(self._elements, self._up)

    def id_pairs(self) -> list[tuple]:
        return _row_pairs(self._elements, self._id_up)

    def merge_triples(self) -> list[tuple]:
        if self._merge is None:
            return []
        e = self._elements
        return [(e[i], e[j], e[k]) for (i, j), k in sorted(self._merge.items())]


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def _require_enumerable(p: IPoset) -> list:
    els = p.elements
    if els is None:
        raise InvalidArgsError(f"{p!r} is not enumerable")
    return els


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _distinct(elements: Iterable) -> ElementIndex:
    """An index of ``elements``, refusing a value equal to an earlier one."""
    index = ElementIndex()
    for e in elements:
        if (i := index.index(e)) >= 0:
            raise IPosetError(f"duplicate element {e!r}")
        index.append(e, i)
    return index


def _row_pairs(els: list, rows: list[int]) -> list[tuple]:
    return [(a, els[j]) for a, row in zip(els, rows) for j in _bits(row)]


def _ask(rel: Callable[[Any, Any], bool], els: list) -> list[int]:
    """``rel`` asked once per ordered pair of ``els``, as bit rows."""
    return [sum(1 << j for j, b in enumerate(els) if rel(a, b)) for a in els]


def _rows(p: IPoset, els: list) -> tuple[list[int], list[int]]:
    """``p.rows()``, or for a domain without rows ``le`` and ``ident`` asked once per ordered pair of ``els``."""
    return p.rows() or (_ask(p.le, els), _ask(p.ident, els))


def _merges(p: IPoset, els: list) -> tuple[dict, list]:
    """``p``'s merge by position, ``(i, j) -> k``, and the values ``k`` indexes: ``els``, then each
    result outside ``els``.  A table gives its own dict; any other domain is asked once per ordered pair."""
    if isinstance(p, FiniteIPoset) and els is p.elements:
        return p._merge, els
    values, merges = ElementIndex(els), {}
    for (i, a), (j, b) in itertools.product(enumerate(els), repeat=2):
        if (r := p.merge(a, b)) is not UNDEFINED:
            merges[i, j] = values.intern(r)
    return merges, values.values


def _least(mask: int, up: list[int]) -> Optional[int]:
    """The first position in ``mask`` whose row covers ``mask``, or ``None``."""
    return next((i for i in _bits(mask) if up[i] & mask == mask), None)


def join(p: IPoset, a: Any, b: Any) -> Any:
    """Least upper bound of ``a`` and ``b`` in an enumerable domain.

    Computed by enumerating common upper bounds and selecting the unique
    minimum; antisymmetry makes the minimum unique whenever a least
    upper bound exists.  Returns :data:`UNDEFINED` when there is no
    common upper bound or no least one.
    """
    ubs = [c for c in _require_enumerable(p) if p.le(a, c) and p.le(b, c)]
    k = _least((1 << len(ubs)) - 1, _ask(p.le, ubs))
    return UNDEFINED if k is None else ubs[k]


def verify_iposet(p: IPoset) -> ValidationReport:
    """Check every domain axiom over an enumerable carrier.

    Violations are report entries, never exceptions: order axioms
    (reflexive, antisymmetric, transitive), ``ident`` contained in
    ``le`` and reflexive, the least element being an identical update
    for everything, and soundness of the merge against the least upper
    bounds of the order.  The domain's rows are read (:func:`_rows`).
    """
    els = _require_enumerable(p)
    if not els:
        raise InvalidArgsError("empty carrier")
    rep = ValidationReport(subject=f"iposet axioms for {p!r}")
    up, id_up = _rows(p, els)
    for i, a in enumerate(els):
        if not up[i] >> i & 1:
            rep.add("le-reflexive", (a,))
        if not id_up[i] >> i & 1:
            rep.add("ident-reflexive", (a,))
    for i, a in enumerate(els):
        for j in _bits((up[i] | id_up[i]) & ~(1 << i)):
            if not up[i] >> j & 1:
                rep.add("ident-subset-of-le", (a, els[j]))
            elif up[j] >> i & 1:
                rep.add("le-antisymmetric", (a, els[j]))
    for i, a in enumerate(els):
        for j in _bits(up[i]):
            for k in _bits(up[j] & ~up[i]):
                rep.add("le-transitive", (a, els[j], els[k]))
    full = (1 << len(els)) - 1
    k = _least(full, up)
    if k is not None:
        omega = els[k]
        if p.least is not None and not (p.least == omega):
            rep.add("least-designated", (p.least, omega), "designated least differs")
        for j in _bits(full & ~id_up[k]):
            rep.add("least-is-identical-update", (omega, els[j]))
    if p.has_merge:
        _check_merge_sound(p, els, up, rep)
    return rep


def _check_merge_sound(p: IPoset, els: list, up: list[int], rep: ValidationReport) -> tuple[dict, list]:
    """Report each defined merge that differs from the least upper bound in ``up``; return :func:`_merges`."""
    merges, values = _merges(p, els)
    for (i, j), m in sorted(merges.items()):
        k = _least(up[i] & up[j], up)
        if k != m and (k is None or not (els[k] == values[m])):
            rep.add("merge-sound", (els[i], els[j], values[m]), f"join is {UNDEFINED if k is None else els[k]!r}")
    return merges, values


def check_duplicable(p: IPoset) -> ValidationReport:
    """Check that ``merge`` makes an enumerable domain duplicable.

    Duplicability requires (i) merge to be sound for joins, and (ii) for
    every state ``z``, merge to be total and closed on the identical
    updates of ``z``.  This is exactly what the duplication lens needs
    to combine per-view updates without losing identical ones.  Rows are
    read (:func:`_rows`); ``ident`` is asked of merges outside the carrier.
    """
    els = _require_enumerable(p)
    if not p.has_merge:
        raise MissingMergeError(f"{p!r} has no merge operator")
    rep = ValidationReport(subject=f"duplicability of {p!r}")
    up, id_up = _rows(p, els)
    merges, values = _check_merge_sound(p, els, up, rep)
    for k, z in enumerate(els):
        ids = [i for i, row in enumerate(id_up) if row >> k & 1]
        for i, j in itertools.product(ids, repeat=2):
            m = merges.get((i, j))
            if m is None:
                rep.add("ident-merge-total", (els[i], els[j], z), "merge undefined on identical updates")
            elif not (id_up[m] >> k & 1 if m < len(els) else p.ident(values[m], z)):
                rep.add("ident-merge-closed", (els[i], els[j], z), f"merge result {values[m]!r} not identical update")
    return rep


def materialize(p: IPoset, elements: Iterable, name: str = "", on_escape: str = "error") -> FiniteIPoset:
    """Tabulate an abstract domain over an explicit finite sub-carrier.

    Merge results falling outside ``elements`` either raise (default) or
    are dropped from the table with ``on_escape="drop"``.
    """
    els = list(elements)
    rows, merge = (_ask(p.le, els), _ask(p.ident, els)), None
    if p.has_merge:
        merge, values = _merges(p, els)
        if len(values) > len(els):
            if on_escape != "drop":
                raise InvalidArgsError(f"merge result {values[len(els)]!r} escapes the sub-carrier")
            merge = {key: m for key, m in merge.items() if m < len(els)}
    return FiniteIPoset._of(_distinct(els), *rows, merge, name=name or f"{p.name or 'domain'}@{len(els)}")


# ---------------------------------------------------------------------------
# Standard constructions
# ---------------------------------------------------------------------------


def discrete(elements: Iterable, name: str = "") -> FiniteIPoset:
    """Discrete domain: order and identical updates are equality.

    Carries the diagonal merge ``x + x = x``, which is the only sound
    total-on-identicals choice, so discrete domains are duplicable.
    """
    index = _distinct(elements)
    diag = [1 << i for i in range(len(index.values))]
    return FiniteIPoset._of(index, diag, list(diag), {(i, i): i for i in range(len(diag))}, name=name)


def lift_omega(p: IPoset, bottom: Any = OMEGA, name: str = "") -> FiniteIPoset:
    """Add a fresh least element below an enumerable domain.

    The new bottom is below, and an identical update for, every state;
    it is a unit for merge.  ``bottom`` must not already be a carrier
    element.
    """
    els = _require_enumerable(p)
    if bottom in els:
        raise InvalidArgsError(f"bottom {bottom!r} already in carrier")
    index, n = _distinct([bottom, *els]), len(els) + 1
    up, id_up = ([(1 << n) - 1] + [row << 1 for row in rows] for rows in _rows(p, els))
    # the bottom is position 0 and e_i is i + 1, so no two merge keys meet
    merge = {(0, k): k for k in range(n)} | {(k, 0): k for k in range(1, n)}
    if p.has_merge:
        merges, values = _merges(p, els)
        if len(values) > len(els):
            raise IPosetError(f"merge result {values[len(els)]!r} is not a carrier element of {p!r}")
        merge |= {(i + 1, j + 1): m + 1 for (i, j), m in merges.items()}
    return FiniteIPoset._of(index, up, id_up, merge, name=name or (p.name + "_lifted" if p.name else ""))


class ProductIPoset(IPoset):
    """Point-wise product of two domains; elements are pairs."""

    def __init__(self, left: IPoset, right: IPoset, name: str = ""):
        self.left = left
        self.right = right
        self.name = name
        self.has_merge = left.has_merge and right.has_merge
        if left.least is not None and right.least is not None:
            self.least = (left.least, right.least)

    @property
    def elements(self) -> Optional[list]:
        ls, rs = self.left.elements, self.right.elements
        return None if ls is None or rs is None else [(a, b) for a in ls for b in rs]

    def rows(self) -> Optional[tuple[list[int], list[int]]]:
        """Pair ``(a_i, b_j)`` sits at ``i * |R| + j``; its row is ``b_j``'s
        row repeated at each block ``k`` set in ``a_i``'s row."""
        lr, rr = self.left.rows(), self.right.rows()
        if lr is None or rr is None:
            return None
        m = len(rr[0])
        spread = [[sum(1 << k * m for k in range(row.bit_length()) if row >> k & 1) for row in rel] for rel in lr]
        return tuple([s * r for s in blocks for r in rel] for blocks, rel in zip(spread, rr))

    shape = cached_property(lambda self: _compound_shape("product", self))

    def _split(self, x: Any) -> tuple:
        if not (isinstance(x, tuple) and len(x) == 2):
            raise IPosetError(f"{x!r} is not a pair")
        return x

    def le(self, a: Any, b: Any) -> bool:
        a1, a2 = self._split(a)
        b1, b2 = self._split(b)
        return self.left.le(a1, b1) and self.right.le(a2, b2)

    def ident(self, a: Any, b: Any) -> bool:
        a1, a2 = self._split(a)
        b1, b2 = self._split(b)
        return self.left.ident(a1, b1) and self.right.ident(a2, b2)

    def merge(self, a: Any, b: Any) -> Any:
        if not self.has_merge:
            return UNDEFINED
        a1, a2 = self._split(a)
        b1, b2 = self._split(b)
        m1 = self.left.merge(a1, b1)
        m2 = self.right.merge(a2, b2)
        if m1 is UNDEFINED or m2 is UNDEFINED:
            return UNDEFINED
        return (m1, m2)

    def contains(self, x: Any) -> bool:
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        return self.left.contains(x[0]) and self.right.contains(x[1])


class SumIPoset(IPoset):
    """Tagged sum of two domains; cross-tag elements are incomparable."""

    def __init__(self, left: IPoset, right: IPoset, name: str = ""):
        self.left = left
        self.right = right
        self.name = name
        self.has_merge = left.has_merge and right.has_merge

    @property
    def elements(self) -> Optional[list]:
        ls, rs = self.left.elements, self.right.elements
        return None if ls is None or rs is None else [InL(a) for a in ls] + [InR(b) for b in rs]

    def rows(self) -> Optional[tuple[list[int], list[int]]]:
        """The left rows, then the right rows shifted past the left carrier."""
        lr, rr = self.left.rows(), self.right.rows()
        if lr is None or rr is None:
            return None
        n = len(lr[0])
        return tuple(left + [row << n for row in right] for left, right in zip(lr, rr))

    shape = cached_property(lambda self: _compound_shape("sum", self))

    def le(self, a: Any, b: Any) -> bool:
        if isinstance(a, InL) and isinstance(b, InL):
            return self.left.le(a.value, b.value)
        if isinstance(a, InR) and isinstance(b, InR):
            return self.right.le(a.value, b.value)
        return False

    def ident(self, a: Any, b: Any) -> bool:
        if isinstance(a, InL) and isinstance(b, InL):
            return self.left.ident(a.value, b.value)
        if isinstance(a, InR) and isinstance(b, InR):
            return self.right.ident(a.value, b.value)
        return False

    def merge(self, a: Any, b: Any) -> Any:
        if not self.has_merge:
            return UNDEFINED
        if isinstance(a, InL) and isinstance(b, InL):
            r = self.left.merge(a.value, b.value)
            return UNDEFINED if r is UNDEFINED else InL(r)
        if isinstance(a, InR) and isinstance(b, InR):
            r = self.right.merge(a.value, b.value)
            return UNDEFINED if r is UNDEFINED else InR(r)
        return UNDEFINED

    def contains(self, x: Any) -> bool:
        if isinstance(x, InL):
            return self.left.contains(x.value)
        if isinstance(x, InR):
            return self.right.contains(x.value)
        return False


class RestrictedIPoset(IPoset):
    """Abstract domain cut down to the elements satisfying a predicate.

    The predicate is trusted to be monotone here (see
    :func:`restrict_iposet` for the exact sense); enumerable domains go
    through :func:`restrict_iposet`, which checks it.
    """

    def __init__(self, base: IPoset, pred: Callable[[Any], bool], name: str = ""):
        self.base = base
        self.pred = pred
        self.name = name
        self.has_merge = base.has_merge
        if base.least is not None and pred(base.least):
            self.least = base.least

    def le(self, a: Any, b: Any) -> bool:
        return self.base.le(a, b)

    def ident(self, a: Any, b: Any) -> bool:
        return self.base.ident(a, b)

    def merge(self, a: Any, b: Any) -> Any:
        r = self.base.merge(a, b)
        if r is UNDEFINED or not self.pred(r):
            return UNDEFINED
        return r

    def contains(self, x: Any) -> bool:
        return self.base.contains(x) and self.pred(x)


def _compound_shape(kind: str, p: ProductIPoset | SumIPoset) -> int:
    return hash((kind, *(id(c) if c.shape is None else c.shape for c in (p.left, p.right))))


def product_iposet(p: IPoset, q: IPoset, name: str = "") -> ProductIPoset:
    return ProductIPoset(p, q, name=name)


def sum_iposet(p: IPoset, q: IPoset, name: str = "") -> SumIPoset:
    return SumIPoset(p, q, name=name)


def powerset_iposet(base: Iterable, include_empty: bool = False, name: str = "") -> FiniteIPoset:
    """Subsets of ``base`` ordered by reverse inclusion.

    A larger subset is *less* specified: it permits more proper states.
    Merge is intersection; with the empty set excluded (the default,
    treating ill-specification as a conflict), intersection is partial.
    """
    universe = frozenset(base)
    sizes = range(0 if include_empty else 1, len(universe) + 1)
    els = [frozenset(c) for n in sizes for c in itertools.combinations(sorted(universe), n)]
    at = {e: i for i, e in enumerate(els)}  # distinct by construction, and hashable
    up = [sum(1 << j for j, b in enumerate(els) if a >= b) for a in els]
    merge = {(i, j): at[a & b] for (i, a), (j, b) in itertools.product(enumerate(els), repeat=2) if a & b or include_empty}
    return FiniteIPoset._of(ElementIndex(els), up, list(up), merge, name=name or f"powerset({set(universe)!r})")


def restrict_iposet(p: IPoset, pred: Callable[[Any], bool], name: str = "") -> IPoset:
    """Restrict a domain to the elements satisfying a monotone predicate.

    Monotone here means compatible with specifiedness: a predicate is a
    shape constraint, and anything *less* specified than a satisfying
    state must satisfy it too (``le(a, b)`` and ``pred(b)`` imply
    ``pred(a)``).  This is the sense needed for predicate-guarded
    untagging to stay lawful, and it keeps the least element inside
    every non-empty restriction.  Enumerable domains are re-tabled
    (dropping merge triples that leave the sub-carrier, which keeps
    merge sound) after an exhaustive check; abstract domains get a lazy
    wrapper.
    """
    els = p.elements
    if els is None:
        return RestrictedIPoset(p, pred, name=name)
    kept = sum(1 << i for i, e in enumerate(els) if pred(e))
    for i, row in enumerate(_rows(p, els)[0]):
        if row & kept and not kept >> i & 1:
            raise NonMonotonePredicateError(f"predicate not monotone at {(els[i], els[next(_bits(row & kept))])!r}")
    sub = [els[i] for i in _bits(kept)]
    return materialize(p, sub, name=name or (p.name + "_restricted" if p.name else ""), on_escape="drop")


def structurally_equal(p: IPoset, q: IPoset) -> bool:
    """Domain equality as used for composing lenses.

    Identical objects match; products and sums match component-wise;
    finite tables match by carrier and relations.  Distinct abstract
    domains are never considered equal.  A differing or missing ``shape``
    answers False (a table's shape skips the carrier, which may be
    unhashable); equal shapes are always confirmed in full.
    """
    if p is q:
        return True
    if p.shape is None or p.shape != q.shape:
        return False
    if isinstance(p, ProductIPoset) and isinstance(q, ProductIPoset):
        return structurally_equal(p.left, q.left) and structurally_equal(p.right, q.right)
    if isinstance(p, SumIPoset) and isinstance(q, SumIPoset):
        return structurally_equal(p.left, q.left) and structurally_equal(p.right, q.right)
    if isinstance(p, FiniteIPoset) and isinstance(q, FiniteIPoset):
        return (p.elements, p._up, p._id_up, p._merge) == (q.elements, q._up, q._id_up, q._merge)
    return False


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#
# Finite domains with string elements serialize to a line-oriented text
# format (see README for the grammar):
#
#     elem a
#     le a b        # a <= b; reflexive pairs are implied
#     id a b        # a is an identical update for b; reflexive implied
#     merge a b c   # a merged with b gives c
#
# '#' starts a comment; blank lines are ignored.

_BARE = re.compile(r'[^\s"#]+')
# A token ends at whitespace, '#' or the end of the line; anything else
# found (the start of `un"quo"ted` or `"a"b`, a stray quote) is the
# second group, which takes the rest of the line.
_TOKEN = re.compile(r'([^\s"#]+|"(?:[^"\\]|\\["\\nr])*")(?=[\s#]|\Z)|#.*|(\S.*)')
_ESCAPE = re.compile(r"\\(.)")
_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n", "r": "\r"}


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")


def _quote(text: str) -> str:
    return '"' + _escape(text) + '"'


def _is_bare_token(x: Any) -> bool:
    """Whether ``x`` is a string the line formats read back unquoted as
    one token: non-empty, without whitespace, '"' and '#'."""
    return isinstance(x, str) and _BARE.fullmatch(x) is not None


def _tokenize(line: str) -> Optional[list[str]]:
    """The whitespace-separated tokens of one line up to a ``#`` outside
    quotes, or ``None`` when it does not parse.  A token is a bare run of
    characters other than whitespace, ``"`` and ``#``, or a double-quoted
    string with the escapes ``\\\\``, ``\\"``, ``\\n`` and ``\\r``."""
    found = _TOKEN.findall(line)
    if found and found[-1][1]:
        return None
    return [t if t[0] != '"' else _ESCAPE.sub(lambda m: _UNESCAPE[m[1]], t[1:-1]) for t, _ in found if t]


def _read_directives(text: str, arity: dict[str, int], error: type) -> Iterator[tuple[int, str, tuple]]:
    """Read a line format lazily, yielding ``(lineno, tag, args)`` per line.

    Lines end at ``\\n`` only.  A line is the tokens of :func:`_tokenize`,
    the first its tag; blank lines are skipped.  A line that does not
    parse, an unknown tag or a wrong number of arguments raises ``error``
    with its line number.
    """
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = _tokenize(raw)
        if tokens is None or tokens and arity.get(tokens[0]) != len(tokens) - 1:
            raise error(f"line {lineno}: cannot parse {raw!r}")
        if tokens:
            yield lineno, tokens[0], tuple(tokens[1:])


def _read_declared(text: str, kinds: dict[str, tuple], error: type, functions: dict[str, str]) -> dict[str, list[tuple]]:
    """Per tag in ``kinds``, the argument tuples of its lines in order.

    ``kinds`` gives the kind of each argument of a tag; a line whose tag
    is a kind declares its argument.  A tag in ``functions`` gives its
    last argument as a function of the others.  An argument that no line
    declares, a second declaration and a second function line with
    another result raise ``error`` naming the line.
    """
    lines = list(_read_directives(text, {tag: len(k) for tag, k in kinds.items()}, error))
    declared = {(tag, *args) for _, tag, args in lines}
    seen: dict[tuple, Any] = {}  # a declaration's line, and a function line's result by its other arguments
    out: dict[str, list[tuple]] = {tag: [] for tag in kinds}
    for lineno, tag, args in lines:
        for kind, x in zip(kinds[tag], args):
            if (kind, x) not in declared:
                raise error(f"line {lineno}: no {kind} line declares {x!r}")
        if kinds[tag] == (tag,) and seen.setdefault((tag, *args), lineno) != lineno:
            raise error(f"line {lineno}: duplicate {tag} {args[0]!r}")
        if tag in functions and seen.setdefault((tag, *args[:-1]), args[-1]) != args[-1]:
            raise error(f"line {lineno}: {functions[tag]} not functional at {args[:-1]!r}")
        out[tag].append(args)
    return out


def dump_iposet(p: IPoset) -> str:
    """Render an enumerable domain with string elements to text."""
    els = _require_enumerable(p)
    for e in els:
        if not _is_bare_token(e):
            raise InvalidArgsError(f"element {e!r} is not a bare token")
    lines = [f"elem {e}" for e in els]
    for tag, rows in zip(("le", "id"), _rows(p, els)):
        lines += sorted(f"{tag} {a} {b}" for a, b in _row_pairs(els, rows) if a != b)
    if p.has_merge:
        merge, values = _merges(p, els)
        merges = sorted(f"merge {els[i]} {els[j]} {values[m]}" for (i, j), m in merge.items())
        if not merges:
            raise InvalidArgsError(f"{p!r} has a merge table without entries, which the text format cannot write")
        lines += merges
    return "\n".join(lines) + "\n"


def load_iposet(text: str, name: str = "") -> FiniteIPoset:
    """Parse the text format back into a validated finite domain."""
    kinds = {"elem": ("elem",), "le": ("elem",) * 2, "id": ("elem",) * 2, "merge": ("elem",) * 3}
    lines = _read_declared(text, kinds, IPosetError, {"merge": "merge"})
    els = [e for (e,) in lines["elem"]]
    le, idr = (lines[tag] + [(e, e) for e in els] for tag in ("le", "id"))
    return FiniteIPoset(els, le, idr, lines["merge"] or None, name=name)
