"""Lenses over partially specified states: primitives and combinators.

A lens between two domains is a pair of a total ``get`` (source to
view) and a partial ``put`` (source and updated view back to source).
Partiality of ``put`` is first-class and lawful: conflicting or
out-of-scope view updates fail with a structured :class:`PutFailure`
rather than raising, so harnesses can tell expected partiality from
bugs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Callable

from .iposet import (
    UNDEFINED,
    InL,
    InR,
    InvalidArgsError,
    IPoset,
    MissingMergeError,
    check_duplicable,
    product_iposet,
    restrict_iposet,
    structurally_equal,
    sum_iposet,
)


class Reason(enum.Enum):
    """Why a ``put`` was undefined."""

    MERGE_CONFLICT = "MergeConflict"
    OUT_OF_DOMAIN = "OutOfDomain"
    GUARD_FAILED = "GuardFailed"


@dataclass(frozen=True)
class PutFailure:
    """Structured result of an undefined ``put``.

    ``witness`` echoes the offending inputs.  ``stage`` records the path
    of combinators the failure bubbled through (purely diagnostic).
    """

    reason: Reason
    witness: tuple
    stage: tuple[str, ...] = ()

    def at_stage(self, label: str) -> "PutFailure":
        return PutFailure(self.reason, self.witness, (label,) + self.stage)

    def __str__(self) -> str:
        where = "/".join(self.stage) or "-"
        return f"put undefined: {self.reason.value} at {where}, witness {self.witness!r}"


def is_failure(x: Any) -> bool:
    return isinstance(x, PutFailure)


@dataclass(frozen=True)
class PSLens:
    """A lens: total ``get`` over the source carrier, partial ``put``.

    ``put`` returns either a source-carrier element or a
    :class:`PutFailure`.  Lenses are immutable values; ``get``/``put``
    must be pure.
    """

    source: IPoset
    view: IPoset
    get: Callable[[Any], Any]
    put: Callable[[Any, Any], Any]
    name: str = ""

    def __repr__(self) -> str:
        return f"<lens {self.name or 'anonymous'}: {self.source!r} -> {self.view!r}>"


class LensTypeError(TypeError):
    """Combinator applied to lenses with mismatched domains."""


# ---------------------------------------------------------------------------
# Primitive lenses
# ---------------------------------------------------------------------------


def identity_lens(p: IPoset, name: str = "identity") -> PSLens:
    """``get s = s``; ``put (_, v) = v``.  Lawful over any domain."""
    return PSLens(p, p, get=lambda s: s, put=lambda s, v: v, name=name)


def constant_lens(source: IPoset, view: IPoset, a: Any, name: str = "") -> PSLens:
    """Always show ``a``; accept exactly the identical updates of ``a``.

    The source must be lower-bounded: a successful ``put`` returns the
    source's least element, stating that the source may be anything.
    Accepting every ``v`` with ``ident(v, a)`` (not just ``v == a``)
    keeps the lens lawful under composition with other constant-like
    lenses.
    """
    if source.least is None:
        raise InvalidArgsError("constant lens needs a lower-bounded source domain")
    if view.elements is not None and not view.contains(a):
        raise InvalidArgsError(f"constant {a!r} is not a view element")
    omega = source.least

    def put(s: Any, v: Any) -> Any:
        if view.ident(v, a):
            return omega
        return PutFailure(Reason.GUARD_FAILED, (s, v), (name or "constant",))

    return PSLens(source, view, get=lambda s: a, put=put, name=name or f"constant({a!r})")


def dup_lens(p: IPoset, name: str = "dup", check: bool = True) -> PSLens:
    """Copy the source into a pair; merge the two updated copies back.

    Requires a duplicable domain: merge must soundly compute joins and
    be total and closed on each state's identical updates.  Enumerable
    domains are checked here unless ``check=False``; abstract domains
    are taken on the caller's word.
    """
    if not p.has_merge:
        raise MissingMergeError("duplication needs a merge operator")
    if check and p.elements is not None:
        report = check_duplicable(p)
        if not report.ok:
            raise InvalidArgsError(f"domain is not duplicable:\n{report}")
    view = product_iposet(p, p)

    def put(s: Any, v: Any) -> Any:
        v1, v2 = v
        r = p.merge(v1, v2)
        if r is UNDEFINED:
            return PutFailure(Reason.MERGE_CONFLICT, (v1, v2), (name,))
        return r

    return PSLens(p, view, get=lambda s: (s, s), put=put, name=name)


def untag_s(p: IPoset, name: str = "untag") -> PSLens:
    """Strip the injection tag; ``put`` restores the source's own tag.

    Total in both directions, and satisfies ``put (x, get x) = x``
    exactly.
    """
    source = sum_iposet(p, p)

    def get(s: Any) -> Any:
        return s.value

    def put(s: Any, v: Any) -> Any:
        return InL(v) if isinstance(s, InL) else InR(v)

    return PSLens(source, p, get=get, put=put, name=name)


def untag_pred(
    p: IPoset,
    phi1: Callable[[Any], bool],
    phi2: Callable[[Any], bool],
    name: str = "untag_pred",
) -> PSLens:
    """Untagging that re-tags by predicate as well as by source tag.

    The source is the sum of the restrictions of ``p`` to two monotone
    predicates.  ``put`` keeps the source's tag while its predicate
    holds of the new view, switches tags only when exactly the other
    predicate holds, and fails when neither applies.
    """
    left = restrict_iposet(p, phi1)
    right = restrict_iposet(p, phi2)
    source = sum_iposet(left, right)

    def get(s: Any) -> Any:
        return s.value

    def put(s: Any, v: Any) -> Any:
        p1, p2 = phi1(v), phi2(v)
        from_left = isinstance(s, InL)
        if (from_left and p1) or (not from_left and p1 and not p2):
            return InL(v)
        if (not from_left and p2) or (from_left and p2 and not p1):
            return InR(v)
        return PutFailure(Reason.GUARD_FAILED, (s, v), (name,))

    return PSLens(source, p, get=get, put=put, name=name)


def initiator(
    s_domain: IPoset,
    p_domain: IPoset,
    apply: Callable[[Any, Any], Any],
    name: str = "initiator",
) -> PSLens:
    """Embed proper states into a partially specified domain.

    ``get`` is the embedding (the source carrier is a discrete subset of
    the view carrier); ``put`` applies the partially specified view as
    an update to the proper state via ``apply(v, s)``, which returns a
    new proper state or :data:`UNDEFINED`.

    With ``get`` the embedding and the source discrete, the initiator
    laws are this lens's laws: U-acceptability (an identical update
    ``v`` of ``s`` applies as ``s``) is its ps-acceptability, and
    U-consistency (a defined ``apply(v, s)`` lies above ``v``) is its
    ps-consistency, so :func:`~pslens.laws.check_laws` checks them.
    """

    def put(s: Any, v: Any) -> Any:
        r = apply(v, s)
        if r is UNDEFINED:
            return PutFailure(Reason.OUT_OF_DOMAIN, (s, v), (name,))
        return r

    return PSLens(s_domain, p_domain, get=lambda s: s, put=put, name=name)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def compose(l1: PSLens, l2: PSLens, name: str = "") -> PSLens:
    """Sequential composition: ``get`` forward, ``put`` back through both.

    A failing inner ``put`` propagates unchanged apart from a stage tag
    naming which lens refused.
    """
    if not structurally_equal(l1.view, l2.source):
        raise LensTypeError(f"cannot compose {l1!r} with {l2!r}: middle domains differ")
    label = name or f"{l1.name};{l2.name}"

    def get(a: Any) -> Any:
        return l2.get(l1.get(a))

    def put(a: Any, c: Any) -> Any:
        b = l2.put(l1.get(a), c)
        if is_failure(b):
            return b.at_stage(label)
        r = l1.put(a, b)
        if is_failure(r):
            return r.at_stage(label)
        return r

    return PSLens(l1.source, l2.view, get=get, put=put, name=label)


def pipeline(*lenses: PSLens, name: str = "") -> PSLens:
    """Left-to-right composition of several lenses."""
    if not lenses:
        raise LensTypeError("pipeline needs at least one lens")
    out = lenses[0]
    for nxt in lenses[1:]:
        out = compose(out, nxt)
    return replace(out, name=name) if name else out


def product_lens(l1: PSLens, l2: PSLens, name: str = "") -> PSLens:
    """Apply two lenses to the components of a pair in parallel.

    ``put`` is undefined iff either component is; the failure carries a
    left/right stage tag.
    """
    source = product_iposet(l1.source, l2.source)
    view = product_iposet(l1.view, l2.view)
    label = name or f"({l1.name} x {l2.name})"

    def get(s: Any) -> Any:
        return (l1.get(s[0]), l2.get(s[1]))

    def put(s: Any, v: Any) -> Any:
        r1 = l1.put(s[0], v[0])
        if is_failure(r1):
            return r1.at_stage(label + "/left")
        r2 = l2.put(s[1], v[1])
        if is_failure(r2):
            return r2.at_stage(label + "/right")
        return (r1, r2)

    return PSLens(source, view, get=get, put=put, name=label)

