"""Encoding updates as partially specified states.

The construction takes a set of proper states ``S`` and a finite poset
``U`` of updates (with a sound partial merge and a partial semantics
``interp(u): S -> S``) and produces a state domain over
``S + (S x U)``: an update paired with its origin state *is* a
partially specified state, ordered below every proper state it can
reach.  ``ran(s, u)`` is that reachability set: results of any
refinement of ``u`` applied to ``s``.  The update poset is an ordinary
domain, ``us.order`` (a :class:`~pslens.iposet.FiniteIPoset` whose
identical updates are its order), validated by
:func:`~pslens.iposet.verify_iposet` when the space is built.  The
generated tables are laid out by position: the proper states, then one
block of updates per origin, in update order.

Duplicability of the generated domain reduces to three conditions on
the update structure (checked by :func:`check_condition`):

* G1 -- merging updates respects reachability from every origin;
* G2 -- merge is total on every down-set of updates;
* G3 -- merge is total and closed on the updates that fix any state.

Two easier sufficient conditions are also checkable: a fine-enough
update space implies G1, and a merge defined on comparable pairs and
associative (definedness included) implies G2.

State elimination forgets the origin of each update: the origin-erased
domain over ``S + U`` is the image of the generated domain under
:func:`erase`, built as the same tables with every origin collapsed
onto one block.  Origins may be dropped exactly when that image is a
sound domain, which :func:`check_state_elimination` checks with
:func:`~pslens.iposet.verify_iposet`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from .iposet import (
    UNDEFINED,
    ElementIndex,
    FiniteIPoset,
    IPosetError,
    ValidationReport,
    _bits,
    _distinct,
    _is_bare_token,
    _merges,
    _read_declared,
    discrete,
    verify_iposet,
)
from .lens import PSLens, initiator


@dataclass(frozen=True)
class Proper:
    """A proper state inside the generated domain."""

    state: Any


@dataclass(frozen=True)
class Pair:
    """An update tagged with the proper state it starts from."""

    state: Any
    update: Any


@dataclass(frozen=True)
class Upd:
    """An origin-erased update (see :func:`erased_iposet`)."""

    update: Any


class UpdateSpaceError(ValueError):
    """An update space failed its construction-time checks."""


@dataclass
class UpdateSpace:
    """Finite states plus a finite poset of updates with semantics.

    ``u_le`` lists the non-strict order pairs on updates (reflexive
    pairs may be omitted), ``u_merge`` lists ``(u1, u2, u)`` triples of
    the partial merge, and ``interp`` lists ``(u, s, s')`` triples of
    the partial application semantics.  The update poset is
    ``us.order``, a :class:`~pslens.iposet.FiniteIPoset` whose identical
    updates are its order; construction validates it with
    :func:`~pslens.iposet.verify_iposet` (a partial order whose merge
    soundly implements its join) and rejects an empty or duplicated
    state list.
    """

    states: list
    updates: list
    u_le: list = field(default_factory=list)
    u_merge: list = field(default_factory=list)
    interp: list = field(default_factory=list)
    name: str = ""

    def __post_init__(self):
        if not self.states:
            raise UpdateSpaceError("an update space needs at least one state")
        le = list(self.u_le) + [(u, u) for u in self.updates]
        name = (self.name or "update space") + "-updates"
        try:  # an empty carrier has nothing to validate (and verify_iposet refuses it)
            self._state_index = _distinct(self.states)
            self.order = FiniteIPoset(self.updates, le, le, self.u_merge, name=name, validate=bool(self.updates))
        except IPosetError as e:
            raise UpdateSpaceError(str(e)) from e
        self._interp = {}
        for u, s, s2 in self.interp:
            key, s2i = (self._u(u), self._s(s)), self._s(s2)
            if self._interp.setdefault(key, s2i) != s2i:
                raise UpdateSpaceError(f"interpretation not functional at {(u, s)!r}")

    def _u(self, u) -> int:
        i = self.order._index.index(u)
        if i < 0:
            raise UpdateSpaceError(f"unknown update {u!r}")
        return i

    def _s(self, s) -> int:
        i = self._state_index.index(s)
        if i < 0:
            raise UpdateSpaceError(f"unknown state {s!r}")
        return i

    def apply_interp(self, u, s) -> Any:
        r = self._interp.get((self._u(u), self._s(s)))
        return UNDEFINED if r is None else self.states[r]


def ran(us: UpdateSpace, s: Any, u: Any) -> list:
    """Possible results of ``u`` at origin ``s``: outcomes of any
    refinement ``u' >= u`` whose semantics is defined at ``s``."""
    out = []
    for k in _bits(us.order.rows()[0][us._u(u)]):
        r = us.apply_interp(us.order.elements[k], s)
        if r is not UNDEFINED and r not in out:
            out.append(r)
    return out


def merge_su(us: UpdateSpace, a: Any, b: Any) -> Any:
    """Merge in the generated domain.

    Equal propers merge to themselves; an origin-tagged update absorbs
    into a proper state it can reach; updates with the same origin merge
    through the update merge.  Everything else is undefined (notably,
    pairs with different origins).
    """
    if isinstance(a, Proper) and isinstance(b, Proper):
        return a if a.state == b.state else UNDEFINED
    if isinstance(a, Pair) and isinstance(b, Proper):
        return b if b.state in ran(us, a.state, a.update) else UNDEFINED
    if isinstance(a, Proper) and isinstance(b, Pair):
        return a if a.state in ran(us, b.state, b.update) else UNDEFINED
    if isinstance(a, Pair) and isinstance(b, Pair):
        if not (a.state == b.state):
            return UNDEFINED
        m = us.order.merge(a.update, b.update)
        return UNDEFINED if m is UNDEFINED else Pair(a.state, m)
    raise UpdateSpaceError(f"not generated-domain elements: {(a, b)!r}")


def apply_su(us: UpdateSpace, v: Any, s: Any) -> Any:
    """Apply a generated-domain element as an update to a proper state.

    A proper element replaces the state outright; an origin-tagged
    update applies only at its own origin.
    """
    if isinstance(v, Proper):
        return v.state
    if isinstance(v, Pair):
        if not (v.state == s):
            return UNDEFINED
        return us.apply_interp(v.update, s)
    raise UpdateSpaceError(f"not a generated-domain element: {v!r}")


def _recipe(us: UpdateSpace, blocks: list, name: str) -> FiniteIPoset:
    """The recipe's tables by position, unvalidated.

    ``Proper(s_i)`` sits at position ``i``.  Each ``(origins, tagged)`` of
    ``blocks`` then adds one block, ``tagged[k]`` standing for update
    ``k`` and ordered by ``us.order``'s rows.  It sits below, and merges
    into, the states that the refinements of update ``k`` reach from its
    origins; it is an identical update for each origin that update ``k``
    fixes; two of a block merge as their updates do.
    """
    order = us.order.rows()[0]
    updates = _merges(us.order, us.order.elements)[0]
    carrier = [Proper(s) for s in us.states]
    up = [1 << i for i in range(len(carrier))]
    id_up, merge = list(up), {(i, i): i for i in range(len(carrier))}
    goes = {key: 1 << r for key, r in us._interp.items()}  # (update, origin) -> its result's bit
    for origins, tagged in blocks:
        base = len(carrier)
        carrier += tagged
        for k in range(len(tagged)):
            reach = fix = 0
            for i in origins:
                for l in _bits(order[k]):
                    reach |= goes.get((l, i), 0)
                fix |= goes.get((k, i), 0) & 1 << i
            up.append(order[k] << base | reach)
            id_up.append(order[k] << base | fix)
            merge.update(t for j in _bits(reach) for t in (((base + k, j), j), ((j, base + k), j)))
        merge.update(((base + k, base + l), base + m) for (k, l), m in updates.items())
    # distinct by construction: the space refused equal states, and us.order equal updates
    index = ElementIndex()
    for x in carrier:
        index.append(x, -1)
    return FiniteIPoset._of(index, up, id_up, merge, name=name, validate=False)


def gen_iposet(us: UpdateSpace) -> FiniteIPoset:
    """The generated state domain over ``Proper(s)`` and ``Pair(s, u)``.

    Ordering: pairs with the same origin follow the update order; a pair
    sits below exactly the proper states in its reachability set; proper
    states are discrete.  Identical updates follow the same rules except
    that ``Pair(s, u)`` is an identical update for ``Proper(s)`` only
    when ``u`` literally fixes ``s``.  Merge is :func:`merge_su`.  The
    tables are laid out by position: ``Proper(s_i)`` at ``i``, then one
    block of pairs per origin, in update order.

    The construction guarantees the order axioms and containment of the
    identical updates in the order, so the table is not validated.  It
    does *not* guarantee merge soundness (that is equivalent to condition
    G1 and is what :func:`pslens.iposet.check_duplicable` examines), nor
    a least element: an update below everything need not fix its origin,
    and then the domain, like any table, designates no ``least``.
    """
    blocks = [([i], [Pair(s, u) for u in us.updates]) for i, s in enumerate(us.states)]
    return _recipe(us, blocks, us.name or "generated")


def su_initiator(us: UpdateSpace) -> PSLens:
    """The update-applying lens for a generated domain.

    Source: proper states, discrete.  View: the generated domain.
    ``put`` applies the view element via :func:`apply_su`.
    """
    source = discrete([Proper(s) for s in us.states], name=(us.name or "generated") + "-proper")
    view = gen_iposet(us)

    def apply(v, sp):
        r = apply_su(us, v, sp.state)
        return UNDEFINED if r is UNDEFINED else Proper(r)

    return initiator(source, view, apply, name="su-initiator")


# ---------------------------------------------------------------------------
# Duplicability conditions
# ---------------------------------------------------------------------------


def check_condition(us: UpdateSpace, which: str) -> ValidationReport:
    """Check one of the duplicability conditions G1, G2, G3."""
    rep = ValidationReport(subject=f"{which} on {us.name or 'update space'}")
    if which == "G1":
        for u1, u2 in itertools.product(us.updates, repeat=2):
            u = us.order.merge(u1, u2)
            if u is UNDEFINED:
                continue
            for s in us.states:
                reach = ran(us, s, u)
                for s2 in ran(us, s, u1):
                    if s2 in ran(us, s, u2) and s2 not in reach:
                        rep.add("G1-ran-respected", (s, u1, u2, s2), "shared result lost by merged update")
    elif which == "G2":
        for u in us.updates:
            down = [u2 for u2 in us.updates if us.order.le(u2, u)]
            for a, b in itertools.product(down, repeat=2):
                if us.order.merge(a, b) is UNDEFINED:
                    rep.add("G2-total-on-downsets", (a, b, u), "merge undefined below a common bound")
    elif which == "G3":
        for s in us.states:
            fixing = [u for u in us.updates if us.apply_interp(u, s) == s]
            for a, b in itertools.product(fixing, repeat=2):
                r = us.order.merge(a, b)
                if r is UNDEFINED:
                    rep.add("G3-total-on-fixers", (a, b, s), "identical updates cannot merge")
                elif not (us.apply_interp(r, s) == s):
                    rep.add("G3-closed-on-fixers", (a, b, s), f"merged update moves the state via {r!r}")
    else:
        raise ValueError(f"unknown condition {which!r}; expected G1, G2 or G3")
    return rep


def check_sufficient(us: UpdateSpace, which: str) -> ValidationReport:
    """Check a sufficient condition and its implication.

    ``fine-enough``: any two updates sharing a possible result refine to
    a common upper update sharing it; implies G1.  ``associative-join``:
    merge is defined on comparable updates and associative including
    definedness; implies G2.  When the sufficient condition holds on the
    fixture, the implied condition is re-checked and any failure is
    reported (it would indicate a checker bug).
    """
    rep = ValidationReport(subject=f"{which} on {us.name or 'update space'}")
    if which == "fine-enough":
        implied = "G1"
        for s in us.states:
            for u1, u2 in itertools.combinations_with_replacement(us.updates, 2):
                shared = [s2 for s2 in ran(us, s, u1) if s2 in ran(us, s, u2)]
                for s2 in shared:
                    refinements = [
                        u
                        for u in us.updates
                        if us.order.le(u1, u) and us.order.le(u2, u) and s2 in ran(us, s, u)
                    ]
                    if not refinements:
                        rep.add("fine-enough", (s, u1, u2, s2), "no common refinement reaches the shared result")
    elif which == "associative-join":
        implied = "G2"
        for u1, u2 in itertools.product(us.updates, repeat=2):
            if (us.order.le(u1, u2) or us.order.le(u2, u1)) and us.order.merge(u1, u2) is UNDEFINED:
                rep.add("comparable-merge-defined", (u1, u2))
        for u1, u2, u3 in itertools.product(us.updates, repeat=3):
            m23 = us.order.merge(u2, u3)
            left = us.order.merge(u1, m23) if m23 is not UNDEFINED else UNDEFINED
            m12 = us.order.merge(u1, u2)
            right = us.order.merge(m12, u3) if m12 is not UNDEFINED else UNDEFINED
            if (left is UNDEFINED) != (right is UNDEFINED) or (
                left is not UNDEFINED and not (left == right)
            ):
                rep.add("merge-associative", (u1, u2, u3), f"{left!r} vs {right!r}")
    else:
        raise ValueError(f"unknown sufficient condition {which!r}")
    if rep.ok:
        implied_rep = check_condition(us, implied)
        for v in implied_rep.violations:
            rep.add(f"implication-{implied}", v.witness, "sufficient condition held but implied condition failed")
    return rep


# ---------------------------------------------------------------------------
# Origin erasure
# ---------------------------------------------------------------------------


def erase(x: Any) -> Any:
    """Forget the origin of an update; keep proper states as they are."""
    if isinstance(x, Pair):
        return Upd(x.update)
    if isinstance(x, Proper):
        return x
    raise UpdateSpaceError(f"not a generated-domain element: {x!r}")


def erased_iposet(us: UpdateSpace) -> FiniteIPoset:
    """The origin-erased domain: the image of the generated domain
    (:func:`gen_iposet`) under :func:`erase`.

    It is the generated domain's build with every origin collapsed onto
    one block: ``Proper(s)`` then ``Upd(u)``, in list order.  So
    ``Upd(u)`` sits below every proper state that ``u`` reaches from
    some origin, is an identical update for the states it fixes, and
    merges as the updates of one origin do.  The table is not validated:
    whether it is a sound domain is exactly what
    :func:`check_state_elimination` examines.  Like any table, it
    designates a ``least`` only when its bottom fixes every state.
    """
    return _recipe(us, [(range(len(us.states)), [Upd(u) for u in us.updates])], (us.name or "generated") + "-erased")


def check_state_elimination(us: UpdateSpace) -> ValidationReport:
    """Verify that origins may be dropped for this update space.

    Runs :func:`~pslens.iposet.verify_iposet` on :func:`erased_iposet`
    and reports its violations with an ``erased-`` prefix.  The erased
    merge agrees with the generated merge under :func:`erase` by
    construction; an update merge that loses a state reachable from
    both merged updates (origins erased) shows up as ``erased-merge-sound``
    on the two updates and their merge.
    """
    rep = ValidationReport(subject=f"state elimination for {us.name or 'update space'}")
    for v in verify_iposet(erased_iposet(us)).violations:
        rep.add("erased-" + v.axiom, v.witness, v.detail)
    return rep


# ---------------------------------------------------------------------------
# Fixtures and enumeration
# ---------------------------------------------------------------------------


def g1_violation_space() -> UpdateSpace:
    """Sound merge whose merged update loses a shared possible result."""
    return UpdateSpace(
        states=["s", "t", "x"],
        updates=["u1", "u2", "u12"],
        u_le=[("u1", "u12"), ("u2", "u12")],
        u_merge=[("u1", "u2", "u12"), ("u2", "u1", "u12")]
        + [(u, u, u) for u in ["u1", "u2", "u12"]]
        + [("u1", "u12", "u12"), ("u12", "u1", "u12"), ("u2", "u12", "u12"), ("u12", "u2", "u12")],
        interp=[("u1", "s", "t"), ("u2", "s", "t"), ("u12", "s", "x")],
        name="g1-violation",
    )


def g2_violation_space() -> UpdateSpace:
    """Merge undefined between two updates below a common bound."""
    merges = [(u, u, u) for u in ["a", "b", "top"]]
    merges += [("a", "top", "top"), ("top", "a", "top"), ("b", "top", "top"), ("top", "b", "top")]
    return UpdateSpace(
        states=["s1", "s2"],
        updates=["a", "b", "top"],
        u_le=[("a", "top"), ("b", "top")],
        u_merge=merges,
        interp=[("a", "s1", "s2"), ("b", "s1", "s2"), ("top", "s1", "s2"), ("top", "s2", "s2")],
        name="g2-violation",
    )


def g3_violation_space() -> UpdateSpace:
    """Two distinct identical updates that cannot merge.

    The shape of tagged-sequence updates: insert-then-remove and
    remove-then-insert of the same item both fix a state, but no single
    update merges them.
    """
    return UpdateSpace(
        states=["s"],
        updates=["ins-del", "del-ins"],
        u_le=[],
        u_merge=[("ins-del", "ins-del", "ins-del"), ("del-ins", "del-ins", "del-ins")],
        interp=[("ins-del", "s", "s"), ("del-ins", "s", "s")],
        name="g3-violation",
    )


def enumerate_update_spaces() -> Iterator[UpdateSpace]:
    """Deterministic enumeration of small valid update spaces.

    Walks all interpretations of one- and two-update posets (discrete
    and chain orders, diagonal and join merges) over one- and two-state
    sets, yielding each candidate that passes construction-time
    validation: 266 spaces.
    """
    for n_states in (1, 2):
        states = [f"s{i}" for i in range(n_states)]
        for n_upd in (1, 2):
            updates = [f"u{i}" for i in range(n_upd)]
            orders: list[list] = [[]]
            if n_upd == 2:
                orders.append([("u0", "u1")])
            for u_le in orders:
                merge_opts = [[(u, u, u) for u in updates]]
                if u_le:
                    merge_opts.append(
                        [(u, u, u) for u in updates]
                        + [("u0", "u1", "u1"), ("u1", "u0", "u1")]
                    )
                for u_merge in merge_opts:
                    slots = [(u, s) for u in updates for s in states]
                    for choice in itertools.product([None] + states, repeat=len(slots)):
                        interp = [
                            (u, s, out)
                            for (u, s), out in zip(slots, choice)
                            if out is not None
                        ]
                        try:
                            yield UpdateSpace(
                                list(states),
                                list(updates),
                                list(u_le),
                                list(u_merge),
                                interp,
                                name=f"enum-{n_states}s-{n_upd}u",
                            )
                        except UpdateSpaceError:
                            continue


# ---------------------------------------------------------------------------
# Text format (same family as the domain format)
# ---------------------------------------------------------------------------


def dump_update_space(us: UpdateSpace) -> str:
    """Render an update space with bare-token states and updates to text."""
    for x in us.states + us.updates:
        if not _is_bare_token(x):
            raise UpdateSpaceError(f"{x!r} is not a bare token")
    lines = [f"state {s}" for s in us.states]
    lines += [f"update {u}" for u in us.updates]
    lines += sorted(f"ule {a} {b}" for a, b in us.order.le_pairs() if a != b)
    lines += sorted(f"umerge {a} {b} {r}" for a, b, r in us.order.merge_triples())
    lines += sorted(
        f"interp {u} {s} {r}"
        for u in us.updates
        for s in us.states
        for r in [us.apply_interp(u, s)]
        if r is not UNDEFINED
    )
    return "\n".join(lines) + "\n"


def load_update_space(text: str, name: str = "") -> UpdateSpace:
    """Parse the text format back into a validated update space."""
    st, up = ("state",), ("update",)
    kinds = {"state": st, "update": up, "ule": up * 2, "umerge": up * 3, "interp": up + st * 2}
    lines = _read_declared(text, kinds, UpdateSpaceError, {"umerge": "merge", "interp": "interpretation"})
    states = [s for (s,) in lines["state"]]
    updates = [u for (u,) in lines["update"]]
    return UpdateSpace(states, updates, lines["ule"], lines["umerge"], lines["interp"], name=name)
