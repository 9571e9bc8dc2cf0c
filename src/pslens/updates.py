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
:func:`~pslens.iposet.verify_iposet` when the space is built.  The space
also builds its reach rows then: for each update and origin, the
positions ``ran`` reaches, as a list in ``ran``'s order and as a bit
mask.  The generated tables are laid out by position: the proper
states, then one block of updates per origin, in update order.

Duplicability of the generated domain reduces to three conditions on
the update structure (checked by :func:`check_condition`):

* G1 -- merging updates respects reachability from every origin;
* G2 -- merge is total on every down-set of updates;
* G3 -- merge is total and closed on the updates that fix any state.

Two easier sufficient conditions are also checkable: a fine-enough
update space implies G1, and a merge defined on comparable pairs and
associative (definedness included) implies G2.  ``ran``, the recipe and
the conditions read the reach rows, ``us.order``'s rows and its merge
by position, so the conditions compare positions, not values.

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
    _load_fixture,
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
        # reach rows: _ran[k][i] lists the positions of ran(s_i, u_k) in its order, _reach[k][i] is their mask
        goes = self._interp.get
        self._ran = [[list(dict.fromkeys(r for l in _bits(row) if (r := goes((l, i))) is not None))
                      for i in range(len(self.states))] for row in self.order.rows()[0]]
        self._reach = [[sum(1 << r for r in rs) for rs in per_state] for per_state in self._ran]

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
    refinement ``u' >= u`` whose semantics is defined at ``s``, read off
    the space's reach rows (refinements ascending, each result once)."""
    return [us.states[r] for r in us._ran[us._u(u)][us._s(s)]]


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
    origins (the OR of their reach masks); it is an identical update for
    each origin that update ``k`` fixes; two of a block merge as their
    updates do.
    """
    order = us.order.rows()[0]
    updates = _merges(us.order, us.order.elements)[0]
    carrier = [Proper(s) for s in us.states]
    up = [1 << i for i in range(len(carrier))]
    id_up, merge = list(up), {(i, i): i for i in range(len(carrier))}
    for origins, tagged in blocks:
        base = len(carrier)
        carrier += tagged
        for k in range(len(tagged)):
            reach = fix = 0
            for i in origins:
                reach |= us._reach[k][i]
                fix |= (us._interp.get((k, i)) == i) << i
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
    """Check one of the duplicability conditions G1, G2, G3.

    The quantifiers run over positions, reading the space's reach rows,
    ``us.order``'s rows and its merge by position; a witness names the
    states and updates, met in ``ran``'s order and the updates' order.
    """
    rep = ValidationReport(subject=f"{which} on {us.name or 'update space'}")
    S, U, reach = us.states, us.updates, us._reach
    order, merges = us.order.rows()[0], _merges(us.order, us.order.elements)[0]
    if which == "G1":
        for k1, k2 in itertools.product(range(len(U)), repeat=2):
            if (m := merges.get((k1, k2))) is None:
                continue
            for i in range(len(S)):
                lost = reach[k1][i] & reach[k2][i] & ~reach[m][i]
                for r in us._ran[k1][i] if lost else ():
                    if lost >> r & 1:
                        rep.add("G1-ran-respected", (S[i], U[k1], U[k2], S[r]), "shared result lost by merged update")
    elif which == "G2":
        for k in range(len(U)):
            down = [j for j, row in enumerate(order) if row >> k & 1]
            for a, b in itertools.product(down, repeat=2):
                if (a, b) not in merges:
                    rep.add("G2-total-on-downsets", (U[a], U[b], U[k]), "merge undefined below a common bound")
    elif which == "G3":
        for i, s in enumerate(S):
            fixing = [k for k in range(len(U)) if us._interp.get((k, i)) == i]
            for a, b in itertools.product(fixing, repeat=2):
                m = merges.get((a, b))
                if m is None:
                    rep.add("G3-total-on-fixers", (U[a], U[b], s), "identical updates cannot merge")
                elif us._interp.get((m, i)) != i:
                    rep.add("G3-closed-on-fixers", (U[a], U[b], s), f"merged update moves the state via {U[m]!r}")
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
    reported (it would indicate a checker bug).  Like
    :func:`check_condition`, it reads the reach rows and positions.
    """
    rep = ValidationReport(subject=f"{which} on {us.name or 'update space'}")
    S, U, reach = us.states, us.updates, us._reach
    order, merges = us.order.rows()[0], _merges(us.order, us.order.elements)[0]
    if which == "fine-enough":
        implied = "G1"
        for i, s in enumerate(S):
            for k1, k2 in itertools.combinations_with_replacement(range(len(U)), 2):
                missed = reach[k1][i] & reach[k2][i]
                for k in _bits(order[k1] & order[k2]) if missed else ():
                    missed &= ~reach[k][i]
                for r in us._ran[k1][i] if missed else ():
                    if missed >> r & 1:
                        rep.add("fine-enough", (s, U[k1], U[k2], S[r]), "no common refinement reaches the shared result")
    elif which == "associative-join":
        implied = "G2"
        for k1, k2 in itertools.product(range(len(U)), repeat=2):
            if (order[k1] >> k2 & 1 or order[k2] >> k1 & 1) and (k1, k2) not in merges:
                rep.add("comparable-merge-defined", (U[k1], U[k2]))
        for k1, k2, k3 in itertools.product(range(len(U)), repeat=3):
            m23, m12 = merges.get((k2, k3)), merges.get((k1, k2))
            left = None if m23 is None else merges.get((k1, m23))
            right = None if m12 is None else merges.get((m12, k3))
            if left != right:
                left, right = (UNDEFINED if k is None else U[k] for k in (left, right))
                rep.add("merge-associative", (U[k1], U[k2], U[k3]), f"{left!r} vs {right!r}")
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
    return _load_fixture("g1_violation.uspace", load_update_space, "g1-violation")


def g2_violation_space() -> UpdateSpace:
    """Merge undefined between two updates below a common bound."""
    return _load_fixture("g2_violation.uspace", load_update_space, "g2-violation")


def g3_violation_space() -> UpdateSpace:
    """Two distinct identical updates that cannot merge."""
    return _load_fixture("g3_violation.uspace", load_update_space, "g3-violation")


def enumerate_update_spaces() -> Iterator[UpdateSpace]:
    """Deterministic enumeration of small valid update spaces.

    Walks all interpretations of one- and two-update posets (discrete
    and chain orders, diagonal and join merges) over one- and two-state
    sets: 266 spaces, every candidate valid, so construction refuses none.
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
                        yield UpdateSpace(
                            list(states),
                            list(updates),
                            list(u_le),
                            list(u_merge),
                            interp,
                            name=f"enum-{n_states}s-{n_upd}u",
                        )


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
