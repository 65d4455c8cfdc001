"""Closure-type operators and set-class predicates.

Each set class is stated once.  ``_FORMULAS`` holds the defining formula
``(t, a) -> bool`` of each primal kind, evaluated literally against the
space; ``_DUALS`` names, for each dual kind, the primal kind whose formula
holds on the complement (closed sets are the complements of open sets, and
so on).  A dual class is therefore the complements of its partner's members,
listed in reverse so the order stays ascending.

sg-closed has a closed form with no nested scan.  The largest semi-open
subset of X minus {y} is X minus ({y} ∪ int cl{y}), so a misses some
semi-open superset of a that leaves out y iff a ∩ int cl{y} = ∅; and a is
sg-closed iff every y in int(cl a) minus a fails that.

f-sigma-g-alpha-closed, the countable unions of gα-closed sets, is the
gα-closed class itself.  Closure is finitely additive, so a finite union of
g-closed sets is g-closed (Levine, Rend. Circ. Mat. Palermo 19, 1970), and
on a finite space every union is finite.  The tests check the collapse
against the unions of gα-closed subsets.

Classes of the alpha-refinement are always computed by first materializing
the refined topology, never by rewriting formulas in terms of the base
space.  The refinement itself is materialized from Njåstad's description of
alpha-open sets (U minus a nowhere dense set, U open) as a
minimal-neighborhood table, while the "alpha-open" class still scans the
formula a ⊆ int(cl(int a)); checking one against the other stays a genuine
two-sided check instead of a tautology.
"""

from __future__ import annotations

from functools import lru_cache

from .spaces import Topology, complement, from_preorder, full_set, iter_points


@lru_cache(maxsize=None)
def alpha_topology(t: Topology) -> Topology:
    """The finer topology of all sets a with a ⊆ int(cl(int a)).

    By Njåstad (Pacific J. Math. 15, 1965) the alpha-open sets are exactly
    U minus N with U open and N nowhere dense.  The points whose closure has
    empty interior form the largest nowhere dense set D, so the minimal
    alpha-open neighborhood of x is (U_x minus D) plus x itself.

    Idempotent; failure of that table to be a preorder inside the base
    table would be an internal defect and raises RuntimeError.
    """
    n, nbhd = t.n, t.min_nbhd
    nowhere_dense = 0
    for y in range(n):
        if t.interior(t.closure(1 << y)) == 0:
            nowhere_dense |= 1 << y
    table = tuple(nbhd[x] & ~nowhere_dense | 1 << x for x in range(n))
    if any(v & ~u for v, u in zip(table, nbhd)):  # pragma: no cover - guards a theorem
        raise RuntimeError(f"alpha neighborhood table {table} is not inside {nbhd}")
    try:
        return from_preorder(table)
    except ValueError as exc:  # pragma: no cover - guards a theorem
        raise RuntimeError(f"alpha neighborhood table {table} is not a preorder: {exc}") from exc


def _semi_closure(t: Topology, a: int) -> int:
    # a ∪ int(cl a) is semi-closed, since int(cl) of it is int(cl a) again,
    # and every semi-closed c ⊇ a holds int(cl c) ⊇ int(cl a)
    return a | t.interior(t.closure(a))


# closure/interior are the usual operators; semi-closure is the intersection
# of all semi-closed supersets; the alpha variants are the same operators in
# the materialized alpha-refinement; semi-interior is the dual of semi-closure
_HULLS = {
    "closure": Topology.closure,
    "interior": Topology.interior,
    "semi-closure": _semi_closure,
    "alpha-closure": lambda t, a: alpha_topology(t).closure(a),
    "alpha-semi-closure": lambda t, a: _semi_closure(alpha_topology(t), a),
    "semi-interior": lambda t, a: complement(_semi_closure(t, complement(a, t.n)), t.n),
}

HULL_KINDS = tuple(_HULLS)


def hull(t: Topology, a: int, kind: str) -> int:
    """Closure-type hull of a subset."""
    try:
        fn = _HULLS[kind]
    except KeyError:
        raise ValueError(f"unknown hull kind {kind!r}") from None
    return fn(t, a)


def _is_g_closed(t: Topology, a: int) -> bool:
    # the open hull is the least open superset, so it stands for them all
    return t.closure(a) & ~t.open_hull(a) == 0


def _is_sg_closed(t: Topology, a: int) -> bool:
    # every point the semi-closure adds lies in each semi-open superset of a
    return all(
        a & t.interior(t.closure(1 << y))
        for y in iter_points(t.interior(t.closure(a)) & ~a)
    )


def _is_g_alpha_closed(t: Topology, a: int) -> bool:
    return _is_g_closed(alpha_topology(t), a)


_FORMULAS = {
    "open": Topology.is_open,
    "semi-open": lambda t, a: a & ~t.closure(t.interior(a)) == 0,
    "regular-open": lambda t, a: a == t.interior(t.closure(a)),
    "alpha-open": lambda t, a: a & ~t.interior(t.closure(t.interior(a))) == 0,
    "preopen": lambda t, a: a & ~t.interior(t.closure(a)) == 0,
    "beta-open": lambda t, a: a & ~t.closure(t.interior(t.closure(a))) == 0,
    "nowhere-dense": lambda t, a: t.interior(t.closure(a)) == 0,
    "dense": lambda t, a: t.closure(a) == full_set(t.n),
    "clopen": lambda t, a: t.is_open(a) and t.is_closed(a),
    "g-closed": _is_g_closed,
    "sg-closed": _is_sg_closed,
    "g-alpha-closed": _is_g_alpha_closed,
    # closure is finitely additive, so unions of gα-closed sets are gα-closed
    "f-sigma-g-alpha-closed": _is_g_alpha_closed,
}

# dual kind -> primal kind whose formula holds on the complement
_DUALS = {
    "closed": "open",
    "semi-closed": "semi-open",
    "regular-closed": "regular-open",
    "alpha-closed": "alpha-open",
    "codense": "dense",
    "g-open": "g-closed",
    "sg-open": "sg-closed",
}

# each primal kind followed by its dual, if it has one
CLASS_KINDS = tuple(
    k for p in _FORMULAS for k in (p, *(d for d, q in _DUALS.items() if q == p))
)


def _formula(kind: str):
    try:
        return _FORMULAS[kind]
    except KeyError:
        raise ValueError(f"unknown class kind {kind!r}") from None


def is_in_class(t: Topology, a: int, kind: str) -> bool:
    """Evaluate the defining formula of one set class."""
    if kind in _DUALS:
        kind, a = _DUALS[kind], complement(a, t.n)
    return _formula(kind)(t, a)


@lru_cache(maxsize=None)
def set_class(t: Topology, kind: str) -> tuple[int, ...]:
    """All subsets of the space in one class, in ascending mask order."""
    if kind in _DUALS:
        # complementing reverses the ascending order of the partner's members
        n = t.n
        return tuple(complement(a, n) for a in reversed(set_class(t, _DUALS[kind])))
    if kind == "open":
        return t.opens
    formula = _formula(kind)
    return tuple(a for a in range(1 << t.n) if formula(t, a))
