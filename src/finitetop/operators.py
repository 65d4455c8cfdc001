"""Closure-type operators and set-class predicates.

Each set class and each hull is stated once, as a formula that indexes the
lookups of one space: ``cl`` (closure), ``int_`` (interior) and ``hull``
(open hull), each taking a mask to a mask, and the full set ``full``.  A
scan of every mask passes tables, lists indexed by mask, built at one OR
per entry:

    cl[a] = cl[a minus x] | cl{x},  hull[a] = hull[a minus x] | U_x,
    int[a] = X minus cl[X minus a]

for any point x of a, because closure and the open hull are finitely
additive and the interior is dual to the closure; cl{x} is the space's
point closure, derived from its table on first use and kept.  Production
only ever scans whole classes; the test oracles (tests/oracles.py) ask the
same formulas about one mask through adapters whose ``[]`` calls the
``Topology`` methods instead.

A space's tables live in the innermost ``table_scope``.  A check opens one
around its work on one space, so the scans and hull tables it asks of T
and of T^α build each space's tables once, and the tables go when the
check ends.  Outside any scope each scan builds its own and drops them.
Kept on the space or in a cache they would hold three 65536-entry lists
for every 16-point space a sweep touches.

``_FORMULAS`` holds each primal kind.  ``_DUALS`` names, for each dual
kind, the primal kind whose formula holds on the complement (closed sets
are the complements of open sets, and so on).  A dual class is therefore
the complements of its partner's members, listed in reverse so the order
stays ascending.  ``_OF_REFINEMENT`` names the kinds that are another kind
taken in the alpha-refinement.

sg-closed has a closed form with no nested scan.  The largest semi-open
subset of X minus {y} is X minus ({y} ∪ int cl{y}), so a misses some
semi-open superset of a that leaves out y iff a ∩ int cl{y} = ∅; and a is
sg-closed iff every y in int(cl a) minus a fails that.

f-sigma-g-alpha-closed, the countable unions of gα-closed sets, is the
gα-closed class itself.  Closure is finitely additive, so a finite union of
g-closed sets is g-closed (Levine, Rend. Circ. Mat. Palermo 19, 1970), and
on a finite space every union is finite.  Both kinds name the g-closed
class of the alpha-refinement and share its cached tuple.  The tests check
the collapse against the unions of gα-closed subsets.

Classes of the alpha-refinement are always computed by first materializing
the refined topology, never by rewriting formulas in terms of the base
space.  The refinement itself is materialized from Njåstad's description of
alpha-open sets (U minus a nowhere dense set, U open) as a
minimal-neighborhood table, while the "alpha-open" class still scans the
formula a ⊆ int(cl(int a)); checking one against the other stays a genuine
two-sided check instead of a tautology.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import lru_cache, partial
from typing import Optional

from .spaces import Topology, from_preorder, full_set


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
    for y, c in enumerate(t.point_closures):
        if t.interior(c) == 0:
            nowhere_dense |= 1 << y
    table = tuple(nbhd[x] & ~nowhere_dense | 1 << x for x in range(n))
    if any(v & ~u for v, u in zip(table, nbhd)):  # pragma: no cover - guards a theorem
        raise RuntimeError(f"alpha neighborhood table {table} is not inside {nbhd}")
    try:
        return from_preorder(table)
    except ValueError as exc:  # pragma: no cover - guards a theorem
        raise RuntimeError(f"alpha neighborhood table {table} is not a preorder: {exc}") from exc


# the tables of each space asked for in the innermost open scope
_SCOPE: ContextVar[Optional[dict]] = ContextVar("table_scope", default=None)


class table_scope:
    """Build each space's lookup tables at most once until the block ends.

    Scopes nest: an inner scope starts empty, and the outer one is back when
    the inner block ends, raising or not.
    """

    __slots__ = ("_token",)

    def __enter__(self) -> None:
        self._token = _SCOPE.set({})

    def __exit__(self, *exc_info) -> None:
        _SCOPE.reset(self._token)


def _table_lookups(t: Topology) -> tuple:
    scope = _SCOPE.get()
    if scope is None:
        return _build_tables(t)
    tables = scope.get(t)
    if tables is None:
        tables = scope[t] = _build_tables(t)
    return tables


def _build_tables(t: Topology) -> tuple:
    # the masks whose highest point is x are the masks below x with x added
    cl, hull = [0], [0]
    for c, u in zip(t.point_closures, t.min_nbhd):
        cl += [m | c for m in cl]
        hull += [m | u for m in hull]
    full = full_set(t.n)
    # X minus a runs downward as a runs upward
    interior = [full ^ m for m in reversed(cl)]
    return cl, interior, hull, full


# closure/interior are the usual operators; semi-closure is the intersection
# of all semi-closed supersets: a ∪ int(cl a) is semi-closed, since int(cl)
# of it is int(cl a) again, and every semi-closed c ⊇ a holds
# int(cl c) ⊇ int(cl a); semi-interior is its dual, a ∩ cl(int a)
_HULLS = {
    "closure": lambda cl, int_, hull, full, a: cl[a],
    "interior": lambda cl, int_, hull, full, a: int_[a],
    "semi-closure": lambda cl, int_, hull, full, a: a | int_[cl[a]],
    "semi-interior": lambda cl, int_, hull, full, a: a & cl[int_[a]],
}

HULL_KINDS = (
    "closure", "interior", "semi-closure", "alpha-closure", "alpha-semi-closure",
    "semi-interior",
)


def _is_sg_closed(cl, int_, hull, full, a):
    # every point the semi-closure adds lies in each semi-open superset of a
    extra = int_[cl[a]] & ~a
    while extra:
        low = extra & -extra
        if not a & int_[cl[low]]:
            return False
        extra ^= low
    return True


_FORMULAS = {
    "open": lambda cl, int_, hull, full, a: int_[a] == a,
    "semi-open": lambda cl, int_, hull, full, a: a & ~cl[int_[a]] == 0,
    "regular-open": lambda cl, int_, hull, full, a: a == int_[cl[a]],
    "alpha-open": lambda cl, int_, hull, full, a: a & ~int_[cl[int_[a]]] == 0,
    "preopen": lambda cl, int_, hull, full, a: a & ~int_[cl[a]] == 0,
    "beta-open": lambda cl, int_, hull, full, a: a & ~cl[int_[cl[a]]] == 0,
    "nowhere-dense": lambda cl, int_, hull, full, a: int_[cl[a]] == 0,
    "dense": lambda cl, int_, hull, full, a: cl[a] == full,
    "clopen": lambda cl, int_, hull, full, a: int_[a] == a == cl[a],
    # the open hull is the least open superset, so it stands for them all
    "g-closed": lambda cl, int_, hull, full, a: cl[a] & ~hull[a] == 0,
    "sg-closed": _is_sg_closed,
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

# kind -> the kind it is in the alpha-refinement
_OF_REFINEMENT = {
    "alpha-closure": "closure",
    "alpha-semi-closure": "semi-closure",
    "g-alpha-closed": "g-closed",
    "f-sigma-g-alpha-closed": "g-closed",
}

# each primal kind followed by its dual, if it has one, then the kinds of
# the alpha-refinement
CLASS_KINDS = tuple(
    k for p in _FORMULAS for k in (p, *(d for d, q in _DUALS.items() if q == p))
) + tuple(k for k, base in _OF_REFINEMENT.items() if base in _FORMULAS)


def _resolve(t: Topology, kind: str) -> tuple[Topology, str]:
    # the space a kind is computed in, and its kind there
    if kind in _OF_REFINEMENT:
        return alpha_topology(t), _OF_REFINEMENT[kind]
    return t, kind


def _check_kind(kind: str, kinds: tuple[str, ...], what: str) -> None:
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")


def hull_table(t: Topology, kind: str) -> list[int]:
    """The hull of every subset, indexed by its mask."""
    _check_kind(kind, HULL_KINDS, "hull")
    t, kind = _resolve(t, kind)
    return list(map(partial(_HULLS[kind], *_table_lookups(t)), range(1 << t.n)))


@lru_cache(maxsize=None)
def set_class(t: Topology, kind: str) -> tuple[int, ...]:
    """All subsets of the space in one class, in ascending mask order."""
    _check_kind(kind, CLASS_KINDS, "class")
    if kind in _OF_REFINEMENT:
        return set_class(*_resolve(t, kind))
    if kind in _DUALS:
        # complementing reverses the ascending order of the partner's members
        full = full_set(t.n)
        return tuple([full ^ a for a in reversed(set_class(t, _DUALS[kind]))])
    if kind == "open":
        return t.opens
    return tuple(filter(partial(_FORMULAS[kind], *_table_lookups(t)), range(1 << t.n)))
