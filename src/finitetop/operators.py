"""Closure-type operators and set-class predicates.

Each class tag has exactly one defining formula, evaluated literally against
the space.  Classes of the alpha-refinement are always computed by first
materializing the refined topology, never by rewriting formulas in terms of
the base space.  The refinement itself is materialized from Njåstad's
description of alpha-open sets (U minus a nowhere dense set, U open) as a
minimal-neighborhood table, while the "alpha-open" class still scans the
formula a ⊆ int(cl(int a)); checking one against the other stays a genuine
two-sided check instead of a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .spaces import Topology, complement, from_preorder, full_set, iter_points

CLASS_KINDS = (
    "open",
    "closed",
    "semi-open",
    "semi-closed",
    "regular-open",
    "regular-closed",
    "alpha-open",
    "alpha-closed",
    "preopen",
    "beta-open",
    "nowhere-dense",
    "dense",
    "codense",
    "clopen",
    "g-closed",
    "g-open",
    "sg-closed",
    "sg-open",
    "g-alpha-closed",
    "f-sigma-g-alpha-closed",
)

HULL_KINDS = (
    "closure",
    "interior",
    "semi-closure",
    "alpha-closure",
    "alpha-semi-closure",
    "semi-interior",
)


@dataclass(frozen=True)
class SetClass:
    """A tagged, canonically ordered family of subsets of one space."""

    kind: str
    n: int
    members: tuple[int, ...]

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, a: int) -> bool:
        return a in self.member_set

    def to_lists(self) -> list[list[int]]:
        return [sorted(iter_points(m)) for m in self.members]


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


def _is_alpha_open(t: Topology, a: int) -> bool:
    return a & ~t.interior(t.closure(t.interior(a))) == 0


def hull(t: Topology, a: int, kind: str) -> int:
    """Closure-type hull of a subset.

    closure/interior are the usual operators; semi-closure is the
    intersection of all semi-closed supersets (well defined because
    semi-closed sets are intersection-closed); the alpha variants are the
    same operators computed in the materialized alpha-refinement;
    semi-interior is the complement dual of semi-closure.
    """
    if kind == "closure":
        return t.closure(a)
    if kind == "interior":
        return t.interior(a)
    if kind == "semi-closure":
        return _semi_closure(t, a)
    if kind == "alpha-closure":
        return alpha_topology(t).closure(a)
    if kind == "alpha-semi-closure":
        return _semi_closure(alpha_topology(t), a)
    if kind == "semi-interior":
        return complement(_semi_closure(t, complement(a, t.n)), t.n)
    raise ValueError(f"unknown hull kind {kind!r}")


def _semi_closure(t: Topology, a: int) -> int:
    # a ∪ int(cl a) is semi-closed, since int(cl) of it is int(cl a) again,
    # and every semi-closed c ⊇ a holds int(cl c) ⊇ int(cl a)
    return a | t.interior(t.closure(a))


def is_in_class(t: Topology, a: int, kind: str) -> bool:
    """Evaluate the defining formula of one set class."""
    n = t.n
    if kind == "open":
        return t.is_open(a)
    if kind == "closed":
        return t.is_closed(a)
    if kind == "semi-open":
        return a & ~t.closure(t.interior(a)) == 0
    if kind == "semi-closed":
        return is_in_class(t, complement(a, n), "semi-open")
    if kind == "regular-open":
        return a == t.interior(t.closure(a))
    if kind == "regular-closed":
        return a == t.closure(t.interior(a))
    if kind == "alpha-open":
        return _is_alpha_open(t, a)
    if kind == "alpha-closed":
        return _is_alpha_open(t, complement(a, n))
    if kind == "preopen":
        return a & ~t.interior(t.closure(a)) == 0
    if kind == "beta-open":
        return a & ~t.closure(t.interior(t.closure(a))) == 0
    if kind == "nowhere-dense":
        return t.interior(t.closure(a)) == 0
    if kind == "dense":
        return t.closure(a) == full_set(n)
    if kind == "codense":
        return t.interior(a) == 0
    if kind == "clopen":
        return t.is_open(a) and t.is_closed(a)
    if kind == "g-closed":
        # the open hull is the least open superset, so it stands for them all
        return t.closure(a) & ~t.open_hull(a) == 0
    if kind == "g-open":
        return is_in_class(t, complement(a, n), "g-closed")
    if kind == "sg-closed":
        # containment form: every semi-open superset absorbs the semi-closure
        scl = _semi_closure(t, a)
        return all(scl & ~u == 0 for u in set_class(t, "semi-open").members if a & ~u == 0)
    if kind == "sg-open":
        return is_in_class(t, complement(a, n), "sg-closed")
    if kind == "g-alpha-closed":
        ta = alpha_topology(t)
        return ta.closure(a) & ~ta.open_hull(a) == 0
    if kind == "f-sigma-g-alpha-closed":
        # finite unions exhaust countable ones here, so a qualifies iff the
        # g-alpha-closed subsets of a already cover it pointwise
        covered = 0
        for c in set_class(t, "g-alpha-closed").members:
            if c & ~a == 0:
                covered |= c
        return a & ~covered == 0
    raise ValueError(f"unknown class kind {kind!r}")


@lru_cache(maxsize=None)
def set_class(t: Topology, kind: str) -> SetClass:
    """All subsets of the space satisfying one class formula, in canonical order."""
    if kind not in CLASS_KINDS:
        raise ValueError(f"unknown class kind {kind!r}")
    if kind == "open":
        members = t.opens
    elif kind == "closed":
        # complementing reverses the ascending order of the opens
        members = tuple(complement(u, t.n) for u in reversed(t.opens))
    else:
        members = tuple(a for a in range(1 << t.n) if is_in_class(t, a, kind))
    return SetClass(kind, t.n, members)


def closed_sets(t: Topology) -> SetClass:
    """Exactly the complements of the open sets."""
    return set_class(t, "closed")
