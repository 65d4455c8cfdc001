"""Covering and separation properties of finite spaces.

Two finite-space reductions decide the three refinement properties: the
minimal neighbourhoods of T (or of T^α) form an open (alpha-open) cover
that refines every other, and every finite family is sigma-discrete,
locally finite and sigma-closure-preserving.  So a closed (open)
refinement exists iff the closed (open) sets that fit inside some
neighbourhood cover the space, and ``check_property`` scans one table.
The general cover and constraint reduction, and the exhaustive search
that judges it and the constants below, live in tests/oracles.py.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .spaces import Topology, full_set
from .operators import alpha_topology, set_class

PROPERTY_TAGS = (
    "compact",
    "semi-compact",
    "s-closed-lower",
    "s-closed-upper",
    "sg-compact",
    "rc-lindelof",
    "para-rc-lindelof",
    "para-s-closed",
    "locally-s-closed-upper",
    "locally-s-closed-lower",
    "subparacompact",
    "alpha-subparacompact",
    "alpha-paracompact",
    "extremally-disconnected",
    "hausdorff",
    "normal",
    "nodec",
    "alpha-compact",
)

FINITE_SPACE_REASONS = {
    "compact": "every cover of a finite space is finite and is its own subcover",
    "semi-compact": "every semi-open cover of a finite space is its own finite subcover",
    "s-closed-lower": "the whole (finite) semi-open cover works; semi-closures only grow members",
    "s-closed-upper": "the whole (finite) semi-open cover works; closures only grow members",
    "sg-compact": "every sg-open cover of a finite space is its own finite subcover",
    "rc-lindelof": "every family on a finite space is countable",
    "para-rc-lindelof": "a regular-closed cover is its own locally countable refinement",
    "para-s-closed": "a semi-open cover is its own locally finite refinement with dense union",
    "locally-s-closed-upper": "the whole space is a neighborhood of each point and the relative property collapses on finite spaces",
    "locally-s-closed-lower": "the whole space is a neighborhood of each point and the relative property collapses on finite spaces",
    "alpha-compact": "the alpha-refinement is again a finite space, so it is compact",
}

# Verdicts inside the law suites and searches that a finite-space theorem
# fixes, each True on every finite space for the reason beside it.
# thm-2.2 (b)/(c): a regular-closed cover is its own locally finite refinement
REGULAR_CLOSED_REFINABLE = True
# thm-final: the minimal open cover is a finite open refinement of every open cover
PARACOMPACT = True
# lemma-lfm1: a finite family is the union of its one-member subfamilies, each discrete
SIGMA_DISCRETE = True
# lemma-lfm1: a finite family is closure-preserving, closure being finitely additive
SIGMA_CLOSURE_PRESERVING = True
# question 2: T^α is subparacompact iff T is alpha-subparacompact, because
# either side makes T nodec (T^α = T), and then both scan one table
QUESTION2_EQUIVALENCE = True


def property_reason(prop: str) -> Optional[str]:
    """Reason code when a property is a finite-space theorem, else None."""
    return FINITE_SPACE_REASONS.get(prop)


def _table_refined_by(t: Topology, table: tuple[int, ...], kind: str) -> bool:
    """Do the members of t's kind class inside some row of table cover t?"""
    rows = sorted(set(table))
    reach = 0
    for c in set_class(t, kind):
        if any(c & ~u == 0 for u in rows):
            reach |= c
    return reach == full_set(t.n)


@lru_cache(maxsize=None)
def check_property(t: Topology, prop: str) -> bool:
    """Evaluate one covering/separation property of the space.

    Finite-subcover and countable-subcover properties are identically true
    on finite spaces (see FINITE_SPACE_REASONS); they are still exposed so
    the shared-property equivalences stay executable as stated.  Every open
    (alpha-open) cover is refined by the minimal neighbourhoods of T (T^α),
    so subparacompactness, alpha-subparacompactness and alpha-paracompactness
    each scan one of those tables for the closed or open sets inside a row.
    """
    if prop not in PROPERTY_TAGS:
        raise ValueError(f"unknown property {prop!r}")
    if prop == "alpha-compact":
        return check_property(alpha_topology(t), "compact")
    if prop in FINITE_SPACE_REASONS:
        return True
    if prop == "subparacompact":
        return _table_refined_by(t, t.min_nbhd, "closed")
    if prop == "alpha-subparacompact":
        return _table_refined_by(t, alpha_topology(t).min_nbhd, "closed")
    if prop == "alpha-paracompact":
        return _table_refined_by(t, alpha_topology(t).min_nbhd, "open")
    if prop == "extremally-disconnected":
        # closure is finitely additive, so the closures of the minimal
        # neighborhoods decide it for every open set
        return all(t.is_open(t.closure(u)) for u in t.min_nbhd)
    if prop == "hausdorff":
        return all(
            t.min_nbhd[x] & t.min_nbhd[y] == 0
            for x in range(t.n)
            for y in range(x + 1, t.n)
        )
    if prop == "normal":
        # the open hull of a closed set is the union of the minimal
        # neighborhoods of its points, and points of disjoint closed sets
        # have disjoint closures, so pairs of points decide it
        closures = t.point_closures
        return all(
            t.min_nbhd[x] & t.min_nbhd[y] == 0
            for x in range(t.n)
            for y in range(x + 1, t.n)
            if closures[x] & closures[y] == 0
        )
    if prop == "nodec":
        return alpha_topology(t) == t
    raise AssertionError(f"unhandled property {prop!r}")
