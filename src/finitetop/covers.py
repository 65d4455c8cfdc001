"""Cover predicates, refinement search, and covering-property checkers.

The refinement search leans on three finite-space reductions:

* the minimal-neighborhood cover of a point-intersection-closed class
  (open or alpha-open) refines every cover drawn from that class, so one
  cover stands in for all of them;
* every finite family is sigma-discrete (partition into singletons),
  locally finite, locally countable, and sigma-closure-preserving, so those
  side conditions never constrain the search;
* a refinement drawn from a class exists iff the union of all class members
  that fit inside some cover member already covers (or is dense in) the
  space.

The definitional oracle, which searches irredundant covers and candidate
subfamilies outright and decides the structural predicates by set-partition
search, lives in the test suite (tests/oracles.py).  Its agreement with this
module on every 3-point space is part of the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .spaces import Topology, check_fits, full_set
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

# constraint tag -> (member class, union may be merely dense); the structural
# side conditions named in each tag hold for every finite family
CONSTRAINTS = {
    "closed+sigma-discrete": ("closed", False),
    "open+locally-finite": ("open", False),
    "closed+sigma-closure-preserving": ("closed", False),
    "semi-open+locally-finite+dense-union": ("semi-open", True),
    "regular-closed+locally-finite": ("regular-closed", False),
    "regular-closed+locally-countable": ("regular-closed", False),
}

# cover classes with a unique minimal member at every point
_POINT_MINIMAL_KINDS = ("open", "alpha-open")


@dataclass(frozen=True)
class SetFamily:
    """An ordered family of distinct subsets of one space."""

    n: int
    members: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        for m in self.members:
            check_fits(m, self.n)
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate members")

    def union(self) -> int:
        out = 0
        for m in self.members:
            out |= m
        return out

    def __len__(self) -> int:
        return len(self.members)


def covers_space(t: Topology, f: SetFamily) -> bool:
    return f.union() == full_set(t.n)


# --- canonical covers --------------------------------------------------------

def canonical_cover(t: Topology, kind: str) -> SetFamily:
    """Deduplicated family of minimal class neighborhoods, one per point.

    Only defined for classes with a unique minimal member at each point;
    the result refines every cover drawn from that class.
    """
    if kind == "open":
        nbhd = t.min_nbhd
    elif kind == "alpha-open":
        nbhd = alpha_topology(t).min_nbhd
    else:
        raise ValueError(f"no canonical cover for class {kind!r}")
    return SetFamily(t.n, tuple(sorted(set(nbhd))), label=f"minimal-{kind}-cover")


# --- refinement search -------------------------------------------------------

def has_refinement(t: Topology, cover: SetFamily, constraint: str) -> bool:
    """Does some family from the constraint class refine cover and cover X?

    For the dense-union constraint the refinement's union only needs to be
    dense.  The test is whether the union of all class members inside some
    cover member covers.
    """
    if t.n != cover.n:
        raise ValueError("cover and space have different point counts")
    if not covers_space(t, cover):
        raise ValueError("input family does not cover the space")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown refinement constraint {constraint!r}")
    class_kind, dense = CONSTRAINTS[constraint]
    reach = 0
    for c in set_class(t, class_kind):
        if any(c & ~u == 0 for u in cover.members):
            reach |= c
    full = full_set(t.n)
    return (t.closure(reach) == full) if dense else (reach == full)


def every_cover_has_refinement(t: Topology, cover_kind: str, constraint: str) -> bool:
    """Does every cover drawn from cover_kind admit a constrained refinement?"""
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown refinement constraint {constraint!r}")
    if cover_kind in _POINT_MINIMAL_KINDS:
        return has_refinement(t, canonical_cover(t, cover_kind), constraint)
    class_kind, _ = CONSTRAINTS[constraint]
    if class_kind != cover_kind:
        raise ValueError(f"no reduction for {cover_kind!r} covers with {constraint!r}")
    # every cover refines itself, stays in the class, and its union is
    # the whole space; the structural side conditions are finite-vacuous
    return True


# --- covering properties ------------------------------------------------------

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


def property_reason(prop: str) -> Optional[str]:
    """Reason code when a property is a finite-space theorem, else None."""
    return FINITE_SPACE_REASONS.get(prop)


@lru_cache(maxsize=None)
def check_property(t: Topology, prop: str) -> bool:
    """Evaluate one covering/separation property of the space.

    Finite-subcover and countable-subcover properties are identically true
    on finite spaces (see FINITE_SPACE_REASONS); they are still exposed so
    the shared-property equivalences stay executable as stated.
    """
    if prop not in PROPERTY_TAGS:
        raise ValueError(f"unknown property {prop!r}")
    if prop == "alpha-compact":
        return check_property(alpha_topology(t), "compact")
    if prop in FINITE_SPACE_REASONS:
        return True
    if prop == "subparacompact":
        return every_cover_has_refinement(t, "open", "closed+sigma-discrete")
    if prop == "alpha-subparacompact":
        return every_cover_has_refinement(t, "alpha-open", "closed+sigma-discrete")
    if prop == "alpha-paracompact":
        return every_cover_has_refinement(t, "alpha-open", "open+locally-finite")
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
