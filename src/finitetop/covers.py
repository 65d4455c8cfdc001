"""Cover predicates, refinement search, and covering-property checkers.

Two evaluation modes run through this module.  The production "simplified"
mode leans on three finite-space reductions:

* the minimal-neighborhood cover of a point-intersection-closed class
  (open or alpha-open) refines every cover drawn from that class, so one
  cover stands in for all of them;
* every finite family is sigma-discrete (partition into singletons),
  locally finite, locally countable, and sigma-closure-preserving, so those
  side conditions never constrain the search;
* a refinement drawn from a class exists iff the union of all class members
  that fit inside some cover member already covers (or is dense in) the
  space.

The "exhaustive" mode ignores all three reductions and searches irredundant
covers and candidate subfamilies outright, with the structural predicates
evaluated by definitional search (set-partition search for the sigma
variants).  Agreement of the two modes on every 3-point space is part of
the acceptance suite; only then is the simplified mode trusted at larger n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .spaces import Topology, check_fits, full_set, iter_points
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

FAMILY_PREDICATES = (
    "discrete",
    "sigma-discrete",
    "locally-finite",
    "locally-countable",
    "closure-preserving",
    "sigma-closure-preserving",
)

# constraint tag -> (member class, structural predicates, union may be merely dense)
CONSTRAINTS = {
    "closed+sigma-discrete": ("closed", ("sigma-discrete",), False),
    "open+locally-finite": ("open", ("locally-finite",), False),
    "closed+sigma-closure-preserving": ("closed", ("sigma-closure-preserving",), False),
    "semi-open+locally-finite+dense-union": ("semi-open", ("locally-finite",), True),
    "regular-closed+locally-finite": ("regular-closed", ("locally-finite",), False),
    "regular-closed+locally-countable": ("regular-closed", ("locally-countable",), False),
}

# cover classes with a unique minimal member at every point
_POINT_MINIMAL_KINDS = ("open", "alpha-open")


@dataclass(frozen=True)
class SetFamily:
    """An ordered family of subsets of one space."""

    n: int
    members: tuple[int, ...]
    label: str = ""
    duplicates_ok: bool = False

    def __post_init__(self):
        for m in self.members:
            check_fits(m, self.n)
        if not self.duplicates_ok and len(set(self.members)) != len(self.members):
            raise ValueError("duplicate members (pass duplicates_ok=True to allow)")

    def union(self) -> int:
        out = 0
        for m in self.members:
            out |= m
        return out

    def __len__(self) -> int:
        return len(self.members)


def refines(f: SetFamily, g: SetFamily) -> bool:
    """True iff every member of f lies inside some member of g."""
    if f.n != g.n:
        raise ValueError("families live on different point counts")
    return all(any(a & ~b == 0 for b in g.members) for a in f.members)


def covers_space(t: Topology, f: SetFamily) -> bool:
    return f.union() == full_set(t.n)


# --- structural predicates ---------------------------------------------------

def family_predicate(t: Topology, f: SetFamily, pred: str) -> bool:
    """Production evaluation of a structural family predicate.

    discrete is computed outright; the remaining predicates collapse on
    finite families (closure is finitely additive, singleton partitions
    witness the sigma variants, and every neighborhood meets only finitely
    many members) and return True by those documented theorems.  The
    definitional search forms live in family_predicate_generic and are
    cross-checked against these collapses by the test suite.
    """
    if t.n != f.n:
        raise ValueError("family and space have different point counts")
    if pred == "discrete":
        # the minimal neighborhood meets the fewest members of any
        # neighborhood of x, so it is the optimal witness
        return all(
            sum(1 for m in f.members if m & t.min_nbhd[x]) <= 1 for x in range(t.n)
        )
    if pred == "sigma-discrete":
        return True  # singleton partition of a finite family
    if pred in ("locally-finite", "locally-countable"):
        return True  # any neighborhood meets at most len(f) members
    if pred == "closure-preserving":
        return True  # closure is finitely additive
    if pred == "sigma-closure-preserving":
        return True  # singleton partition; one-member families preserve closures
    raise ValueError(f"unknown family predicate {pred!r}")


def _closure_preserving_exact(t: Topology, members: tuple[int, ...]) -> bool:
    closures = [t.closure(m) for m in members]
    k = len(members)
    for pick in range(1 << k):
        union = 0
        cl_union = 0
        for i in range(k):
            if pick >> i & 1:
                union |= members[i]
                cl_union |= closures[i]
        if t.closure(union) != cl_union:
            return False
    return True


def family_predicate_generic(t: Topology, f: SetFamily, pred: str) -> bool:
    """Definitional search forms of the structural predicates.

    Used by the exhaustive refinement mode and as the oracle side of the
    collapse theorems: the sigma variants run a genuine set-partition
    search, and the local predicates quantify over all open neighborhoods.
    """
    if t.n != f.n:
        raise ValueError("family and space have different point counts")
    if pred == "discrete":
        return all(
            any(
                u >> x & 1 and sum(1 for m in f.members if m & u) <= 1
                for u in t.opens
            )
            for x in range(t.n)
        )
    if pred == "sigma-discrete":
        return _partition_search(t, f, "discrete")
    if pred in ("locally-finite", "locally-countable"):
        # a neighborhood meets at most len(f) members, which is finite;
        # the quantifier over neighborhoods still has to be nonempty
        return all(any(u >> x & 1 for u in t.opens) for x in range(t.n))
    if pred == "closure-preserving":
        return _closure_preserving_exact(t, f.members)
    if pred == "sigma-closure-preserving":
        return _partition_search(t, f, "closure-preserving")
    raise ValueError(f"unknown family predicate {pred!r}")


def _partition_search(t: Topology, f: SetFamily, part_pred: str) -> bool:
    k = len(f.members)
    if k == 0:
        return True
    for blocks in _set_partitions(k):
        if all(
            family_predicate_generic(
                t,
                SetFamily(f.n, tuple(f.members[i] for i in block), duplicates_ok=True),
                part_pred,
            )
            for block in blocks
        ):
            return True
    return False


def _set_partitions(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of range(k) into nonempty blocks, deterministic order.

    Finer partitions come first (the all-singletons partition is emitted
    before any merged one), which keeps the sigma-predicate searches cheap
    on families where fine partitions succeed.
    """
    if k == 0:
        yield ()
        return

    def rec(i: int, blocks: list[list[int]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == k:
            yield tuple(tuple(b) for b in blocks)
            return
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()

    yield from rec(1, [[0]])


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


def canonical_alpha_cover(t: Topology) -> SetFamily:
    """Minimal alpha-open neighborhoods; refines every alpha-open cover."""
    return canonical_cover(t, "alpha-open")


# --- refinement search -------------------------------------------------------

def has_refinement(
    t: Topology,
    cover: SetFamily,
    constraint: str,
    mode: str = "simplified",
    want_witness: bool = False,
):
    """Does some family from the constraint class refine cover and cover X?

    For the dense-union constraint the refinement's union only needs to be
    dense.  The simplified mode tests whether the union of all candidate
    class members covers; the exhaustive mode searches candidate subfamilies
    outright with the definitional structural predicates.
    """
    if t.n != cover.n:
        raise ValueError("cover and space have different point counts")
    if not covers_space(t, cover):
        raise ValueError("input family does not cover the space")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown refinement constraint {constraint!r}")
    class_kind, preds, dense = CONSTRAINTS[constraint]
    candidates = tuple(
        c
        for c in set_class(t, class_kind)
        if c != 0 and any(c & ~u == 0 for u in cover.members)
    )
    if mode == "simplified":
        ok, witness = _refine_simplified(t, candidates, dense)
    elif mode == "exhaustive":
        ok, witness = _refine_exhaustive(t, candidates, preds, dense)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if want_witness:
        return ok, witness
    return ok


def _refine_simplified(t, candidates, dense):
    reach = 0
    for c in candidates:
        reach |= c
    full = full_set(t.n)
    ok = (t.closure(reach) == full) if dense else (reach == full)
    if not ok:
        return False, None
    picked: list[int] = []
    have = 0
    for x in iter_points(reach):
        if have >> x & 1:
            continue
        for c in candidates:
            if c >> x & 1:
                if c not in picked:
                    picked.append(c)
                have |= c
                break
    return True, SetFamily(t.n, tuple(picked), label="refinement-witness")


def _refine_exhaustive(t, candidates, preds, dense):
    full = full_set(t.n)
    k = len(candidates)
    for pick in range(1, 1 << k):
        members = tuple(candidates[i] for i in range(k) if pick >> i & 1)
        union = 0
        for m in members:
            union |= m
        if (t.closure(union) if dense else union) != full:
            continue
        fam = SetFamily(t.n, members, label="refinement-witness")
        if all(family_predicate_generic(t, fam, p) for p in preds):
            return True, fam
    return False, None


def irredundant_covers(t: Topology, kind: str) -> Iterator[SetFamily]:
    """All covers by nonempty class members with no member inside the others' union."""
    members = [m for m in set_class(t, kind) if m != 0]
    full = full_set(t.n)
    k = len(members)
    for pick in range(1, 1 << k):
        chosen = [members[i] for i in range(k) if pick >> i & 1]
        union = 0
        for m in chosen:
            union |= m
        if union != full:
            continue
        if any(m & ~_union_without(chosen, i) == 0 for i, m in enumerate(chosen)):
            continue
        yield SetFamily(t.n, tuple(chosen), label=f"{kind}-cover")


def _union_without(chosen: list[int], skip: int) -> int:
    out = 0
    for i, m in enumerate(chosen):
        if i != skip:
            out |= m
    return out


def every_cover_has_refinement(
    t: Topology, cover_kind: str, constraint: str, mode: str = "simplified"
) -> bool:
    """Does every cover drawn from cover_kind admit a constrained refinement?"""
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown refinement constraint {constraint!r}")
    if mode == "simplified":
        if cover_kind in _POINT_MINIMAL_KINDS:
            return has_refinement(t, canonical_cover(t, cover_kind), constraint)
        class_kind, _, _ = CONSTRAINTS[constraint]
        if class_kind != cover_kind:
            raise ValueError(
                f"no simplified reduction for {cover_kind!r} covers with {constraint!r}"
            )
        # every cover refines itself, stays in the class, and its union is
        # the whole space; the structural side conditions are finite-vacuous
        return True
    if mode == "exhaustive":
        return all(
            has_refinement(t, cover, constraint, mode="exhaustive")
            for cover in irredundant_covers(t, cover_kind)
        )
    raise ValueError(f"unknown mode {mode!r}")


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
        closures = [t.closure(1 << x) for x in range(t.n)]
        return all(
            t.min_nbhd[x] & t.min_nbhd[y] == 0
            for x in range(t.n)
            for y in range(x + 1, t.n)
            if closures[x] & closures[y] == 0
        )
    if prop == "nodec":
        return alpha_topology(t) == t
    raise AssertionError(f"unhandled property {prop!r}")
