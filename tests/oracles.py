"""Definitional oracles for finitetop, and the reductions they judge.

Production decides its three refinement properties by scanning one
minimal-neighbourhood table (finitetop.covers.check_property).  The
general cover and constraint reduction behind that scan lives here
(SetFamily, canonical_cover, has_refinement, every_cover_has_refinement):
one minimal cover stands in for every cover of a point-intersection-closed
class, the structural side conditions hold for every finite family, and a
refinement exists iff the union of the fitting class members covers.  The
exhaustive oracles use none of those reductions.  They search every
irredundant cover and every candidate subfamily outright, and decide the
sigma variants of the structural predicates by set-partition search, so
agreement with the reduction and with production is evidence for the
reductions rather than a restatement of them.  The topology count by filtering every subset family lives here too,
and so does the backtracking homeomorphism search (find_homeomorphism,
is_homeomorphic) that judges the census's least-table key.  The reference
labeled census (backtracked_preorders) places one up-set row at a time,
checking transitivity row against row; production relabels the classes of
its one-point-extension census instead.  The reference homeomorphism
census (sweep_homeo_census) builds every labeled space of that reference
and keeps the first of each cell-layout form, a key computed another way
than production's least table over all bijections.

The open sets by depth-first search (upward_closed_sets_dfs) decide one
point at a time, in or out, and judge production's doubling over classes
of equivalent points.

The per-mask class formulas (CLASS_FORMULAS, is_in_class_per_mask) ask the
space's own closure and interior, and open_hull here, about one mask at a
time.  Production states each formula once over closure, interior and
open-hull lookups and scans whole classes on tables; these judge those
scans.  The single-mask form of production's own formulas (hull,
is_in_class) passes them adapters whose ``[]`` calls those functions, so a
scan's table and a function call answer one formula each.  The census up to
homeomorphism as a cached tuple (homeo_census) and the range-checked
minimal_nbhd lookup serve the tests alone, so they live here too.

A census record's JSON object (record_to_obj) is the reference for the
census file codec: write_census formats each line from cached texts, and
each line must equal json.dumps of this object.

The image law by enumeration (fm1_report_by_enumeration) builds and checks
every surjection between every ordered pair of a pool, map by map.
Production counts the maps of a pair of equal size instead: out of an
alpha-subparacompact, hence nodec, domain they are its homeomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Optional, Sequence

from finitetop import Topology, alpha_topology, set_class
from finitetop.census import CensusRecord, enumerate_topologies, space_id
from finitetop.maps import enumerate_maps, verify_fm1
from finitetop.operators import (
    CLASS_KINDS,
    HULL_KINDS,
    _DUALS,
    _FORMULAS,
    _HULLS,
    _check_kind,
    _resolve,
)
from finitetop.spaces import (
    _down_sets,
    check_fits,
    complement,
    from_preorder,
    full_set,
    iter_points,
)
from finitetop.verifier import Report

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

FAMILY_PREDICATES = (
    "discrete",
    "sigma-discrete",
    "locally-finite",
    "locally-countable",
    "closure-preserving",
    "sigma-closure-preserving",
)

# constraint tag -> structural predicates its refinements must satisfy
CONSTRAINT_PREDICATES = {
    "closed+sigma-discrete": ("sigma-discrete",),
    "open+locally-finite": ("locally-finite",),
    "closed+sigma-closure-preserving": ("sigma-closure-preserving",),
    "semi-open+locally-finite+dense-union": ("locally-finite",),
    "regular-closed+locally-finite": ("locally-finite",),
    "regular-closed+locally-countable": ("locally-countable",),
}


def refines(f: SetFamily, g: SetFamily) -> bool:
    """True iff every member of f lies inside some member of g."""
    if f.n != g.n:
        raise ValueError("families live on different point counts")
    return all(any(a & ~b == 0 for b in g.members) for a in f.members)


# --- structural predicates ---------------------------------------------------

def family_predicate(t: Topology, f: SetFamily, pred: str) -> bool:
    """The finite-space collapse of each structural family predicate.

    discrete is computed outright; the remaining predicates collapse on
    finite families (closure is finitely additive, singleton partitions
    witness the sigma variants, and every neighborhood meets only finitely
    many members) and return True by those theorems.
    """
    if t.n != f.n:
        raise ValueError("family and space have different point counts")
    if pred == "discrete":
        # the minimal neighborhood meets the fewest members of any
        # neighborhood of x, so it is the optimal witness
        return all(
            sum(1 for m in f.members if m & t.min_nbhd[x]) <= 1 for x in range(t.n)
        )
    if pred in FAMILY_PREDICATES:
        return True
    raise ValueError(f"unknown family predicate {pred!r}")


def family_predicate_generic(t: Topology, f: SetFamily, pred: str) -> bool:
    """Definitional search forms of the structural predicates.

    The sigma variants run a genuine set-partition search, and the local
    predicates quantify over all open neighborhoods.
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
    if not f.members:
        return True
    return any(
        all(
            family_predicate_generic(
                t, SetFamily(f.n, tuple(f.members[i] for i in block)), part_pred
            )
            for block in blocks
        )
        for blocks in _set_partitions(len(f.members))
    )


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


# --- the cover and constraint reduction -------------------------------------

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


# --- exhaustive refinement search --------------------------------------------

def has_refinement_exhaustive(
    t: Topology, cover: SetFamily, constraint: str, want_witness: bool = False
):
    """has_refinement by search over candidate subfamilies,
    with the structural predicates in their definitional forms."""
    class_kind, dense = CONSTRAINTS[constraint]
    preds = CONSTRAINT_PREDICATES[constraint]
    candidates = tuple(
        c
        for c in set_class(t, class_kind)
        if c != 0 and any(c & ~u == 0 for u in cover.members)
    )
    ok, witness = _refine_exhaustive(t, candidates, preds, dense)
    if want_witness:
        return ok, witness
    return ok


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


def every_cover_has_refinement_exhaustive(
    t: Topology, cover_kind: str, constraint: str
) -> bool:
    """every_cover_has_refinement over every irredundant cover."""
    return all(
        has_refinement_exhaustive(t, cover, constraint)
        for cover in irredundant_covers(t, cover_kind)
    )


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


# --- census and homeomorphism ------------------------------------------------

def upward_closed_sets_dfs(n: int, nbhd: tuple[int, ...]) -> tuple[int, ...]:
    """Every up-set of a transitive table, ascending, by depth-first search.

    Decide the lowest undecided point x: either x is out, and with it every
    point whose neighborhood holds x, or x is in, and with it nbhd[x].  The
    points left undecided are unconstrained by the decided ones, so every
    leaf is one open set.
    """
    below = _down_sets(nbhd)
    out = []
    stack = [(full_set(n), 0)]
    while stack:
        undecided, chosen = stack.pop()
        if not undecided:
            out.append(chosen)
            continue
        x = (undecided & -undecided).bit_length() - 1
        stack.append((undecided & ~below[x], chosen))
        stack.append((undecided & ~nbhd[x], chosen | nbhd[x]))
    out.sort()
    return tuple(out)


def backtracked_preorders(n: int) -> Iterator[tuple[int, ...]]:
    """Every reflexive transitive relation on n points, lexicographic order.

    A relation is its tuple of up-set rows: row x is the mask of points y
    with x <= y, the table that from_preorder takes.  Row i lies inside
    every placed row that holds i, so it runs over the ascending submasks
    of their meet that hold i, and it is kept when it holds the row of
    each placed point in it.
    """
    rows: list[int] = []
    full = full_set(n)

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(rows)
            return
        bit = 1 << i
        meet = full & ~bit
        for rj in rows:
            if rj & bit:
                meet &= rj
        s = 0
        while True:
            r = s | bit
            for j in iter_points(r & (bit - 1)):
                if rows[j] & ~r:
                    break
            else:
                rows.append(r)
                yield from rec(i + 1)
                rows.pop()
            if s == meet:
                return
            s = (s - meet) & meet

    return rec(0)


def count_topologies_direct(n: int) -> int:
    """Filter every subset family for closure under union/intersection.
    Doubly exponential; meant for n <= 4."""
    full = full_set(n)
    proper = list(range(1, full))
    count = 0
    for r in range(len(proper) + 1):
        for chosen in combinations(proper, r):
            fam = set(chosen)
            fam.add(0)
            fam.add(full)
            if all((a | b) in fam and (a & b) in fam for a in fam for b in fam):
                count += 1
    return count


@lru_cache(maxsize=None)
def homeo_census(n: int) -> tuple[Topology, ...]:
    """Production's census up to homeomorphism, built once per n."""
    return tuple(enumerate_topologies(n, up_to_homeo=True))


def sweep_homeo_census(n: int) -> tuple[Topology, ...]:
    """The first space of each homeomorphism class in the labeled order,
    by sweeping every labeled space."""
    return tuple(_first_of_each_form(from_preorder(r) for r in backtracked_preorders(n)))


def _first_of_each_form(stream: Iterable[Topology]) -> Iterator[Topology]:
    seen: set[tuple[int, ...]] = set()
    for t in stream:
        form = canonical_form(t)
        if form not in seen:
            seen.add(form)
            yield t


def canonical_form(t: Topology) -> tuple[int, ...]:
    """The least relabelled min_nbhd table among the cell-respecting relabellings.

    Points are grouped into cells by their (up-set size, down-set size) pair
    and the cells are laid out in the order of that pair; every relabelling
    that permutes points within their cells is tried.  A homeomorphism keeps
    both sizes, so homeomorphic spaces reach the same set of tables, and two
    spaces with the same form are homeomorphic to it: the form is a complete
    key, but not in general the least table over all bijections.
    """
    nbhd = t.min_nbhd
    cells: dict[tuple[int, int], list[int]] = {}
    for x, (up, down) in enumerate(zip(nbhd, _down_sets(nbhd))):
        cells.setdefault((up.bit_count(), down.bit_count()), []).append(x)
    return min(
        relabelled(nbhd, [x for block in blocks for x in block])
        for blocks in product(*(permutations(cells[key]) for key in sorted(cells)))
    )


def least_relabelling(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The least table over all n! relabellings, every one built."""
    return min(relabelled(rows, order) for order in permutations(range(len(rows))))


def relabelled(rows: tuple[int, ...], order: Sequence[int]) -> tuple[int, ...]:
    """The table with point order[i] moved to position i."""
    image = [0] * len(rows)
    for position, x in enumerate(order):
        image[x] = position
    return tuple(sum(1 << image[y] for y in iter_points(rows[x])) for x in order)


def find_homeomorphism(t1: Topology, t2: Topology) -> Optional[tuple[int, ...]]:
    """A point bijection carrying opens onto opens, or None.

    Backtracking over the specialization preorders, pruned by the per-point
    (up-set, down-set) size signatures.
    """
    if t1.n != t2.n:
        raise ValueError("spaces must have the same number of points")
    n = t1.n
    up1, up2 = t1.min_nbhd, t2.min_nbhd
    sig1, sig2 = _point_signatures(t1), _point_signatures(t2)
    if sorted(sig1) != sorted(sig2):
        return None

    image = [-1] * n
    used = 0

    def extend(x: int) -> bool:
        nonlocal used
        if x == n:
            return True
        for y in range(n):
            if used >> y & 1 or sig1[x] != sig2[y]:
                continue
            ok = True
            for a in range(x):
                b = image[a]
                if (up1[a] >> x & 1) != (up2[b] >> y & 1) or (
                    up1[x] >> a & 1
                ) != (up2[y] >> b & 1):
                    ok = False
                    break
            if ok:
                image[x] = y
                used |= 1 << y
                if extend(x + 1):
                    return True
                used &= ~(1 << y)
        return False

    if not extend(0):
        return None
    fn = tuple(image)
    # preorder isomorphisms are exactly the homeomorphisms; keep the
    # opens-onto-opens contract checked anyway
    mapped = {sum(1 << fn[p] for p in iter_points(u)) for u in t1.opens}
    if mapped != set(t2.opens):
        raise RuntimeError("homeomorphism witness failed the open-set check")
    return fn


def _point_signatures(t: Topology) -> list[tuple[int, int]]:
    # (up-set size, down-set size) per point, read off the table directly
    nbhd = t.min_nbhd
    return [
        (up.bit_count(), sum(row >> x & 1 for row in nbhd))
        for x, up in enumerate(nbhd)
    ]


def is_homeomorphic(t1: Topology, t2: Topology) -> bool:
    return find_homeomorphism(t1, t2) is not None


# --- per-mask class formulas -----------------------------------------------

def minimal_nbhd(t: Topology, x: int) -> int:
    """Smallest open set containing point x."""
    if not 0 <= x < t.n:
        raise ValueError(f"point {x} out of range for an {t.n}-point space")
    return t.min_nbhd[x]


def open_hull(t: Topology, a: int) -> int:
    """Smallest open superset of a (unions of minimal neighborhoods);
    points outside the space are ignored."""
    a &= full_set(t.n)
    m = a
    for x in iter_points(a):
        m |= t.min_nbhd[x]
    return m


def _is_g_closed(t: Topology, a: int) -> bool:
    return t.closure(a) & ~open_hull(t, a) == 0


def _is_sg_closed(t: Topology, a: int) -> bool:
    return all(
        a & t.interior(t.closure(1 << y))
        for y in iter_points(t.interior(t.closure(a)) & ~a)
    )


CLASS_FORMULAS = {
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
    "g-alpha-closed": lambda t, a: _is_g_closed(alpha_topology(t), a),
    "f-sigma-g-alpha-closed": lambda t, a: _is_g_closed(alpha_topology(t), a),
}

# dual kind -> kind whose formula holds on the complement
CLASS_DUALS = {
    "closed": "open",
    "semi-closed": "semi-open",
    "regular-closed": "regular-open",
    "alpha-closed": "alpha-open",
    "codense": "dense",
    "g-open": "g-closed",
    "sg-open": "sg-closed",
}


def is_in_class_per_mask(t: Topology, a: int, kind: str) -> bool:
    """The class formula of one mask, through the space's methods."""
    if kind in CLASS_DUALS:
        kind, a = CLASS_DUALS[kind], complement(a, t.n)
    return CLASS_FORMULAS[kind](t, a)


def class_scan_per_mask(t: Topology, kind: str) -> tuple[int, ...]:
    """Every mask whose per-mask formula holds, ascending."""
    return tuple(a for a in range(1 << t.n) if is_in_class_per_mask(t, a, kind))


# --- production's formulas, one mask at a time --------------------------------

class _MethodLookup:
    # indexing calls a function of one mask, so a formula written over tables
    # answers one mask
    __slots__ = ("method",)

    def __init__(self, method):
        self.method = method

    def __getitem__(self, a: int) -> int:
        return self.method(a)


def _method_lookups(t: Topology) -> tuple:
    return (
        _MethodLookup(t.closure),
        _MethodLookup(t.interior),
        _MethodLookup(partial(open_hull, t)),
        full_set(t.n),
    )


def hull(t: Topology, a: int, kind: str) -> int:
    """Closure-type hull of a subset, by production's formula."""
    _check_kind(kind, HULL_KINDS, "hull")
    check_fits(a, t.n)
    t, kind = _resolve(t, kind)
    return _HULLS[kind](*_method_lookups(t), a)


def is_in_class(t: Topology, a: int, kind: str) -> bool:
    """Production's defining formula of one set class, on one mask."""
    _check_kind(kind, CLASS_KINDS, "class")
    check_fits(a, t.n)
    t, kind = _resolve(t, kind)
    if kind in _DUALS:
        kind, a = _DUALS[kind], complement(a, t.n)
    return _FORMULAS[kind](*_method_lookups(t), a)


# --- census records -----------------------------------------------------------

def record_to_obj(rec: CensusRecord) -> dict:
    """The JSON object of one census record, fields in file order."""
    return {
        "id": rec.id,
        "n": rec.n,
        "opens": [list(iter_points(u)) for u in rec.space.opens],
        "profile": rec.profile.to_obj(),
    }


# --- the image law ----------------------------------------------------------

def fm1_report_by_enumeration(pool: Sequence[Topology]) -> Report:
    """The thm-fm1 report of checking every surjection of every ordered pair."""
    checked = 0
    vacuous = 0
    violations: list[tuple[str, str]] = []
    for dom in pool:
        for cod in pool:
            for f in enumerate_maps(dom, cod, surjective_only=True):
                checked += 1
                verdict = verify_fm1(f)
                if verdict == "not-applicable":
                    vacuous += 1
                elif verdict == "VIOLATION":
                    violations.append(
                        (
                            space_id(dom),
                            f"map {list(f.fn)} onto {space_id(cod)} breaks the image law",
                        )
                    )
    return Report("thm-fm1", checked, tuple(violations), vacuous)
