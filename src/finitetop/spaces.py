"""Finite topological spaces over bitmask point sets.

Points of a space are the integers 0..n-1 and a subset of the space is a
plain ``int`` whose bit ``i`` records membership of point ``i``.  With n
capped at 16 every subset fits in one machine word.  A space is its
minimal-neighborhood table: ``min_nbhd[x]`` is the smallest open set around
x, which is also the up-set of x in the specialization preorder
(Alexandroff's correspondence).  Every operator reduces to a few bit
operations against that table.  Two things are derived from the table on
first use and then kept: the point closures, ``point_closures[x]`` = cl{x},
the down-set of x; and the open sets, the up-sets, enumerated by doubling
over classes of equivalent points in time proportional to their number.  A
whole-class scan of at most 65536 masks builds closure, interior and
open-hull tables from the point closures and the table (see
``operators``).

A table from outside is checked (``from_preorder``, ``Topology(n, opens)``);
one that the program builds as a preorder, such as the intersection table
of a family or a relabelled census table, is taken as it is
(``_from_table``).
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional, TextIO

MAX_POINTS = 16

POINT_LABELS = "abcdefghijklmnop"


def full_set(n: int) -> int:
    """The subset containing every point of an n-point space."""
    return (1 << n) - 1


def complement(a: int, n: int) -> int:
    return full_set(n) & ~a


def iter_points(a: int) -> Iterator[int]:
    """Yield the points of a subset in increasing order."""
    while a:
        low = a & -a
        yield low.bit_length() - 1
        a ^= low


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def check_fits(a: int, n: int) -> None:
    if a < 0 or a & ~full_set(n):
        raise ValueError(f"subset {a:#x} has points outside 0..{n - 1}")


def set_text(a: int, n: int) -> str:
    """Human-readable form: ∅ for empty, X for the whole space, else {a,b}."""
    if a == 0:
        return "∅"
    if a == full_set(n):
        return "X"
    return "{" + ",".join(POINT_LABELS[p] for p in iter_points(a)) + "}"


def family_text(members: Iterable[int], n: int) -> str:
    return "{" + ",".join(set_text(m, n) for m in members) + "}"


class Topology:
    """An immutable finite topological space, identified by its table.

    ``min_nbhd[x]`` is the smallest open set containing point x; equality
    and hashing use this table alone.  ``point_closures[x]`` is the closure
    of point x, the points whose minimal neighborhood holds x.  ``opens``
    is the duplicate-free tuple of open sets in canonical order (ascending
    bitmask value).  Both are derived from the table on first use and
    cached.  Values can be shared freely across workers.

    ``Topology(n, opens)`` validates an open family read from outside;
    ``from_preorder`` builds a space from its table.  ``_class_key`` holds
    the least table of the space's homeomorphism class once
    ``census.class_key`` has computed it.
    """

    __slots__ = ("n", "min_nbhd", "_point_closures", "_opens", "_hash", "_class_key")

    def __new__(cls, n: int, opens: Iterable[int]) -> "Topology":
        if not 1 <= n <= MAX_POINTS:
            raise ValueError(f"point count must be in 1..{MAX_POINTS}, got {n}")
        family = sorted(set(opens))
        full = full_set(n)
        for a in family:
            check_fits(a, n)
        if not family or family[0] != 0 or family[-1] != full:
            raise ValueError("open family must contain the empty set and the full set")
        nbhd = _min_table(n, family)
        regenerated = _upward_closed_sets(nbhd)
        if regenerated != tuple(family):
            raise ValueError("open family is not closed under union/intersection")
        return _from_table(nbhd, regenerated)

    def __reduce__(self):
        # __new__ takes an open family, so pickles and copies carry the table
        return _from_table, (self.min_nbhd,)

    @property
    def point_closures(self) -> tuple[int, ...]:
        if self._point_closures is None:
            self._point_closures = tuple(_down_sets(self.min_nbhd))
        return self._point_closures

    @property
    def opens(self) -> tuple[int, ...]:
        if self._opens is None:
            self._opens = _upward_closed_sets(self.min_nbhd)
        return self._opens

    def is_open(self, a: int) -> bool:
        """a holds the minimal neighborhood of each of its points."""
        if a < 0 or a >> self.n:
            return False
        nbhd = self.min_nbhd
        for x in iter_points(a):
            if nbhd[x] & ~a:
                return False
        return True

    def is_closed(self, a: int) -> bool:
        # the complement keeps any points outside the space, so is_open rejects them
        return self.is_open(a ^ full_set(self.n))

    def interior(self, a: int) -> int:
        """Largest open set inside a; points outside the space are ignored."""
        a &= full_set(self.n)
        m = 0
        for x in iter_points(a):
            if self.min_nbhd[x] & ~a == 0:
                m |= 1 << x
        return m

    def closure(self, a: int) -> int:
        """Smallest closed superset: points whose every neighborhood meets a."""
        m = 0
        for x in range(self.n):
            if self.min_nbhd[x] & a:
                m |= 1 << x
        return m

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Topology) and self.min_nbhd == other.min_nbhd

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"from_preorder({self.min_nbhd!r})"


def _min_table(n: int, family: Iterable[int]) -> tuple[int, ...]:
    # nbhd[x] = intersection of all family members containing x (X included)
    family = tuple(family)
    nbhd = []
    for x in range(n):
        bit, m = 1 << x, full_set(n)
        for a in family:
            if a & bit:
                m &= a
        nbhd.append(m)
    return tuple(nbhd)


def _upward_closed_sets(nbhd: tuple[int, ...]) -> tuple[int, ...]:
    # nbhd must be transitive.  Points with one neighborhood form a class C
    # with up-set U_C.  Every class strictly above C has a smaller up-set, so
    # taking classes by up-set size, the up-sets within the classes taken so
    # far double: each is kept, and each holding U_C minus C also gains C.
    classes: dict[int, int] = {}
    for x, up in enumerate(nbhd):
        classes[up] = classes.get(up, 0) | 1 << x
    out = [0]
    for up, cls in sorted(classes.items(), key=lambda item: item[0].bit_count()):
        above = up & ~cls
        out += [s | cls for s in out if not above & ~s]
    out.sort()
    return tuple(out)


def _down_sets(nbhd: tuple[int, ...]) -> list[int]:
    # down[x] is the mask of points whose minimal neighborhood holds x; the
    # points of each row are taken inline, as a generator per row costs
    # more than the loop body
    down = [0] * len(nbhd)
    for y, up in enumerate(nbhd):
        bit = 1 << y
        while up:
            low = up & -up
            down[low.bit_length() - 1] |= bit
            up ^= low
    return down


def build_topology(n: int, generators: Iterable[int]) -> Topology:
    """Smallest topology on n points containing every generator."""
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"point count must be in 1..{MAX_POINTS}, got {n}")
    gens = list(generators)
    for g in gens:
        check_fits(g, n)
    nbhd = _min_table(n, gens)
    # nbhd is transitive: y in nbhd[x] means every generator through x
    # also passes through y, hence nbhd[y] subset of nbhd[x]
    return from_preorder(nbhd)


def discrete(n: int) -> Topology:
    return build_topology(n, [1 << x for x in range(n)])


def indiscrete(n: int) -> Topology:
    return build_topology(n, [])


def subspace(t: Topology, a: int) -> tuple[Topology, tuple[int, ...]]:
    """Trace topology on a nonempty subset, points relabeled 0..|a|-1.

    Returns the subspace together with the relabeling map: new point i is
    the returned tuple's i-th entry in the ambient space.
    """
    check_fits(a, t.n)
    if a == 0:
        raise ValueError("subspace carrier must be nonempty")
    points = tuple(iter_points(a))
    index = {p: i for i, p in enumerate(points)}

    def restrict(mask: int) -> int:
        out = 0
        for p in iter_points(mask & a):
            out |= 1 << index[p]
        return out

    return from_preorder(tuple(restrict(t.min_nbhd[p]) for p in points)), points


def product(t1: Topology, t2: Topology) -> Topology:
    """Product space on pairs, (x, y) indexed as x * t2.n + y.

    The smallest open set around (x, y) is the box U_x × U_y, so the boxes
    are the product's table.
    """
    n = t1.n * t2.n
    if n > MAX_POINTS:
        raise ValueError(f"product would have {n} points, cap is {MAX_POINTS}")
    return from_preorder(
        tuple(
            _box(t1.min_nbhd[x], t2.min_nbhd[y], t2.n)
            for x in range(t1.n)
            for y in range(t2.n)
        )
    )


def _box(u: int, v: int, n2: int) -> int:
    m = 0
    for x in iter_points(u):
        for y in iter_points(v):
            m |= 1 << (x * n2 + y)
    return m


def from_preorder(rows: tuple[int, ...]) -> Topology:
    """The space whose minimal neighborhoods are the given rows.

    ``rows[x]`` is the up-set of x in a preorder: the mask of points y with
    x <= y.  The opens are then exactly the upward-closed sets.  Raises
    ValueError unless the rows fit the point count and the relation is
    reflexive and transitive.

    Tables from outside, products, subspaces and the alpha-refinement (whose
    check guards a theorem) come through here.  The census and the class
    verdicts pass the tables they build themselves, relabelled class tables
    and intersection tables, to ``_from_table``, which skips the checks:
    those tables are preorders by construction, and a test holds them
    against this function.
    """
    rows = tuple(rows)
    n = len(rows)
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"point count must be in 1..{MAX_POINTS}, got {n}")
    for x, row in enumerate(rows):
        check_fits(row, n)
        if not row >> x & 1:
            raise ValueError(f"relation is not reflexive at point {x}")
        for y in iter_points(row):
            if rows[y] & ~row:
                raise ValueError("relation is not transitive")
    return _from_table(rows)


def _from_table(rows: tuple[int, ...], opens: Optional[tuple[int, ...]] = None) -> Topology:
    """The space of a table that is a preorder by construction, unchecked.

    The only code that creates a Topology.  ``opens``, when given, must be
    the table's up-sets in ascending order.
    """
    t = object.__new__(Topology)
    t.n, t.min_nbhd, t._point_closures, t._opens, t._hash, t._class_key = (
        len(rows), rows, None, opens, hash(rows), None
    )
    return t


# --- structured text format -------------------------------------------------

def space_to_obj(t: Topology) -> dict:
    return {"n": t.n, "opens": [sorted(iter_points(u)) for u in t.opens]}


def space_to_json(t: Topology) -> str:
    return json.dumps(space_to_obj(t))


def space_from_obj(obj: dict, complete: bool = False) -> Topology:
    """Parse a space object, rejecting every shape but {"n": int, "opens": [[int]]}."""
    if not isinstance(obj, dict) or "n" not in obj or "opens" not in obj:
        raise ValueError("space object needs 'n' and 'opens' fields")
    n = obj["n"]
    if not _is_int(n):
        raise ValueError("'n' must be an integer")
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"point count must be in 1..{MAX_POINTS}, got {n}")
    if not isinstance(obj["opens"], list):
        raise ValueError("'opens' must be a list of point lists")
    masks = []
    for entry in obj["opens"]:
        if not isinstance(entry, list):
            raise ValueError(f"open set {entry!r} must be a list of points")
        if not all(_is_int(p) and 0 <= p < n for p in entry):
            raise ValueError(f"open set {entry} has points outside 0..{n - 1}")
        masks.append(mask_of(entry))
    if complete:
        return build_topology(n, masks)
    return Topology(n, masks)


def _is_int(value: object) -> bool:
    # JSON true/false arrive as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def parse_json(text: str, what: str) -> object:
    """json.loads with every parse failure as a ValueError that names what.

    That includes nesting too deep and an integer too long to convert.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what}: {exc}") from exc


def space_from_json(text: str, complete: bool = False) -> Topology:
    return space_from_obj(parse_json(text, "malformed space text"), complete=complete)


def load_space(source: TextIO, complete: bool = False) -> Topology:
    return space_from_json(source.read(), complete=complete)
