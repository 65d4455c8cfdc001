"""Point maps between finite spaces and the image law for refinement covers.

Maps are arbitrary total functions, not assumed continuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterator

from .spaces import Topology, iter_points
from .operators import alpha_topology
from .covers import check_property

MAP_KINDS = ("continuous", "open", "closed", "alpha-irresolute", "surjective", "injective")

DEFAULT_MAP_BUDGET = 1_000_000


@dataclass(frozen=True)
class SpaceMap:
    """A total function between the points of two spaces."""

    domain: Topology
    codomain: Topology
    fn: tuple[int, ...]

    def __post_init__(self):
        if len(self.fn) != self.domain.n:
            raise ValueError("map must assign every point of the domain")
        if any(not 0 <= y < self.codomain.n for y in self.fn):
            raise ValueError("map hits points outside the codomain")

    def image(self, a: int) -> int:
        out = 0
        for x in iter_points(a):
            out |= 1 << self.fn[x]
        return out

    def preimage(self, b: int) -> int:
        out = 0
        for x in range(self.domain.n):
            if b >> self.fn[x] & 1:
                out |= 1 << x
        return out


def _order_preserving(fn: tuple[int, ...], dom: Topology, cod: Topology) -> bool:
    # continuity on finite spaces: each minimal neighborhood maps into the
    # minimal neighborhood of its point's image
    cod_nbhd = cod.min_nbhd
    return all(
        cod_nbhd[fn[x]] >> fn[y] & 1
        for x in range(dom.n)
        for y in iter_points(dom.min_nbhd[x])
    )


def map_predicate(f: SpaceMap, kind: str) -> bool:
    """Standard map predicates, read off the minimal-neighborhood tables.

    Images are additive, so open (closed) maps need only check the minimal
    neighborhoods (point closures) that every open (closed) set is a union
    of; alpha-irresolute is continuity between the alpha-refinements.
    """
    dom, cod = f.domain, f.codomain
    if kind == "continuous":
        return _order_preserving(f.fn, dom, cod)
    if kind == "open":
        return all(cod.is_open(f.image(u)) for u in dom.min_nbhd)
    if kind == "closed":
        return all(cod.is_closed(f.image(c)) for c in dom.point_closures)
    if kind == "alpha-irresolute":
        return _order_preserving(f.fn, alpha_topology(dom), alpha_topology(cod))
    if kind == "surjective":
        return f.image((1 << f.domain.n) - 1) == (1 << f.codomain.n) - 1
    if kind == "injective":
        return len(set(f.fn)) == f.domain.n
    raise ValueError(f"unknown map predicate {kind!r}")


def enumerate_maps(
    x: Topology,
    y: Topology,
    surjective_only: bool = False,
    budget: int = DEFAULT_MAP_BUDGET,
) -> Iterator[SpaceMap]:
    """All total functions x -> y in deterministic (lexicographic) order."""
    check_map_budget(x, y, budget)
    return _iter_maps(x, y, surjective_only)


def check_map_budget(x: Topology, y: Topology, budget: int = DEFAULT_MAP_BUDGET) -> None:
    """Raise ValueError when the total functions x -> y exceed the budget."""
    total = y.n ** x.n
    if total > budget:
        raise ValueError(f"{total} maps exceed the budget of {budget}")


def _iter_maps(x: Topology, y: Topology, surjective_only: bool) -> Iterator[SpaceMap]:
    full_image = (1 << y.n) - 1
    for fn in iter_product(range(y.n), repeat=x.n):
        if surjective_only:
            hit = 0
            for p in fn:
                hit |= 1 << p
            if hit != full_image:
                continue
        yield SpaceMap(x, y, fn)


def verify_fm1(f: SpaceMap) -> str:
    """Check the image law for refinement covers on one map.

    Applies only to closed alpha-irresolute surjections out of a space where
    every alpha-open cover has a sigma-discrete closed refinement; then the
    codomain must have the same property.  Returns "not-applicable",
    "holds", or "VIOLATION".
    """
    if not (
        map_predicate(f, "surjective")
        and map_predicate(f, "closed")
        and map_predicate(f, "alpha-irresolute")
        and check_property(f.domain, "alpha-subparacompact")
    ):
        return "not-applicable"
    if check_property(f.codomain, "alpha-subparacompact"):
        return "holds"
    return "VIOLATION"
