"""Reference computations the benchmark checks the program against.

Everything here works on minimal-neighbourhood tables: ``U[x]`` is the
bitmask of the smallest open set containing point ``x``.  Nothing is
imported from ``finitetop``; the checks stand on these definitions and on
published counts alone.
"""

from __future__ import annotations

import hashlib
import json
from itertools import permutations, product

# number of topologies on n labeled points (OEIS A000798)
LABELED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942, 6: 209527}
# number of topologies on n points up to homeomorphism (OEIS A001930)
HOMEO_COUNTS = {1: 1, 2: 3, 3: 9, 4: 33, 5: 139, 6: 718}
# the thm-fm1 sweep covers every surjection between the first 8 spaces
FM1_SAMPLE = 8


def points(a: int) -> list[int]:
    return [p for p in range(a.bit_length()) if a >> p & 1]


def upsets(U: tuple[int, ...]) -> list[int]:
    """The open sets: every mask that contains U[x] for each of its points."""
    n = len(U)
    return [a for a in range(1 << n) if all(U[x] & ~a == 0 for x in points(a))]


def count_upsets(U: tuple[int, ...]) -> int:
    """Number of open sets, without listing them.

    Split on the lowest undecided point x: either x is out, and with it
    every point whose neighbourhood holds x, or x is in, and with it U[x].
    Either way the points left undecided are unconstrained by the decided
    ones, so the count depends on the undecided set alone.
    """
    n = len(U)
    below = [sum(1 << y for y in range(n) if U[y] >> x & 1) for x in range(n)]
    memo = {0: 1}

    def count(undecided: int) -> int:
        known = memo.get(undecided)
        if known is None:
            x = (undecided & -undecided).bit_length() - 1
            known = count(undecided & ~below[x]) + count(undecided & ~U[x])
            memo[undecided] = known
        return known

    return count((1 << n) - 1)


def preorder_tables(n: int) -> list[tuple[int, ...]]:
    """Every transitive, reflexive table on n points, by brute force."""
    rows = [[r for r in range(1 << n) if r >> x & 1] for x in range(n)]
    return [
        U
        for U in product(*rows)
        if all(U[y] & ~U[x] == 0 for x in range(n) for y in points(U[x]))
    ]


def closure_of_point(U: tuple[int, ...], x: int) -> int:
    return sum(1 << y for y in range(len(U)) if U[y] >> x & 1)


def interior(U: tuple[int, ...], a: int) -> int:
    return sum(1 << y for y in range(len(U)) if U[y] & ~a == 0)


def alpha_table(U: tuple[int, ...]) -> tuple[int, ...]:
    """Minimal α-open neighbourhoods from Njåstad's description of α-open sets.

    α-open sets are exactly U \\ N with U open and N nowhere dense.  On a
    finite space the points whose closure has empty interior form the largest
    nowhere dense set D, so the smallest α-open set around x is
    (U_x \\ D) ∪ {x}.
    """
    n = len(U)
    D = sum(1 << y for y in range(n) if interior(U, closure_of_point(U, y)) == 0)
    return tuple((U[x] & ~D) | 1 << x for x in range(n))


def alpha_subparacompact(U: tuple[int, ...]) -> bool:
    """Every α-open cover has a closed refinement covering the space.

    The minimal α-open neighbourhoods refine every α-open cover, and the
    smallest closed set around x is cl{x}, so the property holds iff each
    cl{x} fits inside some minimal α-open neighbourhood.
    """
    V = alpha_table(U)
    return all(
        any(closure_of_point(U, x) & ~v == 0 for v in V) for x in range(len(U))
    )


def product_table(U1: tuple[int, ...], U2: tuple[int, ...]) -> tuple[int, ...]:
    """Minimal neighbourhoods of the product, point (x, y) at x * len(U2) + y."""
    n2 = len(U2)
    return tuple(
        sum(1 << (a * n2 + b) for a in points(u) for b in points(v))
        for u in U1
        for v in U2
    )


def record_id(n: int, opens: list[int]) -> str:
    """Census record id as the file format defines it."""
    text = json.dumps({"n": n, "opens": [points(u) for u in sorted(opens)]})
    return f"n{n}-{hashlib.sha1(text.encode()).hexdigest()[:12]}"


def canonical_form(U: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Least relabelled table over all point bijections, and the number of
    bijections that reach it (the automorphisms).

    Only bijections that send points to positions ordered by their
    (up-set size, down-set size) pair are tried; every homeomorphism keeps
    that pair, so homeomorphic tables meet the same set of relabellings.
    """
    n = len(U)
    down = [sum(1 << x for x in range(n) if U[x] >> y & 1) for y in range(n)]
    cells: dict[tuple[int, int], list[int]] = {}
    for x in range(n):
        cells.setdefault((U[x].bit_count(), down[x].bit_count()), []).append(x)
    keys = sorted(cells)
    best = None
    autos = 0
    for choice in product(*(permutations(cells[k]) for k in keys)):
        image = [0] * n
        for position, x in enumerate(x for block in choice for x in block):
            image[x] = position
        table = [0] * n
        for x in range(n):
            table[image[x]] = sum(1 << image[y] for y in points(U[x]))
        form = tuple(table)
        if best is None or form < best:
            best, autos = form, 1
        elif form == best:
            autos += 1
    return best, autos
