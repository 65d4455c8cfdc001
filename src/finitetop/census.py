"""Exhaustive enumeration of all topologies on small point sets.

The production route enumerates reflexive transitive relations by
backtracking over per-point up-set masks (pairwise row containment checks
are exactly transitivity) and maps each relation to its topology of
upward-closed sets; the census up to homeomorphism keeps the first space
of each canonical form.  The far slower direct route — filtering every family
of subsets for closure under union and intersection — is the test suite's
independent oracle for the counts at small n (tests/oracles.py).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, TextIO

from .spaces import (
    Topology,
    _down_sets,
    _is_int,
    from_preorder,
    iter_points,
    parse_json,
    space_from_obj,
    space_to_json,
)
from .operators import alpha_topology, set_class
from .covers import PROPERTY_TAGS, check_property

MAX_LABELED_N = 5
MAX_HOMEO_N = 6

CENSUS_FORMAT = "finitetop-census/1"

SIZE_KEYS = ("so", "rc", "gc", "sgc", "alpha")

_SIZE_CLASS = {"so": "semi-open", "rc": "regular-closed", "gc": "g-closed", "sgc": "sg-closed"}


@dataclass
class PropertyProfile:
    """Every covering/separation property of one space plus class sizes."""

    properties: dict[str, bool]
    sizes: dict[str, int]
    gc_mismatch: bool
    so_eq_alpha: bool

    def to_obj(self) -> dict:
        return {
            "properties": {tag: self.properties[tag] for tag in PROPERTY_TAGS},
            "sizes": {key: self.sizes[key] for key in SIZE_KEYS},
            "gc_mismatch": self.gc_mismatch,
            "so_eq_alpha": self.so_eq_alpha,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "PropertyProfile":
        if not isinstance(obj, dict):
            raise ValueError("profile must be a JSON object")
        props = obj.get("properties")
        sizes = obj.get("sizes")
        if (
            not isinstance(props, dict)
            or sorted(props) != sorted(PROPERTY_TAGS)
            or not all(isinstance(v, bool) for v in props.values())
        ):
            raise ValueError("profile properties must cover every property tag")
        if (
            not isinstance(sizes, dict)
            or sorted(sizes) != sorted(SIZE_KEYS)
            or not all(_is_int(v) for v in sizes.values())
        ):
            raise ValueError("profile sizes must cover every size key")
        if not all(isinstance(obj.get(flag), bool) for flag in ("gc_mismatch", "so_eq_alpha")):
            raise ValueError("profile flags gc_mismatch and so_eq_alpha must be booleans")
        return cls(
            properties={tag: props[tag] for tag in PROPERTY_TAGS},
            sizes={key: sizes[key] for key in SIZE_KEYS},
            gc_mismatch=obj["gc_mismatch"],
            so_eq_alpha=obj["so_eq_alpha"],
        )


@dataclass
class CensusRecord:
    id: str
    space: Topology
    profile: PropertyProfile

    @property
    def n(self) -> int:
        return self.space.n


def space_id(t: Topology) -> str:
    """Stable record id: point count plus a hash of the canonical opens."""
    digest = hashlib.sha1(space_to_json(t).encode()).hexdigest()[:12]
    return f"n{t.n}-{digest}"


@lru_cache(maxsize=None)
def profile(t: Topology) -> PropertyProfile:
    """All property booleans, class sizes, and the shared-class flags."""
    ta = alpha_topology(t)
    so = set_class(t, "semi-open")
    sizes = {key: len(set_class(t, kind)) for key, kind in _SIZE_CLASS.items()}
    sizes["alpha"] = len(ta.opens)
    return PropertyProfile(
        properties={tag: check_property(t, tag) for tag in PROPERTY_TAGS},
        sizes=sizes,
        gc_mismatch=set_class(t, "g-closed") != set_class(ta, "g-closed"),
        so_eq_alpha=so == ta.opens,
    )


# --- enumeration --------------------------------------------------------------

def enumerate_preorders(n: int) -> Iterator[tuple[int, ...]]:
    """Every reflexive transitive relation on n points, lexicographic order.

    A relation is its tuple of up-set rows: row x is the mask of points y
    with x <= y, the table that from_preorder takes.
    """
    rows: list[int] = []

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(rows)
            return
        for r in range(1 << n):
            if not r >> i & 1:
                continue
            ok = True
            for j, rj in enumerate(rows):
                if r >> j & 1 and rj & ~r:
                    ok = False
                    break
                if rj >> i & 1 and r & ~rj:
                    ok = False
                    break
            if ok:
                rows.append(r)
                yield from rec(i + 1)
                rows.pop()

    return rec(0)


def enumerate_topologies(n: int, up_to_homeo: bool = False) -> Iterator[Topology]:
    """Every topology on n labeled points exactly once, deterministic order.

    With up_to_homeo the stream keeps the first representative of each
    homeomorphism class: a space is kept the first time its canonical form
    is seen.
    """
    cap = MAX_HOMEO_N if up_to_homeo else MAX_LABELED_N
    if not 1 <= n <= cap:
        raise ValueError(f"enumeration budget is n <= {cap} for this mode, got {n}")
    stream = (from_preorder(r) for r in enumerate_preorders(n))
    if not up_to_homeo:
        return stream
    return _first_of_each_form(stream)


def _first_of_each_form(stream: Iterator[Topology]) -> Iterator[Topology]:
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
    key.  The cost is the product of the cell sizes' factorials, at most
    720 relabellings for n <= MAX_HOMEO_N.
    """
    nbhd = t.min_nbhd
    cells: dict[tuple[int, int], list[int]] = {}
    for x, (up, down) in enumerate(zip(nbhd, _down_sets(nbhd))):
        cells.setdefault((up.bit_count(), down.bit_count()), []).append(x)
    best = None
    for blocks in product(*(permutations(cells[key]) for key in sorted(cells))):
        order = [x for block in blocks for x in block]
        image = [0] * t.n
        for position, x in enumerate(order):
            image[x] = position
        form = tuple(sum(1 << image[y] for y in iter_points(nbhd[x])) for x in order)
        if best is None or form < best:
            best = form
    return best


@lru_cache(maxsize=None)
def labeled_census(n: int) -> tuple[Topology, ...]:
    return tuple(enumerate_topologies(n))


@lru_cache(maxsize=None)
def homeo_census(n: int) -> tuple[Topology, ...]:
    return tuple(enumerate_topologies(n, up_to_homeo=True))


def census_records(n: int, up_to_homeo: bool = False) -> Iterator[CensusRecord]:
    for t in enumerate_topologies(n, up_to_homeo):
        yield CensusRecord(space_id(t), t, profile(t))


# --- persistence ---------------------------------------------------------------

def record_to_obj(rec: CensusRecord) -> dict:
    return {
        "id": rec.id,
        "n": rec.n,
        "opens": [list(iter_points(u)) for u in rec.space.opens],
        "profile": rec.profile.to_obj(),
    }


def write_census(records: Iterable[CensusRecord], sink: TextIO) -> int:
    """One header line plus one record per line; an empty census writes nothing.

    Returns the number of records written.
    """
    count = 0
    n = None
    for rec in records:
        if n is None:
            n = rec.n
            sink.write(json.dumps({"format": CENSUS_FORMAT, "n": n}) + "\n")
        if rec.n != n:
            raise ValueError("census files hold spaces of a single point count")
        sink.write(json.dumps(record_to_obj(rec)) + "\n")
        count += 1
    return count


def read_census(source: TextIO) -> list[CensusRecord]:
    """Parse a census file; read(write(x)) == x byte for byte."""
    records: list[CensusRecord] = []
    n = None
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        obj = parse_json(line, f"line {lineno}: malformed record")
        if n is None:
            if not isinstance(obj, dict):
                raise ValueError(f"line {lineno}: header must be a JSON object")
            if obj.get("format") != CENSUS_FORMAT:
                raise ValueError(
                    f"line {lineno}: unknown census format {obj.get('format')!r}"
                )
            n = obj.get("n")
            if not _is_int(n):
                raise ValueError(f"line {lineno}: header is missing the point count")
            continue
        try:
            records.append(_parse_record(obj, n))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return records


def _parse_record(obj: dict, n: int) -> CensusRecord:
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    for key in ("id", "n", "opens", "profile"):
        if key not in obj:
            raise ValueError(f"record is missing the {key!r} field")
    if obj["n"] != n:
        raise ValueError(f"record n={obj['n']} does not match header n={n}")
    # rejects malformed opens and families not closed under union/intersection
    space = space_from_obj(obj)
    rec = CensusRecord(obj["id"], space, PropertyProfile.from_obj(obj["profile"]))
    if rec.id != space_id(space):
        raise ValueError(f"record id {rec.id!r} does not match the canonical opens")
    return rec
