"""Exhaustive enumeration of all topologies on small point sets.

One generator builds both censuses.  The census up to homeomorphism never
builds the labeled spaces: it grows the classes one point at a time from
the classes on one point fewer and keys each candidate by its least
relabelled table, which is also the first labeled space of its class.  The
labeled census is the relabelling index, built on first use by moving every
class table through all n! bijections: its tables in ascending order are
the labeled tables, and each keeps its class key.  Up to MAX_LABELED_N
points class_key is a lookup in that index, above that least_table; either
way a space's key is computed once and kept on the space, and each class
is profiled once.  The test suite's oracles (tests/oracles.py) are the
slower independent routes: backtracking over up-set rows and filtering every
family of subsets for closure under union and intersection for the labeled
census, and the labeled sweep deduplicated by a cell-layout form for the
classes.

Census files go through one text codec.  Each open set's JSON text is
cached by mask, so a record line is formatted from its id, n, its opens'
texts and its profile's text, encoded once per distinct profile up to
MAX_LABELED_N points; the bytes are json.dumps of the record object.  A
line read back in exactly that layout is decoded from its texts.  Its masks
are all open in the space they span (the one whose minimal neighborhoods
are their intersections), so they are all its opens iff they strictly
ascend and number as many as its open sets: a count taken once per class
up to MAX_LABELED_N points.  The line is kept only if that holds, its opens
text is bracketed as one list of lists (so its masks' texts join to it) and
that text hashes to its id; any other line goes through the JSON parser and
the full validation.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator, Optional, TextIO

from .spaces import (
    MAX_POINTS,
    Topology,
    _down_sets,
    _from_table,
    _is_int,
    _min_table,
    full_set,
    iter_points,
    mask_of,
    parse_json,
    space_from_obj,
)
from .operators import alpha_topology, set_class, table_scope
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
    """Stable record id: point count plus a hash of space_to_json's text."""
    return _id_of(t.n, _opens_text(t.opens))


def profile(t: Topology) -> PropertyProfile:
    """All property booleans, class sizes, and the shared-class flags.

    Every entry is a topological invariant, so a space of at most
    MAX_LABELED_N points gets its class's profile, computed once per class.
    Larger spaces are profiled on their own: the census up to homeomorphism
    already hands over one space per class, and keying it would add a
    least_table per class.
    """
    if t.n <= MAX_LABELED_N:
        return _class_profile(class_key(t))
    return _space_profile(t)


@lru_cache(maxsize=None)
def _class_profile(key: tuple[int, ...]) -> PropertyProfile:
    return _space_profile(_from_table(key))


@lru_cache(maxsize=None)
def _space_profile(t: Topology) -> PropertyProfile:
    with table_scope():
        ta = alpha_topology(t)
        so = set_class(t, "semi-open")
        sizes = {key: len(set_class(t, kind)) for key, kind in _SIZE_CLASS.items()}
        sizes["alpha"] = len(ta.opens)
        properties = {tag: check_property(t, tag) for tag in PROPERTY_TAGS}
        return PropertyProfile(
            properties=properties,
            sizes=sizes,
            # Corollary 3 (README): T and T^α share their g-closed sets iff T is nodec
            gc_mismatch=not properties["nodec"],
            so_eq_alpha=so == ta.opens,
        )


# --- enumeration --------------------------------------------------------------

def enumerate_preorders(n: int) -> Iterator[tuple[int, ...]]:
    """Every reflexive transitive relation on n points, lexicographic order.

    A relation is its tuple of up-set rows: row x is the mask of points y
    with x <= y, the table that from_preorder takes.  They are the tables
    of the relabelling index, which holds every relabelling of every class
    of homeo_tables(n).
    """
    _check_point_count(n, MAX_HOMEO_N, "the labeled tables")
    return iter(sorted(_class_index(n)))


def enumerate_topologies(n: int, up_to_homeo: bool = False) -> Iterator[Topology]:
    """Every topology on n labeled points exactly once, deterministic order.

    With up_to_homeo the stream holds one space per homeomorphism class, its
    least table (see homeo_tables): the first space of the class in the
    labeled order.
    """
    if up_to_homeo:
        _check_point_count(n, MAX_HOMEO_N, "the census up to homeomorphism")
        return map(_from_table, homeo_tables(n))
    _check_point_count(n, MAX_LABELED_N, "the labeled census")
    return map(_from_table, enumerate_preorders(n))


def _check_point_count(n: int, cap: int, census: str) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"n must be in 1..{cap} for {census}, got {n}")


def homeo_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """The least table of every homeomorphism class on n points, ascending.

    Built level by level from the one-point space.  Deleting a point p of an
    n-point space leaves an (n-1)-point subspace, so every class arises from
    an (n-1)-point class by one new point p.  Its up-set is u | p and it lies
    above the points of d, for an open u and a closed d with u inside every
    U_x, x in d; the rows of d gain p.  Every space has a point whose
    minimal neighborhood is largest, and deleting that one suffices, so only
    extensions where p has a largest row are keyed.  The least table both
    merges candidates of one class and is the printed representative.
    """
    if n < 1:
        raise ValueError(f"point count must be at least 1, got {n}")
    level: Iterable[tuple[int, ...]] = [(1,)]
    for _ in range(n - 1):
        level = sorted({least_table(t) for rows in level for t in _one_point_extensions(rows)})
    return tuple(level)


def _one_point_extensions(rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # every table on one more point p = n whose row for p is a largest row
    # and whose subspace on 0..n-1 is rows
    n = len(rows)
    full, p = full_set(n), 1 << n
    opens = _from_table(rows).opens
    sizes = [row.bit_count() for row in rows]
    for closed in opens:
        d = full ^ closed
        meet = full
        for x in iter_points(d):
            meet &= rows[x]
        largest = max(size + (d >> x & 1) for x, size in enumerate(sizes))
        for u in opens:
            if not u & ~meet and u.bit_count() + 1 >= largest:
                yield tuple(row | p if d >> x & 1 else row for x, row in enumerate(rows)) + (u | p,)


def least_table(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least relabelling of a table over all bijections.

    Homeomorphic spaces share it, so it is a complete key, and it is the
    first table of the class in the ascending labeled order
    (enumerate_preorders).  Positions are
    filled in order.  A point q put at position k gets at least the row
    image[q] (the positions of its placed up-set) plus the next c_q
    positions, c_q = |U_q unplaced|.  When q's bound is least, every other
    unplaced point of U_q is equivalent to q (a point strictly above q has
    a smaller c and so a smaller bound), and those points have the least
    bounds at the next steps, so q's bound is its final row.  Each level
    therefore keeps just the partial labellings whose new row is least.
    Of tied twins (points whose transposition is an automorphism) only the
    first is kept: both reach the same tables.
    """
    n = len(rows)
    down = _down_sets(rows)
    # (placed points, row of each point over the placed positions)
    partials = [(0, [0] * n)]
    table = []
    for k in range(n):
        least, kept = None, []
        for placed, image in partials:
            low, tied = None, []
            for q in iter_points(full_set(n) & ~placed):
                row = image[q] | ((1 << (rows[q] & ~placed).bit_count()) - 1) << k
                if low is None or row < low:
                    low, tied = row, [q]
                elif row == low:
                    tied.append(q)
            if least is not None and low > least:
                continue
            if least is None or low < least:
                least, kept = low, []
            for i, q in enumerate(tied):
                if any(_are_twins(rows, down, x, q) for x in tied[:i]):
                    continue
                grown = image[:]
                for x in iter_points(down[q]):
                    grown[x] |= 1 << k
                kept.append((placed | 1 << q, grown))
        table.append(least)
        partials = kept
    return tuple(table)


def class_key(t: Topology) -> tuple[int, ...]:
    """The least table of t's homeomorphism class.

    Up to MAX_LABELED_N points it is a lookup in the relabelling index, and
    above that least_table.  Either way it is computed on the first call and
    kept on the space itself: a sweep that decides each class once asks for
    the key of the same space again in every suite it runs.
    """
    key = t._class_key
    if key is None:
        key = t._class_key = (
            _class_index(t.n)[t.min_nbhd] if t.n <= MAX_LABELED_N else least_table(t.min_nbhd)
        )
    return key


@lru_cache(maxsize=None)
def automorphism_count(rows: tuple[int, ...]) -> int:
    """|Aut| of the space with this table: the bijections that fix it.

    A bijection sigma fixes the table iff x <= z exactly when
    sigma[x] <= sigma[z], for every pair of points.  Points are placed in
    order, depth first.  Point x may go to an unused y with the same
    (up-set size, down-set size), and only if the order relations with
    every point already placed hold in both directions.  The class of the
    table has n!/|Aut| labeled members.
    """
    n = len(rows)
    down = _down_sets(rows)
    signature = [(rows[x].bit_count(), down[x].bit_count()) for x in range(n)]
    sigma = [0] * n

    def extend(x: int, used: int) -> int:
        if x == n:
            return 1
        # the images of x's placed up-set and down-set
        up = dn = 0
        for z in range(x):
            if rows[x] >> z & 1:
                up |= 1 << sigma[z]
            if down[x] >> z & 1:
                dn |= 1 << sigma[z]
        count = 0
        for y in range(n):
            if (
                not used >> y & 1
                and signature[y] == signature[x]
                and rows[y] & used == up
                and down[y] & used == dn
            ):
                sigma[x] = y
                count += extend(x + 1, used | 1 << y)
        return count

    return extend(0, 0)


@lru_cache(maxsize=None)
def _class_index(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every labeled table on n points -> the least table of its class.

    Each table of homeo_tables(n) is relabelled by all n! bijections sigma:
    the row of point x moves to position sigma[x], and each of its bits y
    moves to bit sigma[y].  Every space is a relabelling of its class's
    table, so the keys are the whole labeled census; enumerate_preorders
    hands them out in ascending order.
    """
    index: dict[tuple[int, ...], tuple[int, ...]] = {}
    classes = homeo_tables(n)
    for sigma in permutations(range(n)):
        image = [0] * (1 << n)  # mask -> its image under sigma
        for x, y in enumerate(sigma):
            for m in range(1 << x, 2 << x):
                image[m] = image[m ^ 1 << x] | 1 << y
        where = sorted(range(n), key=sigma.__getitem__)  # position -> point
        for rows in classes:
            index[tuple([image[rows[x]] for x in where])] = rows
    return index


def _are_twins(rows: tuple[int, ...], down: list[int], x: int, y: int) -> bool:
    xy = 1 << x | 1 << y
    return (
        rows[x] | xy == rows[y] | xy
        and down[x] | xy == down[y] | xy
        and rows[x] >> y & 1 == rows[y] >> x & 1
    )


@lru_cache(maxsize=None)
def labeled_census(n: int) -> tuple[Topology, ...]:
    return tuple(enumerate_topologies(n))


def census_records(n: int, up_to_homeo: bool = False) -> Iterator[CensusRecord]:
    for t in enumerate_topologies(n, up_to_homeo):
        yield CensusRecord(space_id(t), t, profile(t))


# --- persistence ---------------------------------------------------------------

class _MaskTexts(dict):
    """mask -> the JSON text of its point list, as json.dumps writes it.

    Every mask of a space fits in MAX_POINTS bits, so at most 2^16 entries.
    """

    def __missing__(self, mask: int) -> str:
        text = self[mask] = "[" + ", ".join(map(str, iter_points(mask))) + "]"
        return text


class _EntryMasks(dict):
    """The text inside one canonical open-set entry ("0, 2") -> its mask.

    Raises ValueError for any other text, so only the canonical text of a
    mask is kept: at most 2^16 entries.
    """

    def __missing__(self, text: str) -> int:
        try:
            mask = mask_of(_POINT_OF[p] for p in text.split(", ")) if text else 0
        except KeyError:
            raise ValueError(f"open-set text [{text}] is not canonical") from None
        if _MASK_TEXTS[mask] != f"[{text}]":
            raise ValueError(f"open-set text [{text}] is not canonical")
        self[text] = mask
        return mask


_MASK_TEXTS = _MaskTexts()
_ENTRY_MASKS = _EntryMasks()
_POINT_OF = {str(p): p for p in range(MAX_POINTS)}

# a record line exactly as write_census lays it out: id, n without leading
# zeros, the opens text and the profile object
_RECORD_LINE = re.compile(
    r'\{"id": "([^"\\]*)", "n": (0|[1-9][0-9]*), '
    r'"opens": (\[[\[\]0-9, ]*\]), "profile": (\{.*\})\}'
)


def _opens_text(masks: Iterable[int]) -> str:
    """The JSON text of the masks' point lists, as space_to_json writes opens."""
    return "[" + ", ".join(map(_MASK_TEXTS.__getitem__, masks)) + "]"


def _id_of(n: int, opens_text: str) -> str:
    text = f'{{"n": {n}, "opens": {opens_text}}}'
    return f"n{n}-" + hashlib.sha1(text.encode()).hexdigest()[:12]


@lru_cache(maxsize=1 << 12)
def _profile_of(text: str) -> PropertyProfile:
    # parsed and validated once per distinct profile text; ValueError otherwise
    return PropertyProfile.from_obj(parse_json(text, "malformed profile"))


def write_census(records: Iterable[CensusRecord], sink: TextIO) -> int:
    """One header line plus one record per line; an empty census writes nothing.

    Each line is json.dumps of the record's id, n, opens and profile object,
    formatted from the cached texts of its open sets and its profile's
    text.  Up to MAX_LABELED_N points, where profile objects are shared by
    a class, that text is encoded once per distinct profile; a larger
    census profiles each space apart, so holding its texts would save
    nothing.  Returns the number of records written.
    """
    count = 0
    n = None
    # id(profile) -> (profile, its JSON text); holding the profile keeps its id unique
    profile_texts: dict[int, tuple[PropertyProfile, str]] = {}
    for rec in records:
        if n is None:
            n = rec.n
            sink.write(json.dumps({"format": CENSUS_FORMAT, "n": n}) + "\n")
        if rec.n != n:
            raise ValueError("census files hold spaces of a single point count")
        prof = rec.profile
        if n > MAX_LABELED_N:
            text = json.dumps(prof.to_obj())
        else:
            entry = profile_texts.get(id(prof))
            if entry is None:
                entry = profile_texts[id(prof)] = (prof, json.dumps(prof.to_obj()))
            text = entry[1]
        sink.write(
            f'{{"id": {json.dumps(rec.id)}, "n": {n}, "opens": {_opens_text(rec.space.opens)}, '
            f'"profile": {text}}}\n'
        )
        count += 1
    return count


def read_census(source: TextIO) -> list[CensusRecord]:
    """Parse a census file; read(write(x)) == x byte for byte.

    A line in write_census's exact layout is decoded from its texts and kept
    only if its masks strictly ascend, number as many as the open sets of
    the space they span, give back the line's opens text (see
    _read_canonical), and that text hashes to the line's id; every other
    line goes through the JSON parser and the full validation, which names
    the fault.
    """
    records: list[CensusRecord] = []
    n = None
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        if n is not None:
            rec = _read_canonical(line, n)
            if rec is not None:
                records.append(rec)
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


def _read_canonical(line: str, n: int) -> Optional[CensusRecord]:
    """The record of a line exactly as write_census writes it, else None.

    Counting is the check.  Every listed mask is an up-set of the table
    _min_table builds from the list, since it holds the minimal neighborhood
    of each of its points.  So the list is exactly the space's opens, in
    order, iff it strictly ascends and has as many members as the table has
    up-sets: a number cached per class up to MAX_LABELED_N points and
    enumerated for a larger space.  A point written as true or 1.0 is not a
    canonical entry, opens out of order or repeated do not strictly ascend,
    a family not closed under union and intersection falls short of the
    count, and a wrong id cannot hash to itself.  The opens text must open
    with "[[" and close with "]]": every entry between is the canonical
    text of its mask, so with canonical entries those two brackets hold iff
    the masks' joined texts give back the opens text, and a text such as
    "[ ], [0 ]" is refused.  An accepted line is one _parse_record accepts,
    with an equal record.  The space is keyed through class_key, so the
    suites that run on it next find its key on it.
    """
    match = _RECORD_LINE.fullmatch(line)
    if match is None or not 1 <= n <= MAX_POINTS:
        return None
    rid, count, opens, profile_text = match.groups()
    if count != str(n) or opens[:2] != "[[" or opens[-2:] != "]]":
        return None
    try:
        masks = [_ENTRY_MASKS[entry] for entry in opens[2:-2].split("], [")]
        prof = _profile_of(profile_text)
    except ValueError:
        return None
    # strictly ascending, and the last mask holds no point outside the space
    if masks != sorted(set(masks)) or masks[-1] >> n:
        return None
    space = _from_table(_min_table(n, masks))
    if n <= MAX_LABELED_N:
        count = _class_open_count(class_key(space))
    else:
        count = len(space.opens)
    if len(masks) != count or _id_of(n, opens) != rid:
        return None
    return CensusRecord(rid, space, prof)


@lru_cache(maxsize=None)
def _class_open_count(key: tuple[int, ...]) -> int:
    # the number of open sets is a topological invariant: one count per class
    return len(_from_table(key).opens)


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
