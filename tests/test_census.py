"""Census enumeration, profiling, and file persistence."""

import hashlib
import io
import json
import random
from functools import lru_cache, partial
from itertools import permutations

import pytest

from conftest import SIXTEEN_POINT_PRODUCTS, random_generators, random_spaces
from finitetop import (
    alpha_topology,
    build_topology,
    census,
    discrete,
    from_preorder,
    indiscrete,
    profile,
    read_census,
    set_class,
    space_id,
    space_to_json,
    write_census,
)
from finitetop.census import (
    CENSUS_FORMAT,
    CensusRecord,
    PropertyProfile,
    _parse_record,
    census_records,
    enumerate_preorders,
    enumerate_topologies,
    homeo_tables,
    labeled_census,
    least_table,
)
from finitetop.spaces import iter_points, mask_of
from oracles import (
    backtracked_preorders,
    count_topologies_direct,
    homeo_census,
    is_homeomorphic,
    least_relabelling,
    record_to_obj,
    relabelled,
    sweep_homeo_census,
)

# OEIS A000798, topologies on n labeled points
LABELED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942, 6: 209527}
# OEIS A001930, topologies on n points up to homeomorphism
HOMEO_COUNTS = {1: 1, 2: 3, 3: 9, 4: 33, 5: 139, 6: 718, 7: 4535}


# --- enumeration ----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labeled_counts(n):
    assert len(labeled_census(n)) == LABELED_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_labeled_tables_are_the_sorted_relabellings_of_the_classes(n):
    # the order too: the reference census ascends by table
    tables = {
        relabelled(rows, order) for rows in homeo_tables(n) for order in permutations(range(n))
    }
    assert list(backtracked_preorders(n)) == sorted(tables)


@pytest.mark.parametrize("n", sorted(LABELED_COUNTS))
def test_labeled_tables_equal_the_backtracking_census(n):
    # production relabels the classes; the reference places one row at a time
    tables = list(enumerate_preorders(n))
    assert len(tables) == LABELED_COUNTS[n]
    assert tables == list(backtracked_preorders(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_direct_oracle_confirms_counts(n):
    assert count_topologies_direct(n) == LABELED_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_homeo_counts(n):
    assert len(homeo_census(n)) == HOMEO_COUNTS[n]


def test_enumeration_is_deterministic_and_duplicate_free():
    first = list(enumerate_topologies(3))
    second = list(enumerate_topologies(3))
    assert first == second
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_labeled_space_has_exactly_one_representative(n):
    reps = homeo_census(n)
    for rep1 in reps:
        for rep2 in reps:
            if rep1 is not rep2:
                assert not is_homeomorphic(rep1, rep2)
    for t in labeled_census(n):
        assert sum(1 for rep in reps if is_homeomorphic(t, rep)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_form_decides_homeomorphism(n):
    # the key is the least table: every space of a class maps to the first
    # space of the class in the labeled order
    groups: dict[tuple[int, ...], list] = {}
    for t in labeled_census(n):
        groups.setdefault(least_table(t.min_nbhd), []).append(t)
    firsts = [members[0] for members in groups.values()]
    for key, members in groups.items():
        assert key == members[0].min_nbhd
        assert all(is_homeomorphic(t, members[0]) for t in members[1:])
    for i, rep1 in enumerate(firsts):
        for rep2 in firsts[i + 1:]:
            assert not is_homeomorphic(rep1, rep2)
    assert len(groups) == HOMEO_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_index_keys_every_labeled_table(n):
    index = census._class_index(n)
    assert len(index) == LABELED_COUNTS[n]
    assert set(index) == set(backtracked_preorders(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_index_gives_the_least_table(n):
    for rows, key in census._class_index(n).items():
        assert key == least_table(rows), rows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_least_table_is_least_relabelling(n):
    for t in labeled_census(n):
        assert least_table(t.min_nbhd) == least_relabelling(t.min_nbhd)


def test_least_table_is_least_relabelling_on_5_point_classes():
    # every class's table relabelled by a point rotation, so that the
    # search starts away from its answer
    for rows in homeo_tables(5):
        rotated = tuple(
            sum(1 << (y + 1) % 5 for y in range(5) if rows[x] >> y & 1)
            for x in (4, 0, 1, 2, 3)
        )
        assert least_table(rotated) == least_relabelling(rotated) == rows


def test_least_table_on_random_spaces_beyond_the_census():
    # seeded spaces on 6..10 points from random generators, each also under
    # a random relabelling; the all-bijections oracle is affordable at 6
    rng = random.Random(606)
    for _ in range(200):
        n = rng.randint(6, 10)
        t = build_topology(n, random_generators(rng, n))
        rows = t.min_nbhd
        moved = relabelled(rows, rng.sample(range(n), n))
        key = least_table(rows)
        assert least_table(moved) == key, (rows, moved)
        if n <= 6:
            assert key == least_relabelling(rows), rows
        assert census.class_key(from_preorder(moved)) == census.class_key(t), (rows, moved)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_extension_census_equals_labeled_sweep(n):
    # table for table and in order, against the first space of each
    # cell-layout form in the labeled sweep
    assert [t.min_nbhd for t in homeo_census(n)] == [t.min_nbhd for t in sweep_homeo_census(n)]


@pytest.mark.parametrize("n", sorted(HOMEO_COUNTS))
def test_homeo_tables_follow_a001930(n):
    assert len(homeo_tables(n)) == HOMEO_COUNTS[n]


def test_enumeration_budget():
    # each guard names the range it accepts
    guards = (
        ("the labeled census", 5, enumerate_topologies),
        ("the census up to homeomorphism", 6, partial(enumerate_topologies, up_to_homeo=True)),
        ("the labeled tables", 6, enumerate_preorders),
    )
    for name, cap, enumerate_n in guards:
        for n in (-1, 0, cap + 1):
            with pytest.raises(ValueError) as excinfo:
                enumerate_n(n)
            assert str(excinfo.value) == f"n must be in 1..{cap} for {name}, got {n}"


# --- profiles --------------------------------------------------------------------

def test_profile_of_single_open_point(one_open_point):
    prof = profile(one_open_point)
    assert prof.properties["compact"]
    assert not prof.properties["alpha-subparacompact"]
    assert not prof.properties["alpha-paracompact"]
    assert prof.properties["extremally-disconnected"]
    assert not prof.properties["nodec"]
    assert prof.gc_mismatch
    assert prof.sizes == {"so": 5, "rc": 2, "gc": 7, "sgc": 5, "alpha": 5}
    assert prof.so_eq_alpha


def test_profile_of_discrete():
    prof = profile(discrete(3))
    assert all(prof.properties.values())
    assert not prof.gc_mismatch
    assert prof.sizes["so"] == 8


def test_profile_of_indiscrete():
    prof = profile(indiscrete(3))
    assert prof.properties["nodec"]
    assert not prof.gc_mismatch


def test_profile_builds_the_space_tables_once(table_builds):
    for t in labeled_census(4):
        set_class.cache_clear()
        table_builds.clear()
        census._space_profile.__wrapped__(t)
        assert table_builds[t] == 1, t
        assert set(table_builds) <= {t, alpha_topology(t)}, t
        assert max(table_builds.values()) == 1, t


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_class_profile_equals_the_space_profile(n):
    # the class's profile, looked up by key, against the space's own
    for t in labeled_census(n):
        assert profile(t) == census._space_profile.__wrapped__(t), t


@pytest.mark.parametrize("n", [2, 3])
def test_profile_invariant_under_homeomorphism(n):
    reps = homeo_census(n)
    for t in labeled_census(n):
        rep = next(r for r in reps if is_homeomorphic(t, r))
        assert profile(t) == profile(rep)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_profile_invariants(n):
    for t in labeled_census(n):
        prof = profile(t)
        if prof.properties["nodec"]:
            assert not prof.gc_mismatch
        if prof.properties["hausdorff"]:
            assert all(prof.properties.values())


def test_space_id_is_stable_and_canonical(one_open_point):
    sid = space_id(one_open_point)
    assert sid.startswith("n3-") and len(sid) == 15
    assert space_id(build_topology(3, [1])) == sid
    assert space_id(build_topology(3, [2])) != sid


def _sha1_id(t):
    return f"n{t.n}-" + hashlib.sha1(space_to_json(t).encode()).hexdigest()[:12]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_space_id_hashes_space_to_json(n):
    for t in labeled_census(n):
        assert space_id(t) == _sha1_id(t)


@pytest.mark.parametrize("name", sorted(SIXTEEN_POINT_PRODUCTS))
def test_space_id_hashes_space_to_json_at_16_points(name):
    # violation lines print the ids of 16-point spaces too
    t = SIXTEEN_POINT_PRODUCTS[name]()
    assert space_id(t) == _sha1_id(t)


# --- persistence --------------------------------------------------------------------

def _census_text(records):
    buf = io.StringIO()
    write_census(records, buf)
    return buf.getvalue()


@pytest.mark.parametrize("n, up_to_homeo", [(1, False), (2, False), (3, False),
                                            (4, False), (5, False), (6, True)])
def test_written_lines_are_the_json_of_each_record(n, up_to_homeo):
    records = list(census_records(n, up_to_homeo=up_to_homeo))
    header, *lines = _census_text(records).splitlines()
    assert json.loads(header) == {"format": CENSUS_FORMAT, "n": n}
    assert lines == [json.dumps(record_to_obj(rec)) for rec in records]


def _with_opens(obj, opens):
    # the record with other opens, its id recomputed over them, so that only
    # the opens check can reject it
    text = json.dumps({"n": obj["n"], "opens": opens})
    return {**obj, "id": f"n{obj['n']}-" + hashlib.sha1(text.encode()).hexdigest()[:12],
            "opens": opens}


def _point_one_as(text):
    # the first point 1 of the opens written as text
    def mutate(obj):
        opens = [list(u) for u in obj["opens"]]
        k = next((k for k, u in enumerate(opens) if 1 in u), None)
        if k is None:
            return None
        opens[k][opens[k].index(1)] = "@"
        return json.dumps(_with_opens(obj, opens)).replace('"@"', text)
    return mutate


def _opens_changed(change):
    def mutate(obj):
        opens = change(obj["opens"])
        return None if opens is None else json.dumps(_with_opens(obj, opens))
    return mutate


def _unsorted(opens):
    return [opens[0], opens[2], opens[1], *opens[3:]] if len(opens) > 2 else None


def _not_union_closed(opens):
    # drop an open short of the full set that is the union of two others
    sets = [frozenset(u) for u in opens]
    for k, u in enumerate(sets[:-1]):
        if any(a | b == u and a != u and b != u for a in sets for b in sets):
            return opens[:k] + opens[k + 1:]
    return None


def _open_swapped(opens):
    # the least nonempty open traded for the least point list outside the
    # family, in mask order again: the count, order and text stay canonical,
    # so only the count check can reject a family that is not a topology
    masks = [mask_of(u) for u in opens]
    family = set(masks)
    outside = next((m for m in range(1 << len(opens[-1])) if m not in family), None)
    if outside is None or len(masks) < 3:
        return None
    masks[1] = outside
    return [list(iter_points(m)) for m in sorted(masks)]


def _upper_hex(obj):
    head, _, digest = obj["id"].partition("-")
    if digest.upper() == digest:
        return None
    return json.dumps({**obj, "id": f"{head}-{digest.upper()}"})


def _size_true(obj):
    prof = json.loads(json.dumps(obj["profile"]))
    prof["sizes"]["so"] = True
    return json.dumps({**obj, "profile": prof})


# name -> record object -> mutated line, or None where it does not apply
LINE_MUTATIONS = {
    "unchanged": json.dumps,
    "point-true": _point_one_as("true"),
    "point-float": _point_one_as("1.0"),
    "point-leading-zero": _point_one_as("01"),
    "opens-unsorted": _opens_changed(_unsorted),
    "open-duplicated": _opens_changed(lambda opens: [opens[0], *opens]),
    "open-dropped": _opens_changed(_not_union_closed),
    "open-swapped": _opens_changed(_open_swapped),
    "extra-space": lambda obj: json.dumps(obj).replace('"n": ', '"n":  ', 1),
    "keys-reordered": lambda obj: json.dumps({"n": obj["n"], **obj}),
    "extra-key": lambda obj: json.dumps({**obj, "x": 1}),
    "wrong-id": lambda obj: json.dumps({**obj, "id": obj["id"][:-1] + "x"}),
    "id-upper-hex": _upper_hex,
    "n-not-header": lambda obj: json.dumps({**obj, "n": obj["n"] + 1}),
    "profile-size-true": _size_true,
}


@lru_cache(maxsize=None)
def _differential_lines():
    # every labeled space on at most 5 points, whose open counts come from
    # their classes, and every 6-point class, whose counts are enumerated
    censuses = [census_records(n) for n in (1, 2, 3, 4, 5)]
    censuses.append(census_records(6, up_to_homeo=True))
    return tuple(line for records in censuses for line in _census_text(records).splitlines()[1:])


@pytest.mark.parametrize("mutation", sorted(LINE_MUTATIONS))
def test_read_agrees_with_the_general_parser(mutation):
    """read_census decodes a line in the writer's layout without the JSON
    parser; on every line, mutated or not, it must give what json.loads and
    _parse_record give, record or error."""
    applied = 0
    for line in _differential_lines():
        obj = json.loads(line)
        mutated = LINE_MUTATIONS[mutation](obj)
        if mutated is None:
            continue
        applied += 1
        header = json.dumps({"format": CENSUS_FORMAT, "n": obj["n"]})
        try:
            expected = _parse_record(json.loads(mutated), obj["n"])
        except json.JSONDecodeError as exc:
            expected = f"line 2: malformed record: {exc}"
        except ValueError as exc:
            expected = f"line 2: {exc}"
        try:
            (got,) = read_census(io.StringIO(header + "\n" + mutated + "\n"))
        except ValueError as exc:
            assert str(exc) == expected, mutated
            continue
        assert not isinstance(expected, str), mutated
        assert (got.id, got.space.min_nbhd, got.profile) == (
            expected.id, expected.space.min_nbhd, expected.profile
        ), mutated
        assert (got.space.opens, got.space.point_closures) == (
            expected.space.opens, expected.space.point_closures
        ), mutated
    assert applied >= 100


def test_read_back_enumerates_opens_once_per_class(upset_enumerations):
    text = _census_text(census_records(5))  # builds the relabelling index
    census._class_open_count.cache_clear()
    upset_enumerations.clear()
    assert len(read_census(io.StringIO(text))) == LABELED_COUNTS[5]
    assert sum(upset_enumerations.values()) <= HOMEO_COUNTS[5]


def test_one_record_round_trips_at_16_points():
    # the read-back count of a space beyond the class index is enumerated
    for t in random_spaces(1616, (16, 16, 16)):
        text = _census_text([CensusRecord(space_id(t), t, profile(t))])
        (rec,) = read_census(io.StringIO(text))
        line = text.splitlines()[1]
        expected = _parse_record(json.loads(line), 16)
        assert (rec.id, rec.space.min_nbhd, rec.profile) == (
            expected.id, t.min_nbhd, expected.profile
        )
        assert line == json.dumps(record_to_obj(rec))
        assert _census_text([rec]) == text


def test_round_trip_is_byte_identical():
    buf = io.StringIO()
    write_census(census_records(3), buf)
    text = buf.getvalue()
    records = read_census(io.StringIO(text))
    assert len(records) == 29
    again = io.StringIO()
    write_census(records, again)
    assert again.getvalue() == text


def test_empty_census_writes_nothing():
    buf = io.StringIO()
    assert write_census([], buf) == 0
    assert buf.getvalue() == ""
    assert read_census(io.StringIO("")) == []


def test_read_rejects_malformed_line():
    buf = io.StringIO()
    write_census(census_records(2), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    lines[2] = "this is not json\n"
    with pytest.raises(ValueError, match="line 3"):
        read_census(io.StringIO("".join(lines)))


MALFORMED_SHAPES = (
    "header-not-object",
    "header-bool-point-count",
    "record-not-object",
    "record-nested-100000-deep",
    "profile-not-object",
    "profile-bool-size",
    "flag-missing",
)


@pytest.mark.parametrize("shape", MALFORMED_SHAPES)
def test_read_rejects_malformed_shapes(shape):
    # a one-point census, so that a header n of true would read as n = 1
    buf = io.StringIO()
    write_census(census_records(1), buf)
    header, first = buf.getvalue().splitlines()[:2]
    obj = json.loads(first)
    record = None
    if shape == "header-not-object":
        header = "[]"
    elif shape == "header-bool-point-count":
        header = json.dumps({**json.loads(header), "n": True})
    elif shape == "record-not-object":
        obj = 5
    elif shape == "record-nested-100000-deep":
        record = "[" * 100_000 + "]" * 100_000
    elif shape == "profile-not-object":
        obj["profile"] = 5
    elif shape == "profile-bool-size":
        obj["profile"]["sizes"]["alpha"] = True
    else:
        del obj["profile"]["gc_mismatch"]
    if record is None:
        record = json.dumps(obj)
    line = "line 1" if shape.startswith("header") else "line 2"
    with pytest.raises(ValueError, match=line):
        read_census(io.StringIO(header + "\n" + record + "\n"))


def test_read_rejects_non_closed_opens():
    rec = next(iter(census_records(3)))
    obj = record_to_obj(rec)
    obj["opens"] = [[], [0], [1], [0, 1, 2]]  # not union-closed
    header = json.dumps({"format": "finitetop-census/1", "n": 3})
    text = header + "\n" + json.dumps(obj) + "\n"
    with pytest.raises(ValueError, match="line 2"):
        read_census(io.StringIO(text))


def test_read_rejects_id_mismatch():
    rec = next(iter(census_records(2)))
    obj = record_to_obj(rec)
    obj["id"] = "n2-000000000000"
    header = json.dumps({"format": "finitetop-census/1", "n": 2})
    with pytest.raises(ValueError, match="does not match"):
        read_census(io.StringIO(header + "\n" + json.dumps(obj) + "\n"))


def test_read_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        read_census(io.StringIO('{"format": "other/9", "n": 2}\n'))


def test_write_rejects_mixed_point_counts():
    records = [
        next(iter(census_records(2))),
        next(iter(census_records(3))),
    ]
    with pytest.raises(ValueError):
        write_census(records, io.StringIO())


def test_profile_obj_round_trip(one_open_point):
    prof = profile(one_open_point)
    assert PropertyProfile.from_obj(prof.to_obj()) == prof
    with pytest.raises(ValueError):
        PropertyProfile.from_obj({"properties": {}, "sizes": {}, "gc_mismatch": False, "so_eq_alpha": False})
