"""Space construction, subspaces, products, preorder tables, the homeomorphism oracle, IO."""

import io
import json
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from conftest import (
    SIXTEEN_POINT_PRODUCTS,
    random_generators,
    random_spaces,
    topologies,
    topology_and_subset,
)
from finitetop import (
    Topology,
    alpha_topology,
    build_topology,
    complement,
    discrete,
    from_preorder,
    indiscrete,
    product,
    space_from_json,
    space_to_json,
    subspace,
)
from finitetop.census import (
    CensusRecord,
    _class_index,
    enumerate_preorders,
    enumerate_topologies,
    homeo_tables,
    labeled_census,
    profile,
    read_census,
    space_id,
    write_census,
)
from finitetop.spaces import (
    _from_table,
    _min_table,
    _upward_closed_sets,
    full_set,
    iter_points,
    mask_of,
    set_text,
    space_from_obj,
    space_to_obj,
)
from oracles import (
    find_homeomorphism,
    is_homeomorphic,
    minimal_nbhd,
    open_hull,
    upward_closed_sets_dfs,
)


def close_family(masks, n):
    """Independent oracle: close a family under pairwise union/intersection."""
    fam = set(masks) | {0, full_set(n)}
    changed = True
    while changed:
        changed = False
        for a in list(fam):
            for b in list(fam):
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return tuple(sorted(fam))


def upsets_scan(n, nbhd):
    """Independent oracle: every mask holding the neighborhood of each of its points."""
    return tuple(
        a for a in range(1 << n) if all(nbhd[x] & ~a == 0 for x in iter_points(a))
    )


# --- construction -------------------------------------------------------------

def test_build_topology_single_open_point(one_open_point):
    assert one_open_point.opens == (0, 0b001, 0b111)


def test_build_topology_indiscrete():
    assert indiscrete(2).opens == (0, 0b11)


def test_build_topology_discrete_is_powerset():
    assert discrete(3).opens == tuple(range(8))


@given(topologies())
def test_build_matches_closure_oracle(t):
    # generating from the opens themselves must reproduce the space, and the
    # opens must equal their own pairwise closure
    assert build_topology(t.n, t.opens) == t
    assert close_family(t.opens, t.n) == t.opens


@given(topologies())
def test_opens_closed_under_union_intersection(t):
    opens = set(t.opens)
    for a in opens:
        for b in opens:
            assert a | b in opens
            assert a & b in opens


@given(topology_and_subset())
def test_complement_involution(ta):
    t, a = ta
    assert complement(complement(a, t.n), t.n) == a


@given(topology_and_subset())
def test_open_iff_contains_min_nbhds(ta):
    t, a = ta
    expected = all(t.min_nbhd[x] & ~a == 0 for x in iter_points(a))
    assert t.is_open(a) == expected


def test_build_topology_rejects_bad_input():
    with pytest.raises(ValueError):
        build_topology(0, [])
    with pytest.raises(ValueError):
        build_topology(17, [])
    with pytest.raises(ValueError):
        build_topology(2, [0b100])  # stray bit
    with pytest.raises(ValueError):
        Topology(3, [0, 1])  # missing full set
    with pytest.raises(ValueError):
        Topology(3, [0, 1, 2, 7])  # not union-closed


def test_minimal_nbhd(one_open_point):
    assert minimal_nbhd(one_open_point, 0) == 0b001
    assert minimal_nbhd(one_open_point, 1) == 0b111
    assert all(minimal_nbhd(discrete(4), x) == 1 << x for x in range(4))
    with pytest.raises(ValueError):
        minimal_nbhd(one_open_point, 3)


# --- subspace ------------------------------------------------------------------

def test_subspace_traces_opens(one_open_point):
    # oracle: trace each open through the carrier and dedupe
    carrier = 0b011
    pts = tuple(iter_points(carrier))
    traced = set()
    for u in one_open_point.opens:
        traced.add(mask_of(pts.index(p) for p in iter_points(u & carrier)))
    sub, back = subspace(one_open_point, carrier)
    assert sub.opens == tuple(sorted(traced)) == (0, 0b01, 0b11)
    assert back == (0, 1)


def test_subspace_full_carrier_is_identity(one_open_point):
    sub, back = subspace(one_open_point, 0b111)
    assert sub == one_open_point
    assert back == (0, 1, 2)


def test_subspace_of_discrete_is_discrete():
    sub, back = subspace(discrete(4), 0b1010)
    assert sub == discrete(2)
    assert back == (1, 3)


def test_subspace_rejects_empty(one_open_point):
    with pytest.raises(ValueError):
        subspace(one_open_point, 0)


@given(topology_and_subset())
def test_subspace_min_nbhds_are_traces(ta):
    t, a = ta
    if a == 0:
        a = 1
    sub, back = subspace(t, a)
    for i, p in enumerate(back):
        assert sub.min_nbhd[i] == mask_of(
            back.index(q) for q in iter_points(t.min_nbhd[p] & a)
        )


# --- product --------------------------------------------------------------------

def test_product_trivials():
    assert product(indiscrete(2), indiscrete(2)) == indiscrete(4)
    assert product(discrete(2), discrete(2)) == discrete(4)


def test_product_of_two_point_spaces_matches_box_closure(sier):
    # oracle: generate from all boxes of opens and close under union/intersection
    boxes = set()
    for u in sier.opens:
        for v in sier.opens:
            boxes.add(
                mask_of(x * 2 + y for x in iter_points(u) for y in iter_points(v))
            )
    assert product(sier, sier).opens == close_family(boxes, 4)
    assert len(product(sier, sier).opens) == 6


@given(topologies(max_n=3), topologies(max_n=3))
def test_product_matches_full_box_generation(t1, t2):
    if t1.n * t2.n > 9:
        return
    boxes = [
        mask_of(x * t2.n + y for x in iter_points(u) for y in iter_points(v))
        for u in t1.opens
        for v in t2.opens
    ]
    assert product(t1, t2) == build_topology(t1.n * t2.n, boxes)


def test_product_matches_generated_topology_beyond_the_census():
    # the product topology is generated by the strips g × Y and X × h, for
    # generators g of the first factor and h of the second
    rng = random.Random(1661)
    for _ in range(60):
        n1 = rng.randint(2, 8)
        n2 = rng.randint(max(2, -(-6 // n1)), 16 // n1)
        g1, g2 = random_generators(rng, n1), random_generators(rng, n2)
        strips = [
            mask_of(x * n2 + y for x in iter_points(u) for y in iter_points(v))
            for u, v in [(g, full_set(n2)) for g in g1] + [(full_set(n1), h) for h in g2]
        ]
        assert product(build_topology(n1, g1), build_topology(n2, g2)) == build_topology(
            n1 * n2, strips
        ), (n1, g1, n2, g2)


def test_product_with_point_is_homeomorphic(one_open_point):
    one = indiscrete(1)
    assert is_homeomorphic(product(one_open_point, one), one_open_point)
    assert is_homeomorphic(product(one, one_open_point), one_open_point)


def test_product_size_overflow():
    with pytest.raises(ValueError):
        product(discrete(5), discrete(4))


# --- preorder correspondence ------------------------------------------------------

def test_preorder_trivials():
    eq = discrete(3).min_nbhd
    assert eq == (1, 2, 4)
    total = indiscrete(3).min_nbhd
    assert total == (7, 7, 7)
    assert from_preorder(eq) == discrete(3)
    assert from_preorder(total) == indiscrete(3)


def test_preorder_round_trip_single_open_point(one_open_point):
    r = one_open_point.min_nbhd
    assert r == (0b001, 0b111, 0b111)
    assert from_preorder(r) == one_open_point
    # equality, hashing and repr follow the table
    assert hash(from_preorder(r)) == hash(one_open_point)
    assert from_preorder((0b001, 0b011, 0b111)) != one_open_point
    assert eval(repr(one_open_point), {"from_preorder": from_preorder}) == one_open_point


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_trip_identity_both_directions(n):
    for t in labeled_census(n):
        assert from_preorder(t.min_nbhd) == t
        assert Topology(n, t.opens) == t
    for r in enumerate_preorders(n):
        assert from_preorder(r).min_nbhd == r


def _assert_point_closures_recorded(t):
    assert t.point_closures == tuple(t.closure(1 << x) for x in range(t.n)), t


# n -> the spaces whose constructors are checked: the labeled census up to
# 4 points, and the 16-point products
def _constructor_pool(n):
    if n == 16:
        return [build() for build in SIXTEEN_POINT_PRODUCTS.values()]
    return labeled_census(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
def test_point_closures_are_recorded_by_every_constructor(n):
    pool = _constructor_pool(n)
    for t in pool:  # _from_table, or product at 16 points
        for built in (
            t,
            from_preorder(t.min_nbhd),
            Topology(n, t.opens),
            build_topology(n, t.opens),
            alpha_topology(t),
            space_from_obj(space_to_obj(t)),
            space_from_obj(space_to_obj(t), complete=True),
        ):
            _assert_point_closures_recorded(built)
        if n <= 4:
            _assert_point_closures_recorded(product(t, t))
            carriers = range(1, full_set(n) + 1)
        else:
            carriers = (*t.min_nbhd, *t.point_closures)
        for a in carriers:
            _assert_point_closures_recorded(subspace(t, a)[0])
    text = io.StringIO()
    write_census((CensusRecord(space_id(t), t, profile(t)) for t in pool), text)
    for rec in read_census(io.StringIO(text.getvalue())):
        _assert_point_closures_recorded(rec.space)
    if n <= 4:
        for t in enumerate_topologies(n, up_to_homeo=True):  # homeo_tables
            _assert_point_closures_recorded(t)


def _assert_builds_as_checked(rows):
    # the unchecked constructor's input is a preorder, and both give one space
    checked, unchecked = from_preorder(rows), _from_table(rows)
    assert checked == unchecked, rows
    assert (checked.opens, checked.point_closures) == (
        unchecked.opens, unchecked.point_closures
    ), rows


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_relabelling_index_tables_are_preorders(n):
    # the index's values are the class tables, checked below
    for table in _class_index(n):
        _assert_builds_as_checked(table)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_class_tables_are_preorders(n):
    for rows in homeo_tables(n):
        _assert_builds_as_checked(rows)


def test_intersection_tables_are_preorders():
    # the table a census line's masks span, for seeded random families
    rng = random.Random(2525)
    for n in range(1, 17):
        for _ in range(20):
            _assert_builds_as_checked(_min_table(n, random_generators(rng, n)))


def test_spaces_pickle_by_their_table():
    for t in (*labeled_census(3), SIXTEEN_POINT_PRODUCTS["sparse-alpha"]()):
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t and copy.opens == t.opens and copy.point_closures == t.point_closures


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_upset_doubling_matches_depth_first_oracle(n):
    for r in enumerate_preorders(n):
        assert from_preorder(r).opens == upward_closed_sets_dfs(n, r), r


@pytest.mark.parametrize("name", sorted(SIXTEEN_POINT_PRODUCTS))
def test_upset_doubling_matches_depth_first_oracle_at_16_points(name):
    t = SIXTEEN_POINT_PRODUCTS[name]()
    assert t.opens == upward_closed_sets_dfs(16, t.min_nbhd)


def test_upset_doubling_matches_depth_first_oracle_beyond_the_census():
    for t in random_spaces(2332):
        assert _upward_closed_sets(t.min_nbhd) == upward_closed_sets_dfs(t.n, t.min_nbhd), t


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_upset_enumeration_matches_scan(n):
    for r in enumerate_preorders(n):
        assert from_preorder(r).opens == upsets_scan(n, r)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_open_and_closed_tests_agree_with_opens(n):
    # every mask of the space, plus masks with points outside it
    full = full_set(n)
    outside = (-1, -(1 << n), 1 << n, full | 1 << n, 1 << 20, (1 << 20) - 1)
    for t in labeled_census(n):
        opens = set(t.opens)
        closed = {complement(u, n) for u in opens}
        for a in (*range(1 << n), *outside):
            assert t.is_open(a) == (a in opens), (t, a)
            assert t.is_closed(a) == (a in closed), (t, a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interior_and_closure_ignore_points_outside_the_space(n):
    # the largest open set inside a and the smallest closed and open sets
    # around it are those of a's points in the space; is_open rejects the mask
    full = full_set(n)
    outside = (1 << n, full | 1 << n, 1 << 20, (1 << 20) - 1, -1, -(1 << n))
    for t in labeled_census(n):
        for extra in outside:
            for a in range(1 << n):
                masked = a | extra
                assert t.interior(masked) == t.interior(masked & full), (t, masked)
                assert t.closure(masked) == t.closure(masked & full), (t, masked)
                assert open_hull(t, masked) == open_hull(t, masked & full), (t, masked)
                assert not t.is_open(masked), (t, masked)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SIXTEEN_POINT_PRODUCTS))
def test_upset_enumeration_matches_scan_at_16_points(name):
    t = SIXTEEN_POINT_PRODUCTS[name]()
    assert t.opens == upsets_scan(16, t.min_nbhd)


def test_preorder_validation():
    with pytest.raises(ValueError):
        from_preorder((0b10, 0b10))  # not reflexive
    with pytest.raises(ValueError):
        from_preorder((0b011, 0b110, 0b100))  # 0<=1, 1<=2, not 0<=2
    with pytest.raises(ValueError):
        from_preorder((0b01, 0b110))  # row names a third point
    with pytest.raises(ValueError):
        from_preorder(())  # no points
    with pytest.raises(ValueError):
        from_preorder(tuple(1 << x for x in range(17)))  # past the point cap


# --- homeomorphism oracle ----------------------------------------------------------

def test_homeomorphic_relabelings():
    assert is_homeomorphic(build_topology(3, [0b001]), build_topology(3, [0b010]))
    assert is_homeomorphic(build_topology(2, [0b01]), build_topology(2, [0b10]))


def test_not_homeomorphic_different_open_counts():
    assert not is_homeomorphic(discrete(3), indiscrete(3))


def test_homeomorphism_witness_maps_opens(one_open_point):
    other = build_topology(3, [0b100])
    fn = find_homeomorphism(one_open_point, other)
    assert fn is not None
    mapped = {mask_of(fn[p] for p in iter_points(u)) for u in one_open_point.opens}
    assert mapped == set(other.opens)


def test_homeomorphism_size_mismatch():
    with pytest.raises(ValueError):
        is_homeomorphic(discrete(2), discrete(3))


def test_homeomorphism_is_equivalence_on_3point_census():
    pool = labeled_census(3)
    rel = {
        (i, j): is_homeomorphic(t1, t2)
        for i, t1 in enumerate(pool)
        for j, t2 in enumerate(pool)
    }
    for i in range(len(pool)):
        assert rel[i, i]
    for (i, j), v in rel.items():
        assert v == rel[j, i]
        if v:
            for k in range(len(pool)):
                assert rel[j, k] == rel[i, k]


# --- structured text format -----------------------------------------------------

def test_space_json_round_trip(one_open_point):
    text = space_to_json(one_open_point)
    assert json.loads(text) == {"n": 3, "opens": [[], [0], [0, 1, 2]]}
    assert space_from_json(text) == one_open_point


@given(topologies())
def test_space_json_round_trip_random(t):
    assert space_from_json(space_to_json(t)) == t


def test_space_json_round_trip_beyond_the_census():
    for t in random_spaces(3443):
        assert space_from_json(space_to_json(t)) == t, t


def test_parser_rejects_non_closed_family():
    bad = json.dumps({"n": 3, "opens": [[], [0], [1], [0, 1, 2]]})
    with pytest.raises(ValueError):
        space_from_json(bad)
    completed = space_from_json(bad, complete=True)
    assert completed == build_topology(3, [0b001, 0b010])


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"n": 3}',
        '{"n": "three", "opens": []}',
        '{"n": 3, "opens": [[0, 5]]}',
        '{"n": 0, "opens": [[]]}',
        '{"n": 3, "opens": 5}',
        '{"n": true, "opens": [[], [0]]}',
        '{"n": 2, "opens": [[], [0, true], [0, 1]]}',
        '{"n": 2, "opens": [[], 1, [0, 1]]}',
    ],
)
def test_parser_rejects_malformed(text):
    with pytest.raises(ValueError):
        space_from_json(text)


def test_set_text_labels():
    assert set_text(0, 3) == "∅"
    assert set_text(0b111, 3) == "X"
    assert set_text(0b011, 3) == "{a,b}"
