"""Hull operators, the alpha-refinement, and set-class predicates."""

import sys
import tracemalloc

import pytest
from hypothesis import given

from conftest import SIXTEEN_POINT_PRODUCTS, random_spaces, topologies, topology_and_subset
from finitetop import (
    CLASS_KINDS,
    HULL_KINDS,
    alpha_topology,
    check_property,
    discrete,
    hull_table,
    indiscrete,
    set_class,
)
from finitetop.census import labeled_census
from finitetop.operators import _SCOPE, _table_lookups, table_scope
from finitetop.spaces import complement, full_set
from oracles import class_scan_per_mask, hull, is_in_class, open_hull


# --- independent oracles ---------------------------------------------------------

def closure_oracle(t, a):
    """Smallest closed superset, scanning the closed family outright."""
    out = full_set(t.n)
    for c in set_class(t, "closed"):
        if a & ~c == 0:
            out &= c
    return out


def alpha_open_scan(t):
    """The alpha-open sets by their defining formula a ⊆ int(cl(int a))."""
    return tuple(
        a for a in range(1 << t.n) if a & ~t.interior(t.closure(t.interior(a))) == 0
    )


def interior_oracle(t, a):
    out = 0
    for u in t.opens:
        if u & ~a == 0:
            out |= u
    return out


def semi_closed_literal(t, a):
    comp = complement(a, t.n)
    return comp & ~t.closure(t.interior(comp)) == 0


def semi_closure_oracle(t, a):
    out = full_set(t.n)
    for c in range(1 << t.n):
        if a & ~c == 0 and semi_closed_literal(t, c):
            out &= c
    return out


def semi_interior_oracle(t, a):
    out = 0
    for s in set_class(t, "semi-open"):
        if s & ~a == 0:
            out |= s
    return out


def g_closed_literal(t, a):
    # complement of the literal g-open form: every closed subset of the
    # complement sits inside its interior
    b = complement(a, t.n)
    return all(
        c & ~t.interior(b) == 0
        for c in set_class(t, "closed")
        if c & ~b == 0
    )


def g_alpha_closed_literal(t, alpha_opens, a):
    # every alpha-open superset, from the formula scan, holds the alpha-closure,
    # itself the intersection of the complements of the alpha-opens around a
    full = full_set(t.n)
    cla = full
    for u in alpha_opens:
        if a & u == 0:
            cla &= full ^ u
    return all(cla & ~u == 0 for u in alpha_opens if a & ~u == 0)


def semi_open_scan(t):
    return tuple(u for u in range(1 << t.n) if u & ~t.closure(t.interior(u)) == 0)


def sg_closed_containment(t, a, semi_opens=None):
    # the definition: every semi-open superset, from the formula scan,
    # absorbs the semi-closure a ∪ int(cl a)
    if semi_opens is None:
        semi_opens = semi_open_scan(t)
    scl = a | t.interior(t.closure(a))
    return all(scl & ~u == 0 for u in semi_opens if a & ~u == 0)


def sg_closed_literal(t, a):
    # complement of the literal sg-open form, with the semi-interior taken
    # as the union of semi-open subsets (the independent route)
    b = complement(a, t.n)
    sint = semi_interior_oracle(t, b)
    return all(
        c & ~sint == 0
        for c in range(1 << t.n)
        if semi_closed_literal(t, c) and c & ~b == 0
    )


def f_sigma_g_alpha_closed_scan(t):
    """The unions of gα-closed sets: each mask its gα-closed subsets cover.

    On a finite space every union is finite, so this is the class as
    defined, computed without the closed form that it equals.
    """
    members = set_class(t, "g-alpha-closed")
    out = []
    for a in range(1 << t.n):
        covered = 0
        for c in members:
            if c & ~a == 0:
                covered |= c
        if covered == a:
            out.append(a)
    return tuple(out)


# the literal formula of each dual kind: the three stated outright, the
# others as the partner kind's formula on the complement
def _on_complement(formula):
    return lambda t, a: formula(t, complement(a, t.n))


DUAL_LITERALS = {
    "closed": lambda t, a: t.is_closed(a),
    "regular-closed": lambda t, a: a == t.closure(t.interior(a)),
    "codense": lambda t, a: t.interior(a) == 0,
    "semi-closed": _on_complement(lambda t, b: b & ~t.closure(t.interior(b)) == 0),
    "alpha-closed": _on_complement(
        lambda t, b: b & ~t.interior(t.closure(t.interior(b))) == 0
    ),
    "g-open": _on_complement(lambda t, b: t.closure(b) & ~open_hull(t, b) == 0),
    "sg-open": _on_complement(sg_closed_containment),
}


# --- hulls ------------------------------------------------------------------------

def test_hull_examples(one_open_point):
    assert hull(one_open_point, 0b001, "closure") == 0b111
    assert hull(one_open_point, 0b011, "interior") == 0b001
    assert hull(one_open_point, 0b010, "semi-closure") == 0b010


@given(topology_and_subset())
def test_closure_interior_fixed_points(ta):
    t, a = ta
    assert hull(t, 0, "closure") == 0
    assert hull(t, full_set(t.n), "interior") == full_set(t.n)
    assert t.is_closed(hull(t, a, "closure"))
    assert t.is_open(hull(t, a, "interior"))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hulls_match_oracles_exhaustively(n):
    for t in labeled_census(n):
        for a in range(1 << n):
            assert hull(t, a, "closure") == closure_oracle(t, a)
            assert hull(t, a, "interior") == interior_oracle(t, a)
            assert hull(t, a, "semi-closure") == semi_closure_oracle(t, a)
            assert hull(t, a, "semi-interior") == semi_interior_oracle(t, a)


@given(topology_and_subset())
def test_semi_closure_closed_form(ta):
    # derived fixed-point form: smallest semi-closed superset is a ∪ int(cl a)
    t, a = ta
    assert hull(t, a, "semi-closure") == a | t.interior(t.closure(a))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hull_tables_match_per_mask_hulls(n):
    # the tables of one scan against the space's methods, in T and in T^α
    for t in labeled_census(n):
        for s in (t, alpha_topology(t)):
            for kind in HULL_KINDS:
                assert hull_table(s, kind) == [hull(s, a, kind) for a in range(1 << n)]


@pytest.mark.parametrize("name", sorted(SIXTEEN_POINT_PRODUCTS))
def test_semi_closure_table_matches_hull_at_16_points(name):
    # the table prop-p1 reads, on every mask of a 16-point product
    t = SIXTEEN_POINT_PRODUCTS[name]()
    table = hull_table(t, "semi-closure")
    assert table == [hull(t, a, "semi-closure") for a in range(1 << t.n)]


def test_hull_unknown_kind(one_open_point):
    with pytest.raises(ValueError):
        hull(one_open_point, 0, "midpoint")


@pytest.mark.parametrize("kind", HULL_KINDS)
def test_hull_rejects_points_outside_the_space(one_open_point, kind):
    with pytest.raises(ValueError):
        hull(one_open_point, 0b1000, kind)


# --- alpha topology ----------------------------------------------------------------

def test_alpha_topology_single_open_point(one_open_point):
    assert alpha_topology(one_open_point).opens == (0, 0b001, 0b011, 0b101, 0b111)


def test_alpha_topology_discrete_fixed():
    assert alpha_topology(discrete(3)) == discrete(3)


def test_alpha_topology_two_point_sierpinski_fixed(sier):
    # oracle: test all four subsets against the membership formula
    expected = tuple(
        a
        for a in range(4)
        if a & ~sier.interior(sier.closure(sier.interior(a))) == 0
    )
    assert alpha_topology(sier).opens == expected == sier.opens


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_alpha_topology_matches_formula_scan(n):
    # Njåstad's neighborhood table against the defining formula, every space
    for t in labeled_census(n):
        assert alpha_topology(t).opens == alpha_open_scan(t)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SIXTEEN_POINT_PRODUCTS))
def test_alpha_topology_matches_formula_scan_at_16_points(name):
    t = SIXTEEN_POINT_PRODUCTS[name]()
    assert alpha_topology(t).opens == alpha_open_scan(t)


def test_alpha_topology_matches_formula_scan_beyond_the_census():
    for t in random_spaces(4554):
        assert alpha_topology(t).opens == alpha_open_scan(t), t


def test_sixteen_point_products_cover_both_verdicts():
    verdicts = {
        name: check_property(build(), "alpha-subparacompact")
        for name, build in SIXTEEN_POINT_PRODUCTS.items()
    }
    assert verdicts["discrete"] is True
    assert verdicts["question1-witness"] is False


@given(topologies())
def test_alpha_topology_finer_and_idempotent(t):
    ta = alpha_topology(t)
    assert set(t.opens) <= set(ta.opens)
    assert alpha_topology(ta) == ta


# --- class predicates ----------------------------------------------------------------

def test_g_closed_flips_under_refinement(one_open_point):
    a = 0b011
    assert is_in_class(one_open_point, a, "g-closed")
    assert not is_in_class(alpha_topology(one_open_point), a, "g-closed")


@given(topologies())
def test_empty_set_is_in_every_closed_like_class(t):
    for kind in (
        "closed",
        "semi-closed",
        "regular-closed",
        "alpha-closed",
        "g-closed",
        "sg-closed",
        "g-alpha-closed",
        "f-sigma-g-alpha-closed",
        "nowhere-dense",
    ):
        assert is_in_class(t, 0, kind)


def test_regular_closed_example(one_open_point):
    # cl(int {b,c}) = cl ∅ = ∅, so {b,c} is not regular closed
    assert not is_in_class(one_open_point, 0b110, "regular-closed")


def test_set_class_examples(one_open_point):
    assert set_class(one_open_point, "semi-open") == (0, 0b001, 0b011, 0b101, 0b111)
    assert set_class(one_open_point, "regular-closed") == (0, 0b111)
    assert set_class(one_open_point, "closed") == (0, 0b110, 0b111)


def test_discrete_classes_are_powerset():
    d = discrete(3)
    for kind in ("open", "closed", "semi-open", "g-closed", "sg-closed", "clopen"):
        assert set_class(d, kind) == tuple(range(8))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_open_and_closed_classes_match_formula_scan(n):
    for t in labeled_census(n):
        for kind in ("open", "closed"):
            assert set_class(t, kind) == class_scan_per_mask(t, kind)


def test_indiscrete_closed_sets():
    assert set_class(indiscrete(2), "closed") == (0, 0b11)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_literal_forms_agree_exhaustively(n):
    """Closed forms versus the literal scans over opens and alpha-opens."""
    for t in labeled_census(n):
        alpha_opens = alpha_open_scan(t)
        for a in range(1 << n):
            assert is_in_class(t, a, "g-closed") == g_closed_literal(t, a)
            assert is_in_class(t, a, "g-alpha-closed") == g_alpha_closed_literal(
                t, alpha_opens, a
            )
            assert is_in_class(t, a, "sg-closed") == sg_closed_literal(t, a)
            assert is_in_class(t, a, "g-open") == is_in_class(
                t, complement(a, n), "g-closed"
            )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dual_classes_match_literal_formulas(n):
    """Each dual class, built from its partner's complements, against a scan."""
    for t in labeled_census(n):
        for kind, literal in DUAL_LITERALS.items():
            scan = tuple(a for a in range(1 << n) if literal(t, a))
            assert set_class(t, kind) == scan, (t, kind)
            assert all(is_in_class(t, a, kind) == (a in scan) for a in range(1 << n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sg_closed_closed_form_matches_definition(n):
    # the closed form against the semi-open supersets, in T and in T^α
    for t in labeled_census(n):
        for s in (t, alpha_topology(t)):
            semi_opens = semi_open_scan(s)
            expected = tuple(
                a for a in range(1 << n) if sg_closed_containment(s, a, semi_opens)
            )
            assert set_class(s, "sg-closed") == expected, s


def test_kind_lists_come_from_the_tables():
    # each primal kind followed by its dual, as the lists were written out
    assert CLASS_KINDS == (
        "open", "closed", "semi-open", "semi-closed", "regular-open",
        "regular-closed", "alpha-open", "alpha-closed", "preopen", "beta-open",
        "nowhere-dense", "dense", "codense", "clopen", "g-closed", "g-open",
        "sg-closed", "sg-open", "g-alpha-closed", "f-sigma-g-alpha-closed",
    )
    assert HULL_KINDS == (
        "closure", "interior", "semi-closure", "alpha-closure",
        "alpha-semi-closure", "semi-interior",
    )


@given(topology_and_subset())
def test_alpha_open_two_routes(ta):
    # membership formula versus the materialized refinement
    t, a = ta
    assert is_in_class(t, a, "alpha-open") == alpha_topology(t).is_open(a)


@given(topology_and_subset())
def test_complement_duality(ta):
    t, a = ta
    comp = complement(a, t.n)
    assert is_in_class(t, a, "semi-closed") == is_in_class(t, comp, "semi-open")
    assert is_in_class(t, a, "alpha-closed") == is_in_class(t, comp, "alpha-open")
    assert is_in_class(t, a, "codense") == is_in_class(t, comp, "dense")


@given(topology_and_subset())
def test_f_sigma_union_semantics(ta):
    # pointwise witnesses are exactly "union of g-alpha-closed subsets"
    t, a = ta
    members = [c for c in set_class(t, "g-alpha-closed") if c & ~a == 0]
    union = 0
    for c in members:
        union |= c
    assert is_in_class(t, a, "f-sigma-g-alpha-closed") == (union == a)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_f_sigma_g_alpha_closed_is_the_union_closure(n):
    # the class collapses onto the gα-closed class because closure is
    # finitely additive; judge that against the unions, in T and in T^α
    for t in labeled_census(n):
        for s in (t, alpha_topology(t)):
            assert set_class(s, "f-sigma-g-alpha-closed") == f_sigma_g_alpha_closed_scan(s), s


# kinds whose per-mask formula scans a 16-point space in well under a
# second, together reading every lookup: closure, interior and open hull
CHEAP_KINDS = ("semi-open", "dense", "g-closed")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_scans_match_per_mask_formulas(n):
    """Every kind, scanned on tables and asked per mask, against the
    per-mask formulas over the space's methods, in T and in T^α."""
    for t in labeled_census(n):
        for s in (t, alpha_topology(t)):
            for kind in CLASS_KINDS:
                scan = class_scan_per_mask(s, kind)
                assert set_class(s, kind) == scan, (s, kind)
                asked = tuple(a for a in range(1 << n) if is_in_class(s, a, kind))
                assert asked == scan, (s, kind)


@pytest.mark.parametrize("name", sorted(SIXTEEN_POINT_PRODUCTS))
def test_class_scans_match_per_mask_formulas_at_16_points(name):
    t = SIXTEEN_POINT_PRODUCTS[name]()
    for kind in CHEAP_KINDS:
        assert set_class(t, kind) == class_scan_per_mask(t, kind), kind


def test_class_scan_tables_do_not_outlive_the_scan():
    # what stays after the scan is its cached result; one 65,536-entry
    # table left behind would add at least a list of that length
    t = SIXTEEN_POINT_PRODUCTS["sparse-alpha"]()
    set_class.cache_clear()  # a growing cache dict would resize mid-measure
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        members = set_class(t, "semi-open")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    result = sys.getsizeof(members) + sum(sys.getsizeof(a) for a in members)
    assert retained - result < sys.getsizeof([0] * (1 << t.n))


def _scans(spaces, class_kinds, hull_kinds):
    # every class and hull table asked for, with no class answered from the cache
    set_class.cache_clear()
    return (
        {(s, kind): set_class(s, kind) for s in spaces for kind in class_kinds},
        {(s, kind): hull_table(s, kind) for s in spaces for kind in hull_kinds},
    )


def test_scans_in_one_scope_match_scans_outside():
    # one scope over every space with n <= 4 and its α-refinement: a scope
    # that hands one space another's tables breaks the scans
    spaces = [s for n in (1, 2, 3, 4) for t in labeled_census(n) for s in (t, alpha_topology(t))]
    with table_scope():
        inside = _scans(spaces, CLASS_KINDS, HULL_KINDS)
    assert inside == _scans(spaces, CLASS_KINDS, HULL_KINDS)
    for (s, kind), members in inside[0].items():
        assert members == class_scan_per_mask(s, kind), (s, kind)


def test_scans_in_one_scope_match_scans_outside_at_16_points():
    spaces = [build() for _, build in sorted(SIXTEEN_POINT_PRODUCTS.items())]
    with table_scope():
        inside = _scans(spaces, CHEAP_KINDS, ())
    assert inside == _scans(spaces, CHEAP_KINDS, ())
    for (s, kind), members in inside[0].items():
        assert members == class_scan_per_mask(s, kind), kind


def test_scope_tables_do_not_outlive_the_scope():
    # as test_class_scan_tables_do_not_outlive_the_scan, measured after the
    # scope that held the tables has ended
    t = SIXTEEN_POINT_PRODUCTS["sparse-alpha"]()
    set_class.cache_clear()  # a growing cache dict would resize mid-measure
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with table_scope():
            members = set_class(t, "semi-open")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    result = sys.getsizeof(members) + sum(sys.getsizeof(a) for a in members)
    assert retained - result < sys.getsizeof([0] * (1 << t.n))


def test_nested_scope_restores_the_outer_one_when_it_raises(one_open_point):
    t = one_open_point
    with table_scope():
        outer = _table_lookups(t)
        with pytest.raises(KeyError):
            with table_scope():
                assert _table_lookups(t) is not outer
                raise KeyError(t)
        assert _table_lookups(t) is outer
    assert _SCOPE.get() is None
    assert _table_lookups(t) is not _table_lookups(t)


def test_g_alpha_kinds_share_one_cached_tuple():
    # both kinds are the g-closed class of T^α, scanned once
    t = SIXTEEN_POINT_PRODUCTS["question1-witness"]()
    refined = set_class(alpha_topology(t), "g-closed")
    assert set_class(t, "g-alpha-closed") is refined
    assert set_class(t, "f-sigma-g-alpha-closed") is refined


def test_unknown_class_kind(one_open_point):
    with pytest.raises(ValueError):
        is_in_class(one_open_point, 0, "almost-open")
    with pytest.raises(ValueError):
        set_class(one_open_point, "almost-open")
    # the alpha hulls are not classes, nor the refined classes hulls
    with pytest.raises(ValueError):
        set_class(one_open_point, "alpha-closure")
    with pytest.raises(ValueError):
        hull(one_open_point, 0, "g-alpha-closed")
