"""Family predicates, the refinement reduction against its oracle, and covering properties."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MODE_PAIRS, SCANNED_PAIRS, SIXTEEN_POINT_PRODUCTS, topologies
from finitetop import (
    alpha_topology,
    check_property,
    discrete,
    indiscrete,
    property_reason,
    set_class,
)
from finitetop.census import homeo_tables, labeled_census
from finitetop.covers import PROPERTY_TAGS, SIGMA_CLOSURE_PRESERVING, SIGMA_DISCRETE
from finitetop.spaces import from_preorder, full_set
from oracles import (
    CONSTRAINT_PREDICATES,
    CONSTRAINTS,
    SetFamily,
    canonical_cover,
    covers_space,
    every_cover_has_refinement,
    every_cover_has_refinement_exhaustive,
    family_predicate,
    family_predicate_generic,
    has_refinement,
    has_refinement_exhaustive,
    hull,
    irredundant_covers,
    open_hull,
    refines,
)

# the side conditions production states as constants
SIDE_CONDITIONS = {
    "sigma-discrete": SIGMA_DISCRETE,
    "sigma-closure-preserving": SIGMA_CLOSURE_PRESERVING,
}


# --- refines -------------------------------------------------------------------

def test_refines_basics(one_open_point):
    f = SetFamily(3, (0b001, 0b011))
    assert refines(f, f)
    assert refines(SetFamily(3, (0,)), f)
    assert not refines(SetFamily(3, (0b011,)), SetFamily(3, (0b001, 0b010)))
    with pytest.raises(ValueError):
        refines(f, SetFamily(2, (0b01,)))


def test_family_rejects_duplicates():
    with pytest.raises(ValueError):
        SetFamily(2, (1, 1))


# --- structural predicates --------------------------------------------------------

def test_discrete_family_examples(one_open_point):
    assert family_predicate(one_open_point, SetFamily(3, (0b001,)), "discrete")
    # the only open around b meets both singletons
    assert not family_predicate(one_open_point, SetFamily(3, (0b010, 0b100)), "discrete")


@given(topologies(max_n=3), st.data())
def test_finite_collapse_predicates_hold(t, data):
    members = data.draw(
        st.lists(st.integers(0, full_set(t.n)), max_size=4, unique=True)
    )
    fam = SetFamily(t.n, tuple(members))
    for pred in ("sigma-discrete", "locally-finite", "locally-countable",
                 "closure-preserving", "sigma-closure-preserving"):
        assert family_predicate(t, fam, pred)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generic_forms_agree_with_production(n):
    """The definitional search forms must reproduce the collapse theorems."""
    for t in labeled_census(n):
        families = [
            SetFamily(n, tuple(set_class(t, "closed")[:4])),
            SetFamily(n, tuple(m for m in set_class(t, "semi-open") if m)[:3]),
            SetFamily(n, tuple(1 << x for x in range(n))),
        ]
        for fam in families:
            for pred in (
                "discrete",
                "sigma-discrete",
                "locally-finite",
                "locally-countable",
                "closure-preserving",
                "sigma-closure-preserving",
            ):
                generic = family_predicate_generic(t, fam, pred)
                assert generic == family_predicate(t, fam, pred), (t, fam, pred)
                if pred in SIDE_CONDITIONS:
                    assert generic == SIDE_CONDITIONS[pred], (t, fam, pred)


def test_family_predicate_unknown(one_open_point):
    with pytest.raises(ValueError):
        family_predicate(one_open_point, SetFamily(3, ()), "scattered")


# --- canonical covers ---------------------------------------------------------------

def test_canonical_alpha_cover_examples(one_open_point):
    assert canonical_cover(one_open_point, "alpha-open").members == (0b001, 0b011, 0b101)
    assert canonical_cover(discrete(3), "alpha-open").members == (1, 2, 4)
    assert canonical_cover(indiscrete(2), "alpha-open").members == (0b11,)


@given(topologies(max_n=3))
@settings(max_examples=40)
def test_canonical_alpha_cover_refines_every_alpha_cover(t):
    canonical = canonical_cover(t, "alpha-open")
    assert covers_space(t, canonical)
    alpha = set_class(t, "alpha-open")
    assert all(m in alpha for m in canonical.members)
    for cover in irredundant_covers(t, "alpha-open"):
        assert refines(canonical, cover)


def test_canonical_cover_unknown_kind(one_open_point):
    with pytest.raises(ValueError):
        canonical_cover(one_open_point, "semi-open")


# --- has_refinement (the reduction oracle) ------------------------------------------

def test_sigma_discrete_closed_refinement_fails(one_open_point):
    cover = canonical_cover(one_open_point, "alpha-open")
    assert not has_refinement(one_open_point, cover, "closed+sigma-discrete")
    assert not has_refinement_exhaustive(one_open_point, cover, "closed+sigma-discrete")


def test_open_locally_finite_refinement_fails(one_open_point):
    cover = canonical_cover(one_open_point, "alpha-open")
    assert not has_refinement(one_open_point, cover, "open+locally-finite")


def test_discrete_space_refines_everything():
    d = discrete(3)
    cover = canonical_cover(d, "alpha-open")
    for constraint in CONSTRAINTS:
        assert has_refinement(d, cover, constraint)


def test_refinement_witness_is_valid(one_open_point):
    d = discrete(3)
    cover = canonical_cover(d, "alpha-open")
    for constraint, (class_kind, dense) in CONSTRAINTS.items():
        ok, witness = has_refinement_exhaustive(d, cover, constraint, want_witness=True)
        assert ok
        assert refines(witness, cover)
        cls = set_class(d, class_kind)
        assert all(m in cls for m in witness.members)
        if dense:
            assert d.closure(witness.union()) == full_set(3)
        else:
            assert witness.union() == full_set(3)
        for pred in CONSTRAINT_PREDICATES[constraint]:
            assert family_predicate_generic(d, witness, pred)


def test_has_refinement_rejects_non_cover(one_open_point):
    with pytest.raises(ValueError):
        has_refinement(one_open_point, SetFamily(3, (0b001,)), "closed+sigma-discrete")
    with pytest.raises(ValueError):
        has_refinement(
            one_open_point, canonical_cover(one_open_point, "alpha-open"), "open+compact"
        )


# --- mode agreement --------------------------------------------------------------------
#
# Production's verdict (a table scan or a stated constant), the reduction
# and the exhaustive search must agree; for the constants this checks the
# finite-space theorem behind each one.

@pytest.mark.parametrize("n", [1, 2, 3])
def test_simplified_agrees_with_exhaustive(n):
    for t in labeled_census(n):
        for s in (t, alpha_topology(t)):
            for (cover_kind, constraint), production in MODE_PAIRS.items():
                simplified = every_cover_has_refinement(s, cover_kind, constraint)
                exhaustive = every_cover_has_refinement_exhaustive(s, cover_kind, constraint)
                assert production(s) == simplified == exhaustive, (s, cover_kind, constraint)


@pytest.mark.parametrize("cover_kind, constraint", SCANNED_PAIRS)
def test_simplified_agrees_with_exhaustive_at_4_points(cover_kind, constraint):
    production = MODE_PAIRS[cover_kind, constraint]
    for t in labeled_census(4):
        simplified = every_cover_has_refinement(t, cover_kind, constraint)
        exhaustive = every_cover_has_refinement_exhaustive(t, cover_kind, constraint)
        assert production(t) == simplified == exhaustive, t


@pytest.mark.parametrize(
    "pool", ["labeled-5", "classes-6", "classes-7", *sorted(SIXTEEN_POINT_PRODUCTS)]
)
def test_scanned_properties_match_reduction_beyond_exhaustive_reach(pool):
    # with the tests above (n <= 4), production meets the reduction on every
    # space of the nodec lemma's test
    if pool == "labeled-5":
        spaces = labeled_census(5)
    elif pool.startswith("classes-"):
        spaces = map(from_preorder, homeo_tables(int(pool[-1])))
    else:
        spaces = (SIXTEEN_POINT_PRODUCTS[pool](),)
    for t in spaces:
        for cover_kind, constraint in SCANNED_PAIRS:
            production = MODE_PAIRS[cover_kind, constraint](t)
            simplified = every_cover_has_refinement(t, cover_kind, constraint)
            assert production == simplified, (t, cover_kind, constraint)


@pytest.mark.parametrize("n", [2, 3])
def test_per_cover_mode_agreement(n):
    for t in labeled_census(n):
        for cover in irredundant_covers(t, "alpha-open"):
            for constraint in CONSTRAINTS:
                assert has_refinement(t, cover, constraint) == has_refinement_exhaustive(
                    t, cover, constraint
                )


def test_lemma_lfm1_sides_agree_with_oracle():
    """With alpha-open covers, a sigma-discrete closed refinement exists iff a
    sigma-closure-preserving one does; both sides are alpha-subparacompactness."""
    verdicts = set()
    for n in (1, 2, 3):
        for t in labeled_census(n):
            by_discrete = every_cover_has_refinement_exhaustive(
                t, "alpha-open", "closed+sigma-discrete"
            )
            by_closure = every_cover_has_refinement_exhaustive(
                t, "alpha-open", "closed+sigma-closure-preserving"
            )
            production = check_property(t, "alpha-subparacompact")
            assert by_discrete == by_closure == production, t
            verdicts.add(by_discrete)
    assert verdicts == {True, False}


# --- check_property ------------------------------------------------------------------------

def test_property_profile_of_single_open_point(one_open_point):
    assert check_property(one_open_point, "compact")
    assert not check_property(one_open_point, "alpha-subparacompact")
    assert not check_property(one_open_point, "alpha-paracompact")
    assert check_property(one_open_point, "subparacompact")
    assert check_property(one_open_point, "extremally-disconnected")
    assert not check_property(one_open_point, "nodec")
    assert not check_property(one_open_point, "hausdorff")


def test_discrete_space_has_every_property():
    d = discrete(3)
    for prop in PROPERTY_TAGS:
        assert check_property(d, prop)


def test_trivially_true_properties_expose_reasons():
    for prop in (
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
        "alpha-compact",
    ):
        assert property_reason(prop)
        for t in labeled_census(2):
            assert check_property(t, prop)
    assert property_reason("nodec") is None


@pytest.mark.parametrize("n", [1, 2])
def test_subcover_collapse_against_literal_search(n):
    """Literal bounded oracle: every irredundant semi-open cover has a finite
    subfamily whose closures (resp. semi-closures) cover."""
    for t in labeled_census(n):
        for cover in irredundant_covers(t, "semi-open"):
            k = len(cover.members)
            for hull_kind in ("closure", "semi-closure"):
                found = False
                for pick in range(1, 1 << k):
                    u = 0
                    for i in range(k):
                        if pick >> i & 1:
                            u |= hull(t, cover.members[i], hull_kind)
                    if u == full_set(n):
                        found = True
                        break
                assert found


@pytest.mark.parametrize("n", [2, 3])
def test_hausdorff_iff_discrete(n):
    for t in labeled_census(n):
        assert check_property(t, "hausdorff") == (t == discrete(n))


@pytest.mark.parametrize("n", [2, 3])
def test_normal_matches_literal_oracle(n):
    for t in labeled_census(n):
        closed = set_class(t, "closed")
        literal = all(
            any(
                u & v == 0 and a & ~u == 0 and b & ~v == 0
                for u in t.opens
                for v in t.opens
            )
            for a in closed
            for b in closed
            if a & b == 0
        )
        assert check_property(t, "normal") == literal


def extremally_disconnected_loop(t):
    # the closure of every open set is open
    return all(t.is_open(t.closure(u)) for u in t.opens)


def normal_loop(t):
    # disjoint closed sets have disjoint open hulls
    closed = set_class(t, "closed")
    return all(
        open_hull(t, a) & open_hull(t, b) == 0
        for a in closed
        for b in closed
        if a & b == 0
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_forms_match_open_set_loops(n):
    for t in labeled_census(n):
        for s in (t, alpha_topology(t)):
            assert check_property(s, "extremally-disconnected") == (
                extremally_disconnected_loop(s)
            ), s
            assert check_property(s, "normal") == normal_loop(s), s


@given(topologies())
@settings(max_examples=50)
def test_nodec_iff_alpha_adds_nothing(t):
    assert check_property(t, "nodec") == (alpha_topology(t) == t)


def test_check_property_unknown(one_open_point):
    with pytest.raises(ValueError):
        check_property(one_open_point, "metrizable")
