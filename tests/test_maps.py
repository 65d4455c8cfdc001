"""Map predicates, map enumeration, and the image-law verdicts."""

import pytest

from finitetop import (
    SpaceMap,
    alpha_topology,
    discrete,
    enumerate_maps,
    indiscrete,
    map_predicate,
    set_class,
    verify_fm1,
)
from finitetop.census import labeled_census
from finitetop.maps import MAP_KINDS


def test_identity_satisfies_everything(one_open_point):
    ident = SpaceMap(one_open_point, one_open_point, (0, 1, 2))
    for kind in MAP_KINDS:
        assert map_predicate(ident, kind)


def test_constant_map_is_not_closed(one_open_point):
    # the image of the closed set {b,c} is {a}, which is not closed
    const = SpaceMap(one_open_point, one_open_point, (0, 0, 0))
    assert not map_predicate(const, "closed")
    assert map_predicate(const, "continuous")
    assert not map_predicate(const, "surjective")


def test_discrete_domain_maps_are_continuous_and_irresolute():
    d = discrete(3)
    for cod in labeled_census(2):
        for f in enumerate_maps(d, cod):
            assert map_predicate(f, "continuous")
            assert map_predicate(f, "alpha-irresolute")


def test_enumerate_maps_counts():
    one = indiscrete(1)
    two = indiscrete(2)
    three = indiscrete(3)
    assert len(list(enumerate_maps(one, two))) == 2
    assert len(list(enumerate_maps(two, two, surjective_only=True))) == 2
    assert len(list(enumerate_maps(three, two, surjective_only=True))) == 6


def test_enumerate_maps_budget():
    with pytest.raises(ValueError):
        enumerate_maps(discrete(5), discrete(5), budget=100)


def test_map_validation(one_open_point):
    with pytest.raises(ValueError):
        SpaceMap(one_open_point, one_open_point, (0, 1))
    with pytest.raises(ValueError):
        SpaceMap(one_open_point, one_open_point, (0, 1, 5))


def test_image_preimage(one_open_point):
    f = SpaceMap(one_open_point, one_open_point, (0, 0, 1))
    assert f.image(0b110) == 0b011
    assert f.preimage(0b001) == 0b011
    assert f.preimage(0b100) == 0


def test_alpha_irresolute_two_routes():
    """Pulling back refined opens equals continuity between the refinements."""
    for dom in labeled_census(2):
        for cod in labeled_census(2):
            for f in enumerate_maps(dom, cod):
                induced = SpaceMap(alpha_topology(dom), alpha_topology(cod), f.fn)
                assert map_predicate(f, "alpha-irresolute") == map_predicate(
                    induced, "continuous"
                )


# the definitional loops over open and closed families
MAP_LOOPS = {
    "continuous": lambda f: all(
        f.domain.is_open(f.preimage(v)) for v in f.codomain.opens
    ),
    "open": lambda f: all(f.codomain.is_open(f.image(u)) for u in f.domain.opens),
    "closed": lambda f: all(
        f.codomain.is_closed(f.image(c)) for c in set_class(f.domain, "closed")
    ),
    "alpha-irresolute": lambda f: all(
        alpha_topology(f.domain).is_open(f.preimage(v))
        for v in alpha_topology(f.codomain).opens
    ),
}


def test_table_forms_match_open_set_loops():
    """Every map between labeled spaces with at most 3 points."""
    pool = [t for n in (1, 2, 3) for t in labeled_census(n)]
    maps = 0
    for dom in pool:
        for cod in pool:
            for f in enumerate_maps(dom, cod):
                maps += 1
                for kind, loop in MAP_LOOPS.items():
                    assert map_predicate(f, kind) == loop(f), (f, kind)
    assert maps == 24_872


def test_fm1_verdicts(one_open_point):
    d2 = discrete(2)
    assert verify_fm1(SpaceMap(d2, d2, (0, 1))) == "holds"
    assert verify_fm1(SpaceMap(one_open_point, one_open_point, (0, 0, 0))) == "not-applicable"


def test_fm1_sweep_two_point_spaces_clean():
    # the full sweep is the oracle: no surjection may break the image law
    pool = labeled_census(2)
    verdicts = {"not-applicable": 0, "holds": 0, "VIOLATION": 0}
    for dom in pool:
        for cod in pool:
            for f in enumerate_maps(dom, cod, surjective_only=True):
                verdicts[verify_fm1(f)] += 1
    assert verdicts["VIOLATION"] == 0
    assert verdicts["holds"] > 0
