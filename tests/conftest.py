import random
from collections import Counter

import pytest
from hypothesis import strategies as st

from finitetop import build_topology, check_property, discrete, operators, product, spaces
from finitetop.covers import PARACOMPACT, REGULAR_CLOSED_REFINABLE


@pytest.fixture
def one_open_point():
    """Three points with a single nontrivial open: the smallest space whose
    alpha-refinement gains open sets."""
    return build_topology(3, [0b001])


@pytest.fixture
def sier():
    """Two-point space with one open point."""
    return build_topology(2, [0b01])


@pytest.fixture
def table_builds(monkeypatch):
    """Counts, per space, the closure/interior/open-hull table builds."""
    builds = Counter()
    build = operators._build_tables

    def counting(t):
        builds[t] += 1
        return build(t)

    monkeypatch.setattr(operators, "_build_tables", counting)
    return builds


@pytest.fixture
def upset_enumerations(monkeypatch):
    """Counts, per table, the enumerations of its open sets."""
    calls = Counter()
    enumerate_upsets = spaces._upward_closed_sets

    def counting(nbhd):
        calls[nbhd] += 1
        return enumerate_upsets(nbhd)

    monkeypatch.setattr(spaces, "_upward_closed_sets", counting)
    return calls


# each point count beyond the exhaustive censuses, twice
BEYOND_CENSUS_SIZES = tuple(range(6, 17)) * 2


def random_generators(rng, n):
    """Up to n + 2 seeded random subsets of n points."""
    return [rng.getrandbits(n) for _ in range(rng.randint(0, n + 2))]


def random_spaces(seed, sizes=BEYOND_CENSUS_SIZES):
    """One seeded space per point count: the topology random subsets generate."""
    rng = random.Random(seed)
    return [build_topology(n, random_generators(rng, n)) for n in sizes]


@st.composite
def topologies(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    gens = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    return build_topology(n, gens)


@st.composite
def topology_and_subset(draw, max_n=4):
    t = draw(topologies(max_n=max_n))
    return t, draw(st.integers(0, (1 << t.n) - 1))


# 4-point factors of the 16-point products below; _SQUARE_FAILS_4 is
# alpha-subparacompact but its square is not
_SQUARE_FAILS_4 = build_topology(4, [0b0001, 0b0010, 0b0100, 0b1001])
_ONE_OPEN_POINT_4 = build_topology(4, [0b0001])
_CHAIN_4 = build_topology(4, [0b0001, 0b0011, 0b0111])

# the largest product, a product of two alpha-subparacompact factors that is
# not alpha-subparacompact, and a product with 15 opens but 32,769
# alpha-opens; built on demand so collection stays cheap
SIXTEEN_POINT_PRODUCTS = {
    "discrete": lambda: discrete(16),
    "question1-witness": lambda: product(_SQUARE_FAILS_4, _SQUARE_FAILS_4),
    "sparse-alpha": lambda: product(_ONE_OPEN_POINT_4, _CHAIN_4),
}


def _property(prop):
    return lambda t: check_property(t, prop)


# cover class and refinement constraint, as the oracles take them -> the
# verdict production gives a space: a covering property, or a constant that
# a finite-space theorem fixes
MODE_PAIRS = {
    ("alpha-open", "closed+sigma-discrete"): _property("alpha-subparacompact"),
    ("open", "closed+sigma-discrete"): _property("subparacompact"),
    ("alpha-open", "open+locally-finite"): _property("alpha-paracompact"),
    # lemma-lfm1: the sigma-closure-preserving side is the same verdict
    ("alpha-open", "closed+sigma-closure-preserving"): _property("alpha-subparacompact"),
    ("semi-open", "semi-open+locally-finite+dense-union"): _property("para-s-closed"),
    ("regular-closed", "regular-closed+locally-finite"): lambda t: REGULAR_CLOSED_REFINABLE,
    ("regular-closed", "regular-closed+locally-countable"): _property("para-rc-lindelof"),
    ("open", "open+locally-finite"): lambda t: PARACOMPACT,
}

# the pairs whose production verdict scans a minimal-neighbourhood table
SCANNED_PAIRS = [
    ("open", "closed+sigma-discrete"),
    ("alpha-open", "closed+sigma-discrete"),
    ("alpha-open", "open+locally-finite"),
]
