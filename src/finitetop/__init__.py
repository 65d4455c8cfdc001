"""Exhaustive computation engine for finite topological spaces."""

from .spaces import (
    MAX_POINTS,
    Topology,
    build_topology,
    complement,
    discrete,
    from_preorder,
    full_set,
    indiscrete,
    mask_of,
    product,
    space_from_json,
    space_to_json,
    subspace,
)
from .operators import (
    CLASS_KINDS,
    HULL_KINDS,
    alpha_topology,
    hull_table,
    set_class,
)
from .covers import PROPERTY_TAGS, check_property, property_reason
from .maps import MAP_KINDS, SpaceMap, enumerate_maps, map_predicate, verify_fm1
from .census import (
    CensusRecord,
    PropertyProfile,
    enumerate_topologies,
    profile,
    read_census,
    space_id,
    write_census,
)
from .verifier import SUITE_TAGS, Report, Witness, run_suite, search

__all__ = [name for name in dir() if not name.startswith("_")]
