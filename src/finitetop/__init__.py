"""Exhaustive computation engine for finite topological spaces."""

from .spaces import (
    MAX_POINTS,
    Topology,
    build_topology,
    complement,
    discrete,
    find_homeomorphism,
    from_preorder,
    full_set,
    indiscrete,
    is_homeomorphic,
    mask_of,
    minimal_nbhd,
    product,
    space_from_json,
    space_to_json,
    subspace,
)
from .operators import (
    CLASS_KINDS,
    HULL_KINDS,
    alpha_topology,
    hull,
    is_in_class,
    set_class,
)
from .covers import (
    CONSTRAINTS,
    FAMILY_PREDICATES,
    PROPERTY_TAGS,
    SetFamily,
    canonical_alpha_cover,
    check_property,
    every_cover_has_refinement,
    family_predicate,
    has_refinement,
    property_reason,
    refines,
)
from .maps import MAP_KINDS, SpaceMap, enumerate_maps, map_predicate, verify_fm1
from .census import (
    CensusRecord,
    PropertyProfile,
    count_topologies_direct,
    enumerate_topologies,
    profile,
    read_census,
    space_id,
    write_census,
)
from .verifier import SUITE_TAGS, Report, Witness, run_suite, search

__all__ = [name for name in dir() if not name.startswith("_")]
