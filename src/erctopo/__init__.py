"""Exact computation with effectively locally compact represented spaces.

Fuel-bounded semidecision over countably based spaces: relatively compact
systems, compact-ball algorithms on computable metric spaces, and the
hyperspace of located (closed-and-overt) sets with its compactness search.
"""

from .kernel import (
    Accepted,
    MonotoneEnumerator,
    PENDING,
    SemidecisionProcess,
    both_accept,
    run_process,
)
from .spaces import (
    CantorSpace,
    LineSpace,
    MetricStructure,
    PiecewiseSpace,
    PointName,
    QhatSpace,
    Space,
    StarSpace,
    UnitIntervalSpace,
    cantor_point,
    point_from_rational,
    qhat_point_name,
    qhat_point_tokens,
    star_distance,
    star_point,
)
from .sets import (
    ClosedSet,
    CompactSet,
    LocatedSet,
    OpenSet,
    OvertSet,
    closed_from_cdesc,
    compact_from_cdesc,
    compact_subset,
    intersect_closed_compact,
    located_from_cdesc,
    member_open,
    not_subset,
    open_from_fixture,
    open_of_basic,
    open_union,
    overt_from_cdesc,
    overt_meets,
    union_compact,
    whole_open,
)
from .ercs import (
    Ercs,
    basis_search,
    cantor_ercs,
    check_main_property,
    closed_subspace_compact_base,
    compact_base,
    compact_neighborhood_search,
    interval_ercs,
    locally_closed_compact_base,
    open_intersect,
    open_subspace_ercs,
    sigma_cover,
    whole_space_compact,
)
from .metric import (
    CReal,
    MetricPoint,
    ball_open,
    cl_ball_overt,
    closed_ball_closed,
    compact_ball,
    distance_to_located,
    ercs_from_compact_ball,
    exact_metric_point,
    hausdorff_distance,
    nice_radius,
    radius,
)
from .hyperspace import (
    ConsistencyCondition,
    SpecBits,
    TruthSequence,
    consistency_refute,
    forall_located,
    located_from_spec,
    located_from_truth,
    located_not_equal,
    realized_bits,
    spec_from_located,
)
from .oracle import (
    FiniteSpace,
    brute_distance,
    brute_forall,
    brute_located,
    lift_finite,
    oracle_point,
    parse_finite_literal,
    standard_oracle_spaces,
)
from .registry import SpaceBundle, registry_get

__all__ = [name for name in dir() if not name.startswith("_")]
