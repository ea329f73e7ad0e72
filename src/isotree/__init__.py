"""Discrete contour trees (iso-trees) on mono-connected scalar graphs."""

from .errors import (
    InconsistentZoneError,
    InternalInconsistencyError,
    InvalidRegionError,
    InvariantViolationError,
    IsoTreeError,
    MissingReferenceError,
    NotAnLCutError,
    NotATreeError,
    ParseError,
    PreconditionError,
    SizeLimitError,
    ValidationError,
)
from .graph import (
    Graph,
    JCut,
    ScalarGraph,
    SiteId,
    Surfel,
    boundary_surfels,
    complement,
    components_of,
    immediate_interior,
    inverse_surfels,
    is_j_cut,
)
from .mono import (
    MonoWitness,
    constant,
    enumerate_j_cuts,
    gen_path,
    gen_tri_grid,
    is_mono_connected,
    ramp,
    seeded_random,
)
from .oracle import brute_force_iso_tree, brute_force_l_cuts
from .pipeline import (
    AugmentedContourTree,
    MergeTree,
    build_iso_tree,
    ct_to_iso_tree,
    merge_to_augmented_ct,
    perturb_rank,
    ranks,
    reduce_by_f,
    sublevel_merge_tree,
    superlevel_merge_tree,
)
from .tree import (
    AxiomReport,
    AxiomViolation,
    IsoTree,
    IsoZone,
    LCut,
    TreeEdge,
    ValuedJDivision,
    build_iso_tree_from_cuts,
    check_iso_tree,
    division_to_tree,
    is_l_cut,
    reconstruct_rt,
    validate_regular_division,
    value_gap_of,
    zones_from_cuts,
)

__version__ = "0.1.0"
