"""Discrete contour trees (iso-trees) on mono-connected scalar graphs.

The public names resolve on first access (PEP 562): ``import isotree``
loads no submodule, and ``isotree.X`` imports the one module that
defines ``X``.
"""

_EXPORTS = {
    name: module
    for module, names in {
        "errors": """InconsistentZoneError InternalInconsistencyError InvalidRegionError
            InvariantViolationError IsoTreeError MissingReferenceError NotAnLCutError
            NotATreeError ParseError PreconditionError SizeLimitError ValidationError""",
        "graph": "Graph JCut ScalarGraph SiteId",
        "_bitgraph": "MonoWitness",
        "mono": "constant enumerate_j_cuts gen_path is_mono_connected ramp seeded_random",
        "grid": "gen_tri_grid",
        "oracle": "brute_force_iso_tree brute_force_l_cuts",
        "pipeline": "build_iso_tree ranks",
        "stages": """AugmentedContourTree MergeTree ct_to_iso_tree merge_to_augmented_ct
            perturb_rank reduce_by_f sublevel_merge_tree superlevel_merge_tree""",
        "tree": "IsoTree IsoZone TreeEdge reconstruct_rt",
        "axioms": """AxiomReport AxiomViolation LCut Surfel ValuedJDivision boundary_surfels
            build_iso_tree_from_cuts check_iso_tree complement components_of division_to_tree
            immediate_interior inverse_surfels is_j_cut is_l_cut validate_regular_division
            value_gap_of zones_from_cuts""",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
