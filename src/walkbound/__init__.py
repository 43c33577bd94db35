"""Tail bounds for dependent conditional expectations, explicit expanders, and
walk-based hardness amplification, with exhaustively checkable desk-scale instances.

Names load on first use: ``import walkbound`` runs none of the package's
modules.  ``walkbound.errors``, ``walkbound.prob``, ``walkbound.expander``,
``walkbound.walks`` and ``walkbound.owf`` are in ``sys.modules`` from the
start, and each runs on its first attribute use.  A public name such as
``walkbound.pooled_bound`` is read from the module that defines it, which then
runs with the modules it imports.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_MODULES = ("errors", "prob", "expander", "walks", "owf")

# public name -> the module that defines it
_ORIGIN = {
    **dict.fromkeys((
        "BudgetError", "MarginalMismatchError", "ParameterError", "StructuralError",
        "WalkboundError",
    ), "errors"),
    **dict.fromkeys((
        "BoundReport", "FiniteSpace", "IndependenceReport", "RandomObject", "RandomVariable",
        "conditional_expectation", "cube_instance", "expectation", "percoord_bound",
        "pooled_bound", "product_bound_sweep", "random_product_instance", "subset_sums",
        "tail_probability",
    ), "prob"),
    **dict.fromkeys((
        "ALPHA_FAMILY_BOUND", "ColoredRotation", "ContractionReport", "SpectralReport",
        "adjacency_chunks", "check_projection_contraction", "k4_rotation", "mgg_rotation",
        "second_eigenvalue_magnitude", "torus_cover_spectrum", "torus_spectrum",
    ), "expander"),
    **dict.fromkeys((
        "ExtensionReport", "HybridGraph", "Walk", "WalkSpace", "check_extension_identity",
        "check_independence", "family_event_probs", "family_event_probs_matrix",
        "projection_objects", "random_families", "reverse_index", "reverse_indices",
        "single_set_event_probs", "validate_walk", "verify_walk_independence", "walk_count",
        "walk_from_index", "walk_index", "walk_space",
    ), "walks"),
    **dict.fromkeys((
        "AdversaryOracle", "BlockwiseInverter", "EnvelopeReport", "ExperimentConfig",
        "InversionReport", "Inverter", "RangedTable", "ReducedDirectInverter",
        "ReducedWalkInverter", "RepeatedInverter", "SecurityEstimate", "ToyFunction",
        "WalkChainInverter", "conditioned_reverse_index", "direct_power", "envelope_check",
        "image_distribution", "measure_inversion", "planted_profile", "random_permutation",
        "reduce_direct", "reduce_walk", "repeat_amplify", "vertex_function", "walk_permutation",
    ), "owf"),
}


def _lazy(name: str):
    """Module ``walkbound.<name>``, put in ``sys.modules`` unrun: it runs on its
    first attribute use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _MODULES:
    globals()[_name] = _lazy(_name)

__all__ = sorted([*_MODULES, *_ORIGIN])


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_ORIGIN[name]], name)
