"""Admissible weights on pasted event structures.

The library covers: building and validating finite event structures
(atoms shared across contexts), admissible weights and the distinguished
half/path families on cycles, enumeration of two-valued states with
exact classical-polytope membership and certificates, generalized
softmax distributions per context together with the exact condition for
them to glue into one weight, the representation of every strictly
positive admissible weight by global scores, odd-cycle classical and
theta bounds with a three-region classifier, and an empirical pipeline
from raw counts to a gated classification.

``import pastedlogic`` loads no submodule.  A name below, or a submodule
named in ``_EXPORTS`` (``pastedlogic.states``), imports its submodule on
first use (PEP 562), so a script that only loads structures never loads
the LP, softmax or empirical layers.  The package holds only the
submodules: every other name is read from its submodule on each use, so
it is always the submodule's current value.

``_EXPORTS`` is the one list of public names: a submodule keeps no
``__all__`` of its own, and a new public name is added here, under the
submodule that defines it.
"""

import importlib

# Every exported name, by the submodule that defines it.
_EXPORTS = {
    "bounds": ("CycleBounds", "RegionReport", "classify_weight", "cycle_bounds", "path_thresholds"),
    "empirical": (
        "AnalysisReport", "CountData", "FrequencyEstimates", "ReconstructedWeight",
        "SingleValuednessReport", "analyze", "estimate_frequencies", "ingest_counts",
        "project_affine", "reconstruct_weight", "sample_counts", "single_valuedness_test",
    ),
    "errors": (
        "AlphaOutOfRangeError", "DegenerateScoresError", "DuplicateAtomError",
        "DuplicateContextError", "EmptyContextError", "EmptyContextSampleError",
        "EnumerationLimitError", "InvalidCycleLengthError", "MissingAtomValueError",
        "NegativeCountError", "NegativePathParameterError", "NoTwoValuedStatesError",
        "NotACycleStructureError", "NotAComponentError", "NotAdmissibleError", "NotGluedError",
        "NotStrictlyPositiveError", "PastedLogicError", "SchemaError", "ScoreOutOfDomainError",
        "SingularSystemError", "TargetOutOfRangeError", "UnknownAtomError", "ValidationError",
    ),
    "numeric": (),
    "softmax": (
        "ContextDistributionFamily", "ExponentialLink", "GlobalScores", "GluingReport",
        "IdentityLink", "LinkFunction", "MultiplicativeLinkReport", "PerContextScores",
        "PowerLink", "boundary_path", "check_multiplicative_link", "context_softmax",
        "gauge_shift", "gluing_check", "glue_to_weight", "link_from_json_dict",
        "maxent_softmax", "represent_weight", "scores_from_json_dict",
    ),
    "states": (
        "MembershipResult", "StateSpace", "TwoValuedState", "classical_membership",
        "enumerate_two_valued_states", "max_cyclic_value",
    ),
    "structures": (
        "CycleForm", "EventStructure", "IncidenceIndex", "build_event_structure",
        "connected_components", "cycle_form", "cycle_logic", "incidence",
        "structure_from_json", "structure_from_json_dict",
    ),
    "weights": (
        "AdmissibilityReport", "Weight", "check_admissible", "cyclic_sum", "half_weight",
        "make_weight", "path_weight", "support", "to_float", "to_rational",
        "weight_from_json", "weight_from_json_dict",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:  # the import binds a submodule here once it has run
        module = _HOME[name]
        return getattr(globals().get(module) or __getattr__(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
