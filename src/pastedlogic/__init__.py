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
"""

from .bounds import (
    CycleBounds,
    RegionReport,
    classify_weight,
    cycle_bounds,
    path_thresholds,
)
from .empirical import (
    AnalysisReport,
    CountData,
    FrequencyEstimates,
    ReconstructedWeight,
    SingleValuednessReport,
    analyze,
    estimate_frequencies,
    ingest_counts,
    project_affine,
    reconstruct_weight,
    sample_counts,
    single_valuedness_test,
)
from .errors import (
    AlphaOutOfRangeError,
    DegenerateScoresError,
    DuplicateAtomError,
    DuplicateContextError,
    EmptyContextError,
    EmptyContextSampleError,
    EnumerationLimitError,
    InvalidCycleLengthError,
    MissingAtomValueError,
    NegativeCountError,
    NegativePathParameterError,
    NoTwoValuedStatesError,
    NotACycleStructureError,
    NotAComponentError,
    NotAdmissibleError,
    NotGluedError,
    NotStrictlyPositiveError,
    PastedLogicError,
    SchemaError,
    ScoreOutOfDomainError,
    SingularKKTError,
    TargetOutOfRangeError,
    UnknownAtomError,
    ValidationError,
)
from .softmax import (
    ContextDistributionFamily,
    ExponentialLink,
    GlobalScores,
    GluingReport,
    IdentityLink,
    LinkFunction,
    MultiplicativeLinkReport,
    PerContextScores,
    PowerLink,
    boundary_path,
    check_multiplicative_link,
    context_softmax,
    gauge_shift,
    gluing_check,
    glue_to_weight,
    link_from_json_dict,
    maxent_softmax,
    represent_weight,
    scores_from_json_dict,
)
from .states import (
    MembershipResult,
    StateSpace,
    TwoValuedState,
    classical_membership,
    enumerate_two_valued_states,
    max_cyclic_value,
)
from .structures import (
    CycleForm,
    EventStructure,
    IncidenceIndex,
    build_event_structure,
    connected_components,
    cycle_form,
    cycle_logic,
    incidence,
    structure_from_json,
    structure_from_json_dict,
)
from .weights import (
    AdmissibilityReport,
    Weight,
    check_admissible,
    cyclic_sum,
    half_weight,
    make_weight,
    path_weight,
    support,
    to_float,
    to_rational,
    weight_from_json,
    weight_from_json_dict,
)

__version__ = "0.1.0"
