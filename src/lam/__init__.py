"""Alignment and compliance identification for AI choice behavior.

Models an AI agent choosing on behalf of a human principal as a mixture
of two Luce rules and recovers the human utility, the AI's intrinsic
utility, and the compliance weight from stochastic choice data: either
from the (AI, human) pair of choice functions (laboratory setting) or,
up to an unavoidable label swap, from the AI's choices alone (field
setting).  A finite-sample layer adds seeded simulation and EM-based
maximum likelihood, and a small CLI drives everything from flat files.
"""

from .choice import (
    classify_regime,
    composite_instability,
    cross_instability,
    iia_violations,
    instability_tuples,
    lam_choice,
    lam_table,
    luce_choice,
    luce_table,
    own_instability,
    recover_luce_utility,
    satisfies_iia,
)
from .estimate import (
    FitResult,
    em_step,
    fit_mle,
    log_likelihood,
    log_likelihood_gradient,
    simulate_counts,
)
from .field import (
    CandidateSet,
    ConsistencyRow,
    CubicPoly,
    FieldResult,
    ImpliedAlpha,
    RejectedRoot,
    candidate_utilities,
    deception_gap,
    identification_polynomial,
    identify_field,
    implied_alpha,
)
from .lab import (
    AlphaEstimate,
    AxiomReport,
    AxiomVerdict,
    LabResult,
    check_axioms,
    estimate_alpha,
    identify_lab,
    recover_autonomous,
)
from .types import (
    ChoiceCounts,
    DatasetFormatError,
    DegenerateDivisionError,
    GapUndefinedError,
    InconsistentInputsError,
    InstabilityTuple,
    InsufficientDataError,
    InvalidParameterError,
    LamError,
    LamParams,
    MissingDataError,
    NotIdentifiedError,
    NotLuceError,
    PartiallyIdentifiedError,
    RegimeReport,
    StochasticChoice,
    Universe,
    UtilityRangeError,
    sup_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
