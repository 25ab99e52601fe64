"""Rank-one cutting-and-stacking constructions: exact correlation
statistics, limit-operator classification, and experiment plumbing.

The usual flow is catalog -> realize -> PairCounter.counts -> unit_mass ->
classify_limit against limit_basis (or limit_scan for a whole sweep), or a
config file through parse_config and run_plan (the `rankone` command wraps
that). Flows get their own segment-based engine in rankone.flows, whose
FlowColumn.pair_counts feeds the same unit_mass.
"""

from .construction import (
    AffineCuts,
    BernoulliSpacers,
    ConstantCuts,
    ConstructionSchedule,
    ExplicitCuts,
    PatternSpacers,
    RealizedSchedule,
    StageSpacers,
    StaircaseSpacers,
    catalog,
    catalog_names,
    heights,
    realize,
    validate_schedule,
)
from .correlation import (
    LAG_CAP_DIVISOR,
    PairCounter,
    lag_counts_block,
    lag_counts_naive,
    unit_mass,
)
from .diagnostics import (
    CesaroReport,
    LimitScan,
    MixingReport,
    RigidityScan,
    TripleReport,
    cesaro_disjointness_probe,
    limit_basis,
    limit_scan,
    mixing_diagnostics,
    rigidity_scan,
    triple_corr_probe,
)
from .errors import (
    IoError,
    LagOutOfRange,
    ParseError,
    RankOneError,
    ScheduleError,
    ValidationError,
)
from .flows import (
    FlowLimitReport,
    FlowColumn,
    SlabAlgebra,
    flow_limit_check,
    flow_Pm_matrix,
    flow_segments,
    pm_identity_gap,
)
from .operators import (
    ClassifyResult,
    JoiningMatrix,
    OperatorExpression,
    build_family,
    classify_limit,
    family_names,
    identity_op,
    joining_matrix,
    op_adjoint,
    op_convolve,
    predicted_matrix,
    shift_op,
)
from .config import ExperimentPlan, parse_config
from .reports import Report, report_to_json, write_report
from .runner import run_plan
from .words import (
    alphabet_size,
    default_base_stage,
    level_measures,
    materialize_word,
    stream_word,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # construction
    "ConstantCuts",
    "ExplicitCuts",
    "AffineCuts",
    "PatternSpacers",
    "StageSpacers",
    "BernoulliSpacers",
    "StaircaseSpacers",
    "ConstructionSchedule",
    "RealizedSchedule",
    "validate_schedule",
    "realize",
    "heights",
    "catalog",
    "catalog_names",
    # words
    "alphabet_size",
    "default_base_stage",
    "materialize_word",
    "stream_word",
    "level_measures",
    # correlation
    "PairCounter",
    "unit_mass",
    "lag_counts_naive",
    "lag_counts_block",
    "LAG_CAP_DIVISOR",
    # operators
    "OperatorExpression",
    "identity_op",
    "shift_op",
    "op_adjoint",
    "op_convolve",
    "build_family",
    "family_names",
    "predicted_matrix",
    "JoiningMatrix",
    "joining_matrix",
    "ClassifyResult",
    "classify_limit",
    # diagnostics
    "limit_basis",
    "limit_scan",
    "LimitScan",
    "rigidity_scan",
    "RigidityScan",
    "mixing_diagnostics",
    "MixingReport",
    "cesaro_disjointness_probe",
    "CesaroReport",
    "triple_corr_probe",
    "TripleReport",
    # flows
    "flow_segments",
    "SlabAlgebra",
    "FlowColumn",
    "flow_Pm_matrix",
    "pm_identity_gap",
    "flow_limit_check",
    "FlowLimitReport",
    # experiments
    "parse_config",
    "ExperimentPlan",
    "run_plan",
    "Report",
    "report_to_json",
    "write_report",
    # errors
    "RankOneError",
    "ScheduleError",
    "LagOutOfRange",
    "ParseError",
    "ValidationError",
    "IoError",
]
