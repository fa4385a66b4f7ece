"""Closed-form interval type-2 fuzzy inference with a verification workbench."""

from .mf import (
    IT2Gaussian,
    ScaledGaussian,
    FitDominanceViolated,
    default_fit_window,
    fit_bounds,
)
from .rulebase import (
    Partition,
    Rule,
    RuleBase,
    RuleBaseInvalid,
    Violation,
    default_rulebase,
    dump_rulebase,
    load_rulebase,
    rulebase_from_dict,
    rulebase_to_dict,
)
from .engine import (
    BoundSource,
    ClosedFormEngine,
    EngineConfig,
    FiringInterval,
    Form,
    InferenceResult,
)
from .reference import (
    RefConfig,
    ReferenceEngine,
    ZeroArea,
    coa_decomposition_check,
)
from .pendulum import (
    ACTUATOR_RATE,
    GRAVITY,
    RK4_MAX_STEP,
    LoopConfig,
    NumericalBlowup,
    SimTrace,
    controller_step,
    plant_derivatives,
    settle_time,
    simulate,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "IT2Gaussian", "ScaledGaussian", "FitDominanceViolated",
    "default_fit_window", "fit_bounds",
    "Partition", "Rule", "RuleBase", "RuleBaseInvalid", "Violation",
    "default_rulebase", "dump_rulebase", "load_rulebase",
    "rulebase_from_dict", "rulebase_to_dict",
    "BoundSource", "ClosedFormEngine", "EngineConfig", "FiringInterval",
    "Form", "InferenceResult",
    "RefConfig", "ReferenceEngine",
    "ZeroArea", "coa_decomposition_check",
    "ACTUATOR_RATE", "GRAVITY", "RK4_MAX_STEP", "LoopConfig", "NumericalBlowup",
    "SimTrace", "controller_step", "plant_derivatives",
    "settle_time", "simulate", "write_trace_csv",
    "__version__",
]
