"""Continuous-time active/reactive flexibility assessment for flexible
distribution networks at the transmission-distribution interface."""

__version__ = "0.1.0"

from .bernstein import fit
from .netmodel import NetworkModel, load_model, serialize, validate
from .milp import MilpProblem, MilpSolution, SolveOptions, solve
from .engine import (
    AssessmentConfig,
    FlexTube,
    Slice,
    assess,
    metric_M,
    penetration_metrics,
    query_point,
)
from .pqbox import PqBox, cross_section, expand_box, initial_point

__all__ = [
    "fit",
    "NetworkModel", "load_model", "serialize", "validate",
    "MilpProblem", "MilpSolution", "SolveOptions", "solve",
    "AssessmentConfig", "FlexTube", "Slice", "assess",
    "metric_M", "penetration_metrics", "query_point",
    "PqBox", "cross_section", "expand_box", "initial_point",
    "__version__",
]
