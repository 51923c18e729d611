"""Gaussian belief propagation on scalar linear Gaussian models.

Build a model, run message passing, certify whether the means will
converge, and cross-check everything against an exact solver:

    from gbpkit import build_factor_graph, certify, dense_posterior, run

    graph = build_factor_graph(model)
    result = run(graph, model)
    cert = certify(graph, model)
"""
import importlib as _importlib

from .engine import (
    BeliefSet,
    InitStrategy,
    MessageState,
    RunResult,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_MAX_ITERS,
    compute_beliefs,
    factor_to_variable,
    init_messages,
    run,
    sweep,
    variable_to_factor,
)
from .generate import generate_model, generate_random_loopy, generate_single_loop, generate_tree
from .model import (
    Factor,
    FactorGraph,
    GMRFModel,
    InvalidModelError,
    LinearGaussianModel,
    TOPOLOGY_FOREST,
    TOPOLOGY_MULTI_LOOP,
    TOPOLOGY_SINGLE_LOOP,
    TopologyReport,
    Variable,
    build_factor_graph,
    classify_topology,
    find_violations,
    lingauss_to_gmrf,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    sparse_gmrf,
    validate_model,
    with_observations,
)
from .network import Agent, Schedule, SimulationResult, simulate

__version__ = "0.1.0"

# The analysis and the oracle run on scipy, which takes most of a small
# command's time to import; their names load on first access (PEP 562),
# so a process that only solves or simulates never imports it.
_LAZY = {
    "analysis": (
        "BASIS_SPECTRAL",
        "BASIS_TOPOLOGY",
        "Bounds",
        "ConvergenceCertificate",
        "FixedPoint",
        "MeanUpdateSystem",
        "TracePoint",
        "WalkSummability",
        "VERDICT_CONVERGES",
        "VERDICT_DIVERGES",
        "VERDICT_INCONCLUSIVE",
        "build_mean_system",
        "certify",
        "fixed_point_precisions",
        "part_metric",
        "precision_bounds",
        "rate_trace",
        "spectral_radius",
        "trace_to_csv",
        "walk_summability",
    ),
    "oracle": ("ExactPosterior", "dense_posterior"),
}
_LAZY_SOURCE = {name: module for module, names in _LAZY.items() for name in names}
__all__ = [name for name in globals() if not name.startswith("_")] + [*_LAZY, *_LAZY_SOURCE]


def __getattr__(name):
    if name in _LAZY:
        return _importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_LAZY_SOURCE[name]), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
