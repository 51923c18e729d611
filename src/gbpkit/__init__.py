"""Gaussian belief propagation on scalar linear Gaussian models.

Build a model, run message passing, certify whether the means will
converge, and cross-check everything against an exact solver:

    from gbpkit import build_factor_graph, certify, dense_posterior, run

    graph = build_factor_graph(model)
    result = run(graph, model)
    cert = certify(graph, model)
"""
from .analysis import (
    BASIS_SPECTRAL,
    BASIS_TOPOLOGY,
    Bounds,
    ConvergenceCertificate,
    FixedPoint,
    MeanUpdateSystem,
    TracePoint,
    WalkSummability,
    VERDICT_CONVERGES,
    VERDICT_DIVERGES,
    VERDICT_INCONCLUSIVE,
    build_mean_system,
    certify,
    fixed_point_precisions,
    part_metric,
    precision_bounds,
    rate_trace,
    spectral_radius,
    trace_to_csv,
    walk_summability,
)
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
from .oracle import ExactPosterior, dense_posterior
from .network import Agent, Schedule, SimulationResult, simulate

__version__ = "0.1.0"
