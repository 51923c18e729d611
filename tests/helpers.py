"""Shared builders for the test suite."""
from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from gbpkit import Factor, FactorGraph, LinearGaussianModel, Variable

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


def loop_model(observations=(1.0, 2.0, 3.0)) -> LinearGaussianModel:
    """Four variables, three factors, a six-node loop with x3 hanging off f1.

    The canonical loopy-but-convergent instance used throughout the suite.
    Priors 6, 3, 2, 3; unit noise; coefficient rows
    (2/sqrt6, 0, 1/sqrt2, 1/sqrt3), (1/sqrt6, 1/sqrt3, 0, 0),
    (0, 1/sqrt3, 0, 1/sqrt3).  Its information matrix has unit diagonal,
    which makes the walk-summability numbers easy to pin down.
    """
    variables = (
        Variable("x1", 6.0),
        Variable("x2", 3.0),
        Variable("x3", 2.0),
        Variable("x4", 3.0),
    )
    factors = (
        Factor("f1", {"x1": 2 / SQRT6, "x3": 1 / SQRT2, "x4": 1 / SQRT3}, 1.0, observations[0]),
        Factor("f2", {"x1": 1 / SQRT6, "x2": 1 / SQRT3}, 1.0, observations[1]),
        Factor("f3", {"x2": 1 / SQRT3, "x4": 1 / SQRT3}, 1.0, observations[2]),
    )
    return LinearGaussianModel(variables, factors)


def pair_model(obs: float = 3.0) -> LinearGaussianModel:
    """obs = x1 + x2 + noise with unit priors and unit noise.

    Closed forms: information matrix [[2, 1], [1, 2]], posterior mean
    (obs/3, obs/3), marginal variances 2/3, and message precisions 1/2 in
    both directions at the fixed point.
    """
    return LinearGaussianModel(
        (Variable("x1", 1.0), Variable("x2", 1.0)),
        (Factor("f1", {"x1": 1.0, "x2": 1.0}, 1.0, obs),),
    )


def chain_model(length: int = 3) -> LinearGaussianModel:
    """Unit-parameter chain x1 - f1 - x2 - f2 - x3 ..."""
    variables = tuple(Variable(f"x{k + 1}", 1.0) for k in range(length))
    factors = tuple(
        Factor(f"f{k + 1}", {f"x{k + 1}": 1.0, f"x{k + 2}": 1.0}, 1.0, float(k + 1))
        for k in range(length - 1)
    )
    return LinearGaussianModel(variables, factors)


def bipartite_diameter(graph: FactorGraph) -> int:
    """Longest shortest path over the bipartite node set, in edges."""
    nodes = [("v", vid) for vid in graph.variable_ids]
    nodes += [("f", fid) for fid in graph.factor_ids]
    adjacency = {node: [] for node in nodes}
    for fid, vid in graph.fv_edges:
        adjacency[("f", fid)].append(("v", vid))
        adjacency[("v", vid)].append(("f", fid))
    diameter = 0
    for start in nodes:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for peer in adjacency[node]:
                if peer not in dist:
                    dist[peer] = dist[node] + 1
                    queue.append(peer)
        if dist:
            diameter = max(diameter, max(dist.values()))
    return diameter


def superlu_factor(matrix, order="MMD_AT_PLUS_A"):
    """SuperLU factor of a symmetric matrix as ``dense_posterior`` takes it."""
    lu = splu(csc_array(matrix), permc_spec=order, diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    assert np.array_equal(lu.perm_r, lu.perm_c)
    return lu
