"""Seeded random model generators for the three benchmark graph families."""
from __future__ import annotations

import numpy as np

from .model import Factor, LinearGaussianModel, Variable, validate_model

KIND_TREE = "tree"
KIND_SINGLE_LOOP = "single-loop-plus-forest"
KIND_RANDOM_LOOPY = "random-loopy"
KINDS = (KIND_TREE, KIND_SINGLE_LOOP, KIND_RANDOM_LOOPY)

VARIANCE_RANGE = (0.5, 2.0)
COEFF_DEAD_ZONE = 0.1


def _draw_coeff(rng: np.random.Generator, low: float, high: float) -> float:
    # Rejection keeps the draw uniform on the allowed set.
    while True:
        c = float(rng.uniform(low, high))
        if abs(c) >= COEFF_DEAD_ZONE:
            return c


def _check_coeff_range(low: float, high: float) -> None:
    if not low < high:
        raise ValueError("coefficient range must satisfy low < high")
    if high < COEFF_DEAD_ZONE and low > -COEFF_DEAD_ZONE:
        raise ValueError(
            f"coefficient range ({low}, {high}) lies inside the dead zone |c| < {COEFF_DEAD_ZONE}"
        )


def _finish(rng, variables, scopes, coeff_range) -> LinearGaussianModel:
    """Draw coefficients and noise, then sample observations from the model."""
    low, high = coeff_range
    factors = []
    prior_sample = {v.id: float(rng.normal(0.0, np.sqrt(v.prior_var))) for v in variables}
    for n, scope in enumerate(scopes):
        coeffs = {vid: _draw_coeff(rng, low, high) for vid in scope}
        noise_var = float(rng.uniform(*VARIANCE_RANGE))
        signal = sum(c * prior_sample[vid] for vid, c in coeffs.items())
        obs = signal + float(rng.normal(0.0, np.sqrt(noise_var)))
        factors.append(Factor(id=f"f{n + 1}", coeffs=coeffs, noise_var=noise_var, obs=obs))
    return validate_model(LinearGaussianModel(tuple(variables), tuple(factors)))


def _draw_variables(rng: np.random.Generator, size: int) -> list[Variable]:
    return [
        Variable(id=f"x{k + 1}", prior_var=float(rng.uniform(*VARIANCE_RANGE)))
        for k in range(size)
    ]


def _tree_scopes(rng: np.random.Generator, size: int) -> list[tuple[str, str]]:
    """Pairwise scopes attaching each variable after the first to a random earlier one."""
    return [(f"x{int(rng.integers(1, k))}", f"x{k}") for k in range(2, size + 1)]


def generate_tree(size: int, seed: int, coeff_range=(-2.0, 2.0)) -> LinearGaussianModel:
    """Random tree: each new variable attaches to an earlier one through a
    pairwise factor; a single variable gets one unary factor instead."""
    if size < 1:
        raise ValueError("size must be at least 1")
    _check_coeff_range(*coeff_range)
    rng = np.random.default_rng(seed)
    variables = _draw_variables(rng, size)
    scopes = [("x1",)] if size == 1 else _tree_scopes(rng, size)
    return _finish(rng, variables, scopes, coeff_range)


def generate_single_loop(size: int, seed: int, coeff_range=(-2.0, 2.0)) -> LinearGaussianModel:
    """A tree plus one extra pairwise factor, which adds exactly one cycle."""
    if size < 2:
        raise ValueError("size must be at least 2 to close a loop")
    _check_coeff_range(*coeff_range)
    rng = np.random.default_rng(seed)
    variables = _draw_variables(rng, size)
    scopes = _tree_scopes(rng, size)
    first, second = (int(v) + 1 for v in rng.choice(size, size=2, replace=False))
    scopes.append((f"x{first}", f"x{second}"))
    return _finish(rng, variables, scopes, coeff_range)


def generate_random_loopy(size: int, seed: int, coeff_range=(-2.0, 2.0)) -> LinearGaussianModel:
    """One factor per variable with a scope of 2 or 3 distinct variables."""
    if size < 2:
        raise ValueError("size must be at least 2 for pairwise scopes")
    _check_coeff_range(*coeff_range)
    rng = np.random.default_rng(seed)
    variables = _draw_variables(rng, size)
    scopes = []
    for _ in range(size):
        width = int(rng.integers(2, 4)) if size >= 3 else 2
        members = sorted(int(v) + 1 for v in rng.choice(size, size=width, replace=False))
        scopes.append(tuple(f"x{m}" for m in members))
    return _finish(rng, variables, scopes, coeff_range)


def generate_model(kind: str, size: int, seed: int, coeff_range=(-2.0, 2.0)) -> LinearGaussianModel:
    if kind == KIND_TREE:
        return generate_tree(size, seed, coeff_range)
    if kind == KIND_SINGLE_LOOP:
        return generate_single_loop(size, seed, coeff_range)
    if kind == KIND_RANDOM_LOOPY:
        return generate_random_loopy(size, seed, coeff_range)
    raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
