"""Small dense linear-algebra routines for the finite-state engine.

The solver is LAPACK's LU factorization with partial pivoting
(``numpy.linalg.solve``) followed by a residual check, so a singular or
badly conditioned system raises instead of returning a wrong answer.
The spectral-radius estimate is a fixed-budget power iteration.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

POWER_ITERATIONS = 500
RESIDUAL_TOL = 1e-9


class Singular(ValueError):
    """The system has no reliable solution; ``pivot_index`` is the matrix's
    numerical rank, the first pivot at which elimination breaks down."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is singular at pivot {pivot_index}")


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ y = b`` by LU factorization with partial pivoting.

    Raises :class:`Singular` when LAPACK finds an exactly zero pivot, when
    the solution is not finite, or when the residual breaks
    ``max|a@y - b| <= RESIDUAL_TOL * (1 + max|b|)``; every returned
    solution meets that bound.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(b)
    if a.shape != (n, n):
        raise ValueError(f"shape mismatch: matrix {a.shape}, vector ({n},)")
    try:
        y = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise Singular(int(np.linalg.matrix_rank(a))) from None
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.abs(a @ y - b).max(initial=0.0)
    if not (np.isfinite(y).all() and residual <= RESIDUAL_TOL * (1 + np.abs(b).max(initial=0))):
        raise Singular(int(np.linalg.matrix_rank(a)))
    return y


def neumann_partial_sum(p: np.ndarray, t: np.ndarray, terms: int) -> np.ndarray:
    """Return ``(sum_{k=0..terms} p^k) @ t`` by repeated multiply-accumulate.

    Entrywise monotone nondecreasing in ``terms`` for nonnegative inputs;
    converges to ``solve_linear(I - p, t)`` when the spectral radius of
    ``p`` is below one.
    """
    p = np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    acc = t.copy()
    v = t.copy()
    for _ in range(terms):
        v = p @ v
        acc += v
    return acc


class SpectralEstimate(NamedTuple):
    estimate: float
    row_sum_bound: float  # operator infinity-norm, always >= the true radius


def spectral_radius_estimate(p: np.ndarray, iters: int = POWER_ITERATIONS) -> SpectralEstimate:
    """Power-iteration estimate of the spectral radius of ``|p|``.

    Runs ``iters`` renormalized iterations from a random positive start
    vector and reports the geometric mean of the per-step max-norm growth
    ratios over the trailing half of the run, which averages out both the
    initial transient and any periodic cycling.  For a substochastic
    matrix every ratio is at most 1, so the estimate never exceeds 1.

    The max-row-sum upper bound is returned alongside; a zero (or
    nilpotent) matrix annihilates the iterate and yields an estimate of 0.
    """
    p = np.abs(np.asarray(p, dtype=float))
    n = p.shape[0]
    if p.shape != (n, n):
        raise ValueError(f"matrix is not square: {p.shape}")
    bound = float(p.sum(axis=1).max()) if n else 0.0
    if n == 0 or bound == 0.0:
        return SpectralEstimate(0.0, bound)
    rng = np.random.default_rng(20230517)
    x = rng.uniform(0.5, 1.5, size=n)
    x /= np.abs(x).max()
    log_ratios = []
    for _ in range(iters):
        y = p @ x
        norm = float(np.abs(y).max())
        if norm == 0.0:
            return SpectralEstimate(0.0, bound)
        log_ratios.append(np.log(norm / float(np.abs(x).max())))
        x = y / norm
    tail = log_ratios[len(log_ratios) // 2:]
    return SpectralEstimate(float(np.exp(np.mean(tail))), bound)
