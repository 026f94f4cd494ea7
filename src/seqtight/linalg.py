"""Small dense linear-algebra routines for the finite-state engine.

The solver is LAPACK's LU factorization with partial pivoting
(``numpy.linalg.solve``) followed by a residual check, so a singular or
badly conditioned system raises instead of returning a wrong answer.
The spectral radius is the largest eigenvalue modulus from LAPACK
(``numpy.linalg.eigvals``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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


def spectral_radius_estimate(p: np.ndarray) -> SpectralEstimate:
    """Spectral radius of ``|p|``: its largest eigenvalue modulus, from
    ``numpy.linalg.eigvals``, with the max-row-sum upper bound alongside."""
    p = np.abs(np.asarray(p, dtype=float))
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"matrix is not square: {p.shape}")
    return SpectralEstimate(float(np.abs(np.linalg.eigvals(p)).max(initial=0.0)),
                            float(p.sum(axis=1).max(initial=0.0)))
