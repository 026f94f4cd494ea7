"""Dense solver, Neumann partial sums, and the spectral-radius estimate."""

import re

import numpy as np
import pytest

from seqtight import Singular, neumann_partial_sum, solve_linear, spectral_radius_estimate


def test_solve_identity():
    y = solve_linear(np.eye(3), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(y, [1.0, 2.0, 3.0], atol=0)


def test_solve_triangular_system_by_hand():
    # back-substitution gives y2 = 0.1/0.3 = 1/3, then y1 = y2
    a = np.array([[1.0, -1.0], [0.0, 0.3]])
    b = np.array([0.0, 0.1])
    y = solve_linear(a, b)
    np.testing.assert_allclose(y, [1.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_solve_zero_matrix_is_singular():
    with pytest.raises(Singular) as info:
        solve_linear(np.zeros((2, 2)), np.array([1.0, 0.0]))
    assert info.value.pivot_index == 0


def test_solve_reports_late_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(Singular) as info:
        solve_linear(a, np.array([1.0, 2.0]))
    assert info.value.pivot_index == 1


def test_solve_rejects_an_overflowing_solution():
    with pytest.raises(Singular):
        solve_linear(np.diag([1e-300, 1e-300]), np.array([1e300, 1.0]))


def test_solve_rejects_a_solution_with_a_large_residual():
    # the 14 x 14 Hilbert matrix has condition number near 1e17: LAPACK
    # returns an answer, and only the residual check catches it
    n = 14
    hilbert = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    with pytest.raises(Singular):
        solve_linear(hilbert, np.ones(n))


def test_solve_rejects_a_system_of_the_wrong_shape():
    with pytest.raises(ValueError, match=re.escape("shape mismatch: matrix (2, 3), vector (2,)")):
        solve_linear(np.ones((2, 3)), np.ones(2))


def test_solve_needs_pivoting():
    # zero leading entry forces a row swap
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = solve_linear(a, np.array([2.0, 3.0]))
    np.testing.assert_allclose(y, [3.0, 2.0])


def test_solve_does_not_mutate_inputs():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 1.0])
    a0, b0 = a.copy(), b.copy()
    solve_linear(a, b)
    np.testing.assert_array_equal(a, a0)
    np.testing.assert_array_equal(b, b0)


@pytest.mark.parametrize("seed", range(20))
def test_solve_residual_bound_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    # diagonally dominant, hence well conditioned
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)
    y = solve_linear(a, b)
    residual = np.abs(a @ y - b).max()
    assert residual <= 1e-9 * (1.0 + np.abs(b).max())


def test_neumann_zero_terms_is_identity_application():
    t = np.array([0.3, 0.4])
    np.testing.assert_array_equal(neumann_partial_sum(np.eye(2) * 0.5, t, 0), t)


def test_neumann_scalar_geometric_partial_sum():
    out = neumann_partial_sum(np.array([[0.5]]), np.array([0.5]), 3)
    assert out[0] == pytest.approx(0.5 + 0.25 + 0.125 + 0.0625, abs=0)


def test_neumann_converges_to_linear_solve():
    p = np.array([[0.0, 1.0], [0.0, 0.7]])
    t = np.array([0.0, 0.1])
    out = neumann_partial_sum(p, t, 60)
    exact = solve_linear(np.eye(2) - p, t)
    np.testing.assert_allclose(out, exact, atol=1e-9)
    np.testing.assert_allclose(exact, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_neumann_monotone_in_terms_for_nonnegative_inputs(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 6))
    p = rng.random((n, n)) * 0.3
    t = rng.random(n)
    previous = neumann_partial_sum(p, t, 0)
    for terms in (1, 2, 5, 9):
        current = neumann_partial_sum(p, t, terms)
        assert (current >= previous - 1e-15).all()
        previous = current


def test_spectral_zero_matrix():
    est = spectral_radius_estimate(np.zeros((3, 3)))
    assert est.estimate == 0.0
    assert est.row_sum_bound == 0.0


def test_spectral_scalar_is_exact():
    est = spectral_radius_estimate(np.array([[0.7]]))
    assert est.estimate == pytest.approx(0.7, abs=1e-12)
    assert est.row_sum_bound == pytest.approx(0.7)


def test_spectral_nilpotent_matrix():
    est = spectral_radius_estimate(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert est.estimate == 0.0
    assert est.row_sum_bound == 1.0


def test_spectral_triangular_matrices():
    est = spectral_radius_estimate(np.array([[0.0, 1.0], [0.0, 0.7]]))
    assert est.estimate == pytest.approx(0.7, abs=1e-9)
    fig1b_p = np.array([[0.0, 1.0, 0.0], [0.0, 0.7, 0.2], [0.0, 0.0, 0.9]])
    est = spectral_radius_estimate(fig1b_p)
    assert est.estimate == pytest.approx(0.9, abs=1e-9)


def test_spectral_periodic_matrix_averages_the_cycle():
    # eigenvalues are +/- sqrt(0.5); pointwise ratios oscillate
    p = np.array([[0.0, 1.0], [0.5, 0.0]])
    est = spectral_radius_estimate(p)
    assert est.estimate == pytest.approx(np.sqrt(0.5), rel=1e-6)


def test_spectral_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match=re.escape("matrix is not square: (2, 3)")):
        spectral_radius_estimate(np.ones((2, 3)))


@pytest.mark.parametrize("seed", range(20))
def test_spectral_estimate_below_one_for_substochastic(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(1, 7))
    p = rng.random((n, n))
    p /= p.sum(axis=1, keepdims=True)
    p[int(rng.integers(0, n))] *= rng.uniform(0.1, 0.9)  # one strictly deficient row
    est = spectral_radius_estimate(p)
    assert est.estimate < 1.0 + 1e-9
    assert est.estimate <= est.row_sum_bound + 1e-12
