import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import clfpde
from clfpde import spectral
from clfpde.errors import (
    CutoffExceedsComputedModes,
    DimensionMismatch,
    GridTooCoarse,
    NonPositiveCoefficient,
)
from clfpde.presets import dirichlet_problem
from clfpde.spectral import (
    Coefficient,
    SLProblem,
    boundary_residuals,
    check_assumption_h,
    eigen_contracts,
    eigensolve,
    inner_product,
    make_grid,
    operator_residuals,
    project,
)

PI = np.pi
S2 = np.sqrt(2.0)


# -- grid and coefficients ---------------------------------------------------

def test_simpson_weights_sum_to_one(grid):
    assert abs(np.sum(grid.weights) - 1.0) < 1e-12
    assert np.all(grid.weights > 0)


@given(st.integers(min_value=64, max_value=600))
def test_grid_rejects_even_or_small(n):
    if n % 2 == 1 and n >= 129:
        make_grid(n)
    else:
        with pytest.raises(ValueError):
            make_grid(n)


def test_coefficient_kinds():
    x = np.linspace(0, 1, 11)
    assert np.allclose(Coefficient.constant(2.5)(x), 2.5)
    assert np.allclose(Coefficient.polynomial([1.0, 2.0])(x), 1 + 2 * x)
    tab = Coefficient.table([0, 0.5, 1], [1.0, 2.0, 1.0], order=1)
    assert abs(tab(np.array([0.25]))[0] - 1.5) < 1e-12
    assert Coefficient.constant(1.0).is_constant
    assert Coefficient.polynomial([3.0]).is_constant
    assert not Coefficient.polynomial([1.0, 0.1]).is_constant


def test_cubic_table_reproduces_a_cubic():
    # a not-a-knot spline through 5 samples of a cubic is that cubic
    xs = np.linspace(0.0, 1.0, 5)
    tab = Coefficient.table(xs, 1.0 + xs ** 3, order=3)
    x = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(tab(x) - (1.0 + x ** 3))) <= 1e-12


def test_problem_normalization_guard():
    with pytest.raises(ValueError):
        SLProblem(Coefficient.constant(1.0), Coefficient.constant(0.0),
                  Coefficient.constant(1.0), b1=1.0, b2=0.5, a1=1.0, a2=0.0)


# -- eigensolve regressions --------------------------------------------------

def test_two_mode_benchmark_eigenvalues(two_mode_bundle):
    lam = two_mode_bundle.eigsys.lambdas
    n = np.arange(1, 9)
    exact = (n ** 2 - 5.0) * PI ** 2
    assert np.max(np.abs(lam[:8] - exact) / np.abs(exact)) <= 1e-6


def test_two_mode_benchmark_eigenfunctions(two_mode_bundle, grid):
    eig = two_mode_bundle.eigsys
    for n in range(1, 6):
        exact = S2 * np.sin(n * PI * grid.x)
        assert np.max(np.abs(eig.phis[n - 1] - exact)) < 1e-9


def test_dirichlet_laplacian_first_mode(grid):
    prob = dirichlet_problem(1.0, 0.0)
    eig = eigensolve(prob, grid, 1)
    assert abs(eig.lambdas[0] - PI ** 2) < 1e-8
    assert np.max(np.abs(eig.phis[0] - S2 * np.sin(PI * grid.x))) < 1e-9


def test_constant_coefficient_eigenvalues(grid):
    p0, q0 = 2.3, -7.0
    eig = eigensolve(dirichlet_problem(p0, q0), grid, 6)
    n = np.arange(1, 7)
    exact = p0 * n ** 2 * PI ** 2 + q0
    assert np.max(np.abs(eig.lambdas - exact) / np.abs(exact)) < 1e-8


@pytest.mark.parametrize("side", ["left", "right"])
def test_robin_end_against_root_oracle(grid, side):
    # phi(0)=0 with phi'(1) = -phi(1) (or mirrored) has eigenvalues k^2
    # with tan k = -k
    s = 1 / S2
    if side == "right":
        prob = SLProblem(Coefficient.constant(1.0), Coefficient.constant(0.0),
                         Coefficient.constant(1.0), 1.0, 0.0, s, s)
    else:
        prob = SLProblem(Coefficient.constant(1.0), Coefficient.constant(0.0),
                         Coefficient.constant(1.0), -s, s, 1.0, 0.0)
    eig = eigensolve(prob, grid, 6)
    roots = np.array([brentq(lambda k: np.tan(k) + k,
                             (2 * m - 1) * PI / 2 + 1e-9, m * PI - 1e-9)
                      for m in range(1, 7)])
    assert np.max(np.abs(eig.lambdas - roots ** 2) / roots ** 2) < 1e-8


def test_neumann_left_analytic(grid):
    # phi'(0) = 0, phi(1) = 0: modes cos((m - 1/2) pi x)
    prob = SLProblem(Coefficient.constant(1.0), Coefficient.constant(-3.0),
                     Coefficient.constant(1.0), 0.0, 1.0, 1.0, 0.0)
    eig = eigensolve(prob, grid, 5)
    m = np.arange(1, 6)
    exact = (m - 0.5) ** 2 * PI ** 2 - 3.0
    assert np.max(np.abs(eig.lambdas - exact) / np.abs(exact)) < 1e-8
    assert np.max(np.abs(eig.phis[0] - S2 * np.cos(PI * grid.x / 2))) < 1e-6


def test_eigenvalue_convergence_order():
    # second-order scheme without extrapolation: halving h shrinks the
    # eigenvalue error by at least 3.5x (about 4x expected); the raw
    # tridiagonal solver is measured directly because the public path
    # gates coarse non-extrapolated solves behind the residual check
    from clfpde.spectral import _tridiagonal_eigs
    prob = dirichlet_problem(1.0, -5.0 * PI ** 2)
    exact = (np.arange(1, 5) ** 2 - 5.0) * PI ** 2
    errs = []
    for n_points in (513, 1025):
        lam, _ = _tridiagonal_eigs(prob, make_grid(n_points).x, 4)
        errs.append(np.abs(lam - exact))
    assert np.all(errs[0] / errs[1] >= 3.5)
    # extrapolated default path is far more accurate at the same grids
    eig = eigensolve(prob, make_grid(513), 4, richardson=True)
    assert np.all(np.abs(eig.lambdas - exact) < 0.01 * errs[0])


def test_sign_convention(grid, varcoef_eigsys):
    eig = eigensolve(dirichlet_problem(1.0, -5.0 * PI ** 2), grid, 8)
    d0 = eig.dphi0
    assert np.all(d0 > 0)          # Dirichlet left end: phi'(0) > 0
    prob = SLProblem(Coefficient.constant(1.0), Coefficient.constant(0.0),
                     Coefficient.constant(1.0), 0.0, 1.0, 1.0, 0.0)
    eig2 = eigensolve(prob, grid, 4)
    assert np.all(eig2.phis[:, 0] > 0)  # non-Dirichlet left end: phi(0) > 0


def test_invariants_on_variable_coefficients(varcoef_eigsys, varcoef_problem, grid):
    eig = varcoef_eigsys
    half = eig.K // 2
    gram = eig.gram()
    assert np.max(np.abs(gram[:half, :half] - np.eye(half))) <= 1e-8
    left, right = boundary_residuals(eig)
    assert max(np.max(left), np.max(right)) <= 1e-6
    res = operator_residuals(varcoef_problem, grid, eig.lambdas, eig.phis)
    assert np.all(res[:half] <= 1e-5 * (1.0 + np.abs(eig.lambdas[:half])))
    assert np.all(np.diff(eig.lambdas) > 0)


@settings(max_examples=8, deadline=None, database=None)
@given(st.floats(min_value=0.1, max_value=1.4),
       st.floats(min_value=-0.4, max_value=1.5),
       st.floats(min_value=-20.0, max_value=20.0))
def test_invariants_random_boundary_angles(alpha, beta, qv):
    # random separated BCs via unit-vector angles; modest K keeps the
    # contracts comfortably inside the default-grid capability
    prob = SLProblem(Coefficient.constant(1.0), Coefficient.constant(qv),
                     Coefficient.constant(1.0),
                     b1=np.cos(alpha), b2=np.sin(alpha),
                     a1=np.cos(beta), a2=np.sin(beta))
    eig = eigensolve(prob, make_grid(2049), 12)
    half = eig.K // 2
    assert np.max(np.abs(eig.gram()[:half, :half] - np.eye(half))) <= 1e-8
    left, right = boundary_residuals(eig)
    assert max(np.max(left), np.max(right)) <= 1e-6


# -- eigenvector polish -------------------------------------------------------

def test_refine_band_matches_dense_operator():
    # reference -D1 p D1 + q with the boundary rows, built densely from the
    # stencil weights: width-7 one-sided rows at the ends of D1, five-point
    # one-sided derivatives in the boundary conditions
    n = 129
    grid = make_grid(n)
    h, x = grid.h, grid.x
    prob = SLProblem(Coefficient.polynomial([1.0, 0.3, -0.2]), Coefficient.polynomial([-10.0, 5.0]),
                     Coefficient.polynomial([1.0, 0.2]), b1=0.6, b2=0.8, a1=0.8, a2=-0.6)
    w0 = np.array([-49 / 20, 6, -15 / 2, 20 / 3, -15 / 4, 6 / 5, -1 / 6])     # offsets 0..6
    w1 = np.array([-1 / 6, -77 / 60, 5 / 2, -5 / 3, 5 / 6, -1 / 4, 1 / 30])   # offsets -1..5
    D1 = np.zeros((n, n))
    for i in range(2, n - 2):
        D1[i, i - 2:i + 3] = np.array([1, -8, 0, 8, -1]) / 12
    D1[0, :7], D1[1, :7] = w0, w1
    D1[-1, -7:], D1[-2, -7:] = -w0[::-1], -w1[::-1]
    D1 /= h
    ref = -D1 @ np.diag(prob.p(x)) @ D1 + np.diag(prob.q(x))
    fwd = np.array([-25, 48, -36, 16, -3]) / 12
    ref[0] = 0.0
    ref[0, 0] = prob.b1
    ref[0, :5] += prob.b2 * fwd / h
    ref[-1] = 0.0
    ref[-1, -1] = prob.a1
    ref[-1, -5:] -= prob.a2 * fwd[::-1] / h

    band = spectral._refine_band(prob, grid)
    assert band.shape == (15, n)
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= 7
    dense = np.zeros((n, n))
    dense[inside] = band[(7 + i - j)[inside], j[inside]]
    assert np.all(ref[~inside] == 0.0)
    np.testing.assert_allclose(dense, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


def test_singular_shift_retry(monkeypatch, varcoef_problem, grid):
    # the first banded solve of every mode reports an exactly singular
    # shift; the retry with the nudged shift must still meet the contracts
    real = spectral.solve_banded
    diagonals = []

    def singular_first(l_and_u, ab, b, **kwargs):
        diagonals.append(ab[7].copy())
        if len(diagonals) % 3 == 1:
            raise np.linalg.LinAlgError("singular matrix")
        return real(l_and_u, ab, b, **kwargs)

    monkeypatch.setattr(spectral, "solve_banded", singular_first)
    K = 8
    eig = eigensolve(varcoef_problem, grid, K)
    assert len(diagonals) == 3 * K                 # failed solve, retry, second step
    for k in range(K):
        failed, retry, second = diagonals[3 * k:3 * k + 3]
        assert not np.array_equal(failed, retry)   # the retry moves the shift ...
        assert np.array_equal(retry, second)       # ... and the second step keeps it
    defect, res, tol = eigen_contracts(eig)
    assert defect <= spectral.ORTHONORMALITY_TOL
    assert np.all(res <= tol)


def test_import_loads_no_sparse_or_interpolate():
    # neither module is on any shipped path, and both are slow to import
    code = ("import sys, clfpde, clfpde.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.sparse', 'scipy.interpolate'))))")
    src = os.path.dirname(os.path.dirname(clfpde.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_grid_too_coarse_paths(grid):
    prob = dirichlet_problem(1.0, 0.0)
    with pytest.raises(GridTooCoarse):
        eigensolve(prob, make_grid(129), 32)   # n_points < 8K
    with pytest.raises(GridTooCoarse):
        eigensolve(prob, grid, 192)            # residual check fails
    with pytest.raises(ValueError):
        eigensolve(prob, grid, 0)


def test_non_positive_coefficient(grid):
    prob = SLProblem(Coefficient.polynomial([0.5, -1.0]), Coefficient.constant(0.0),
                     Coefficient.constant(1.0), 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(NonPositiveCoefficient):
        eigensolve(prob, grid, 4)


# -- inner products ----------------------------------------------------------

def test_inner_product_normalization(grid):
    f = S2 * np.sin(PI * grid.x)
    assert abs(inner_product(f, f, grid) - 1.0) < 1e-10


def test_inner_product_benchmark_value(grid):
    f = S2 * np.sin(PI * grid.x)
    g = np.sin(2.5 * PI * grid.x)
    expected = -4.0 * S2 / (21.0 * PI)
    assert abs(inner_product(f, g, grid) - expected) < 1e-12


def test_inner_product_against_adaptive_quadrature(grid):
    # independent oracle: adaptive Gauss-Kronrod on the closed-form integrand
    f = np.sin(2.5 * PI * grid.x)
    g = np.sin(3.5 * PI * grid.x)
    oracle, _ = quad(lambda x: np.sin(2.5 * PI * x) * np.sin(3.5 * PI * x), 0, 1,
                     limit=200)
    assert abs(inner_product(f, g, grid) - oracle) < 1e-10


def test_inner_product_dimension_mismatch(grid):
    with pytest.raises(DimensionMismatch):
        inner_product(np.zeros(11), np.zeros(grid.n_points), grid)


# -- projection --------------------------------------------------------------

def test_project_basis_vector(two_mode_bundle):
    eig = two_mode_bundle.eigsys
    coeffs, rem = project(eig.phis[0], eig, 5)
    assert abs(coeffs[0] - 1.0) < 1e-10
    assert np.max(np.abs(coeffs[1:])) < 1e-10
    assert eig.norm_sq(rem) < 1e-12


def test_project_zero(two_mode_bundle):
    eig = two_mode_bundle.eigsys
    coeffs, rem = project(np.zeros(eig.grid.n_points), eig, 4)
    assert np.all(coeffs == 0.0) and np.all(rem == 0.0)


def test_parseval_split(grid):
    # brute-force quadrature of both sides of the energy split
    eig = eigensolve(dirichlet_problem(1.0, 0.0), grid, 24)
    w = grid.x * (1.0 - grid.x)
    coeffs, rem = project(w, eig, 10)
    lhs = eig.norm_sq(rem) + float(coeffs @ coeffs)
    rhs = eig.norm_sq(w)
    assert abs(lhs - rhs) <= 1e-8
    assert np.max(np.abs(eig.phis[:10] @ (grid.weights * eig.r_samples * rem))) <= 1e-8


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_parseval_split_random_states(varcoef_eigsys, seed):
    eig = varcoef_eigsys
    rng = np.random.default_rng(seed)
    w = (rng.standard_normal(16) / np.arange(1, 17) ** 1.5) @ eig.phis[:16]
    w += 0.01 * np.sin(37 * PI * eig.grid.x)      # content beyond the cutoff
    coeffs, rem = project(w, eig, 12)
    lhs = eig.norm_sq(rem) + float(coeffs @ coeffs)
    rhs = eig.norm_sq(w)
    assert abs(lhs - rhs) <= 1e-7 * max(rhs, 1e-12)


def test_project_cutoff_guard(varcoef_eigsys):
    with pytest.raises(CutoffExceedsComputedModes):
        project(np.zeros(varcoef_eigsys.grid.n_points), varcoef_eigsys,
                varcoef_eigsys.K + 1)


# -- tail assumption diagnostic ----------------------------------------------

def test_assumption_h_two_mode(two_mode_bundle):
    lambda_next, tail_slope = check_assumption_h(two_mode_bundle.eigsys, 2)
    assert abs(lambda_next - 4.0 * PI ** 2) < 1e-6
    assert tail_slope < -1.0           # summable trend


def test_assumption_h_single_mode(single_mode_bundle):
    lambda_next, _ = check_assumption_h(single_mode_bundle.eigsys, 1)
    assert abs(lambda_next - 2.0 * PI ** 2) < 1e-6


def test_assumption_h_hard_fail(two_mode_bundle):
    lambda_next, _ = check_assumption_h(two_mode_bundle.eigsys, 1)   # lambda_2 < 0
    assert lambda_next <= 0.0


def test_assumption_h_needs_tail_modes(varcoef_eigsys):
    with pytest.raises(ValueError):
        check_assumption_h(varcoef_eigsys, varcoef_eigsys.K - 5)


def test_end_derivatives_are_the_end_rows_of_derivative_4th(varcoef_eigsys, grid):
    # the five end samples give dphi0/dphi1 bit for bit, and a sign flip commutes with them
    eig = varcoef_eigsys
    full = spectral.derivative_4th(eig.phis.T, eig.grid.h)
    assert np.array_equal(eig.dphi0, full[0]) and np.array_equal(eig.dphi1, full[-1])
    flipped = spectral.EigenSystem.from_samples(eig.problem, grid, eig.lambdas, -eig.phis)
    assert np.array_equal(flipped.dphi0, -eig.dphi0)
    assert np.array_equal(flipped.dphi1, -eig.dphi1)


def test_eigen_csv_export(tmp_path, single_mode_bundle):
    from clfpde.artifact import save_artifact
    save_artifact(single_mode_bundle, tmp_path)
    header = (tmp_path / "eigen.csv").read_text().splitlines()[0].split(",")
    assert header[:2] == ["n", "lambda"]
    assert len(header) == 2 + single_mode_bundle.eigsys.grid.n_points
