import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import clfpde
from clfpde import pipeline, spectral
from clfpde.errors import (
    DimensionMismatch,
    GridTooCoarse,
    NonPositiveCoefficient,
)
from clfpde.presets import dirichlet_problem, preset_config
from clfpde.spectral import (
    Coefficient,
    SLProblem,
    boundary_residuals,
    check_assumption_h,
    eigen_contracts,
    eigensolve,
    make_grid,
    mode_nodes,
    operator_residuals,
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


def angle_problem(alpha, beta, qv):
    """p = r = 1, q = qv, with the boundary constants at unit-vector angles alpha and beta."""
    return SLProblem(Coefficient.constant(1.0), Coefficient.constant(qv),
                     Coefficient.constant(1.0),
                     b1=np.cos(alpha), b2=np.sin(alpha),
                     a1=np.cos(beta), a2=np.sin(beta))


@settings(max_examples=8, deadline=None, database=None)
@given(st.floats(min_value=0.1, max_value=1.4),
       st.floats(min_value=-0.4, max_value=1.5),
       st.floats(min_value=-20.0, max_value=20.0))
@example(1.0, -0.015625, 0.0)      # a reverse-sign Robin layer of width ~0.016
@example(0.5, -0.22199, 0.0)       # lambda_3 once met a spurious mode of a stencil polish
@example(1.0, 7.57e-9, 0.0)        # a2 just above the Dirichlet snap: a stiff Robin end
@example(1.0, -0.0125, 0.0)
@example(0.1, -0.1, -7.3)          # a near-degenerate pair of boundary-layer modes
def test_invariants_random_boundary_angles(alpha, beta, qv):
    # random separated BCs via unit-vector angles; modest K keeps the
    # contracts comfortably inside the default-grid capability
    eig = eigensolve(angle_problem(alpha, beta, qv), make_grid(2049), 12)
    half = eig.K // 2
    assert np.max(np.abs(eig.gram()[:half, :half] - np.eye(half))) <= 1e-8
    left, right = boundary_residuals(eig)
    assert max(np.max(left), np.max(right)) <= 1e-6


def test_sturm_guard_catches_a_missed_mode(grid):
    # a reverse-sign Robin end of width 1e-4: its layer mode (lambda_1 ~ -1e8)
    # escapes the collocation, which returns modes 2..13 as modes 1..12
    with pytest.raises(GridTooCoarse, match="mode 1 has 1 sign changes, not 0"):
        eigensolve(angle_problem(1.0, -1e-4, 0.0), grid, 12)


@pytest.mark.parametrize("p0, q0, r0, K", [
    (1.0, 0.0, 1.0, 24),
    (2.3, -7.0, 1.0, 6),
    (1.0, -2.0 * PI ** 2, 1.0, 96),       # preset 2.4, configs/single_mode.cfg
    (1.0, -5.0 * PI ** 2, 1.0, 96),       # preset 3.3, configs/two_mode_semilinear.cfg
    (1.0, -12.0, 1.0, 48),
    (0.7, 3.0, 2.5, 12),
])
def test_collocation_agrees_with_closed_form(grid, p0, q0, r0, K):
    # the same plant with p = p0 + 0 x is not constant-coefficient, so it is collocated
    closed = eigensolve(SLProblem(Coefficient.constant(p0), Coefficient.constant(q0),
                                  Coefficient.constant(r0), 1.0, 0.0, 1.0, 0.0), grid, K)
    n = np.arange(1, K + 1)
    np.testing.assert_allclose(closed.lambdas, (p0 * n ** 2 * PI ** 2 + q0) / r0, rtol=1e-15)
    colloc = eigensolve(SLProblem(Coefficient.polynomial([p0, 0.0]), Coefficient.constant(q0),
                                  Coefficient.constant(r0), 1.0, 0.0, 1.0, 0.0), grid, K)
    assert np.max(np.abs(colloc.lambdas / closed.lambdas - 1.0)) <= 1e-10
    assert np.max(np.abs(colloc.phis - closed.phis)) <= 1e-9
    for end in ("dphi0", "dphi1"):
        a, b = getattr(colloc, end), getattr(closed, end)
        assert np.max(np.abs(a / b - 1.0)) <= 1e-9


@pytest.mark.parametrize("K", [6, 12])
def test_kinked_table_coefficient(grid, K):
    # q kinks at x = 0.5; -2 <= q <= -1 brackets lambda_n in [n^2 pi^2 - 2, n^2 pi^2 - 1]
    q = Coefficient.table([0.0, 0.5, 1.0], [-1.0, -2.0, -1.0], order=1)
    prob = SLProblem(Coefficient.constant(1.0), q, Coefficient.constant(1.0), 1.0, 0.0, 1.0, 0.0)
    eig = eigensolve(prob, grid, K)
    base = np.arange(1, K + 1) ** 2 * PI ** 2
    assert np.all((base - 2.0 < eig.lambdas) & (eig.lambdas < base - 1.0))


def kinked_p_problem():
    """p = table(order=1): 0 0.5 1 | 1 2 1, q = 0, r = 1, Dirichlet ends: u'' jumps at x = 0.5."""
    return SLProblem(Coefficient.table([0.0, 0.5, 1.0], [1.0, 2.0, 1.0], order=1),
                     Coefficient.constant(0.0), Coefficient.constant(1.0), 1.0, 0.0, 1.0, 0.0)


def test_kinked_p_passes_the_residual_contract(grid):
    # the nine-point stencils straddling the kink measured the jump of u''
    # there, 0.12 against a tolerance of 5.8e-5; the norm now leaves out the
    # seven nodes whose stencils cross the knot (a grid node here)
    prob = kinked_p_problem()
    eig = eigensolve(prob, grid, 6)
    _, res, tol = eig.contracts
    assert np.all(res <= 1e-3 * tol)
    assert np.count_nonzero(spectral.residual_weights(prob, grid) == 0.0) == 7
    lambdas = eig.lambdas.copy()
    lambdas[0] *= 1.0 + 1e-3
    assert operator_residuals(prob, grid, lambdas, eig.phis)[0] > tol[0]


def test_kinked_p_plant_designs_and_certifies(grid):
    cfg = preset_config("2.4")
    cfg.problem = kinked_p_problem()
    cfg.modes = 6
    bundle = pipeline.design(cfg)
    assert bundle.eigsys.K == 6 and bundle.law.M <= 6
    cfg.modes = 96
    bundle = pipeline.design(cfg.validate())
    pipeline.certify(bundle)
    assert bundle.certified, [v.line() for v in bundle.verdicts if not v.passed]


@pytest.mark.parametrize("problem", [
    pytest.param(SLProblem(Coefficient.polynomial([1.0, 0.3, -0.2]),
                           Coefficient.polynomial([-10.0, 5.0]), Coefficient.polynomial([1.0, 0.2]),
                           b1=0.6, b2=0.8, a1=0.8, a2=-0.6), id="robin_varcoef"),
    pytest.param(dirichlet_problem(1.0, -2.0 * PI ** 2), id="closed_form"),
])
def test_residuals_without_interior_knots_are_unchanged(grid, problem):
    # the knot exclusion leaves the residual of a plant without knots bit for bit
    eig = eigensolve(problem, grid, 24)
    r = problem.r(grid.x)
    res = spectral.sl_apply(problem, grid, eig.phis.T) - r[:, None] * eig.phis.T * eig.lambdas
    sl = slice(4, grid.n_points - 4)
    ref = np.sqrt(np.sum((grid.weights * r)[sl, None] * res[sl] ** 2, axis=0))
    assert np.array_equal(operator_residuals(problem, grid, eig.lambdas, eig.phis), ref)


@pytest.mark.parametrize("K", [48, 96])
def test_robin_variable_coefficients_at_large_K(grid, K):
    prob = SLProblem(Coefficient.polynomial([1.0, 0.3, -0.2]), Coefficient.polynomial([-10.0, 5.0]),
                     Coefficient.polynomial([1.0, 0.2]), b1=0.6, b2=0.8, a1=0.8, a2=-0.6)
    eig = eigensolve(prob, grid, K)
    left, right = boundary_residuals(eig)
    assert max(np.max(left), np.max(right)) <= spectral.BOUNDARY_RESIDUAL_TOL


def test_import_loads_no_scipy():
    # scipy is imported only where a run needs it (expm, order-3 tables): it is slow to import
    code = ("import sys, clfpde, clfpde.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
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

@pytest.fixture(scope="module")
def unit_r_eig(grid):
    """An eigensystem with r = 1: its inner product is the plain Simpson rule."""
    return eigensolve(dirichlet_problem(1.0, 0.0), grid, 4)


def test_inner_product_normalization(unit_r_eig, grid):
    f = S2 * np.sin(PI * grid.x)
    assert abs(unit_r_eig.inner(f, f) - 1.0) < 1e-10
    assert abs(unit_r_eig.norm_sq(f) - unit_r_eig.inner(f, f)) <= 1e-15


def test_inner_product_benchmark_value(unit_r_eig, grid):
    f = S2 * np.sin(PI * grid.x)
    g = np.sin(2.5 * PI * grid.x)
    expected = -4.0 * S2 / (21.0 * PI)
    assert abs(unit_r_eig.inner(f, g) - expected) < 1e-12


def test_inner_product_against_adaptive_quadrature(unit_r_eig, grid):
    # independent oracle: adaptive Gauss-Kronrod on the closed-form integrand
    f = np.sin(2.5 * PI * grid.x)
    g = np.sin(3.5 * PI * grid.x)
    oracle, _ = quad(lambda x: np.sin(2.5 * PI * x) * np.sin(3.5 * PI * x), 0, 1,
                     limit=200)
    assert abs(unit_r_eig.inner(f, g) - oracle) < 1e-10
    # rows against rows: entry (a, b) is <row a of F, row b of G>
    F, G = np.vstack([f, g, f]), np.vstack([g, f])
    cross = unit_r_eig.inner(F, G)
    assert cross.shape == (3, 2)
    for a in range(3):
        for b in range(2):
            assert abs(cross[a, b] - unit_r_eig.inner(F[a], G[b])) <= 1e-15
    assert np.allclose(unit_r_eig.norm_sq(F), np.diag(unit_r_eig.inner(F, F)), rtol=0.0,
                       atol=1e-15)


def test_inner_product_dimension_mismatch(unit_r_eig, grid):
    for call in (lambda: unit_r_eig.inner(np.zeros(11), np.zeros(grid.n_points)),
                 lambda: unit_r_eig.inner(np.zeros((2, grid.n_points)), np.zeros((2, 11))),
                 lambda: unit_r_eig.norm_sq(np.zeros(11)),
                 lambda: unit_r_eig.inner(np.zeros(11), unit_r_eig.phis[:2])):
        with pytest.raises(DimensionMismatch):
            call()


def test_inner_product_rule_lives_in_spectral_only():
    # EigenSystem owns the r-weighted Simpson rule: no other module reads
    # the grid's weights or the r samples to write the rule out again
    src = Path(__file__).resolve().parents[1] / "src" / "clfpde"
    offenders = [path.name for path in sorted(src.glob("*.py")) if path.name != "spectral.py"
                 and re.search(r"\.weights\b|\br_samples\b", path.read_text())]
    assert offenders == []


# -- projection --------------------------------------------------------------

def remainder(w, coeffs, eig):
    """w minus its projection onto the modes of the coefficients."""
    return w - coeffs @ eig.phis[:coeffs.shape[-1]]


def test_project_basis_vector(two_mode_bundle):
    eig = two_mode_bundle.eigsys
    coeffs = eig.inner(eig.phis[0], eig.phis[:5])
    rem = remainder(eig.phis[0], coeffs, eig)
    assert abs(coeffs[0] - 1.0) < 1e-10
    assert np.max(np.abs(coeffs[1:])) < 1e-10
    assert eig.norm_sq(rem) < 1e-12


def test_project_zero(two_mode_bundle):
    eig = two_mode_bundle.eigsys
    coeffs = eig.inner(np.zeros(eig.grid.n_points), eig.phis[:4])
    assert coeffs.shape == (4,) and np.all(coeffs == 0.0)


def test_parseval_split(grid):
    # brute-force quadrature of both sides of the energy split
    eig = eigensolve(dirichlet_problem(1.0, 0.0), grid, 24)
    w = grid.x * (1.0 - grid.x)
    coeffs = eig.inner(w, eig.phis[:10])
    rem = remainder(w, coeffs, eig)
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
    coeffs = eig.inner(w, eig.phis[:12])
    rem = remainder(w, coeffs, eig)
    lhs = eig.norm_sq(rem) + float(coeffs @ coeffs)
    rhs = eig.norm_sq(w)
    assert abs(lhs - rhs) <= 1e-7 * max(rhs, 1e-12)


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


def test_eigen_csv_export(tmp_path, single_mode_bundle, collocated_semilinear_bundle):
    # the solver's own modes: no node values for a closed form, the collocation's otherwise
    from clfpde.artifact import save_artifact
    for bundle in (single_mode_bundle, collocated_semilinear_bundle):
        save_artifact(bundle, tmp_path)
        header = (tmp_path / "eigen.csv").read_text().splitlines()[0].split(",")
        nodes = mode_nodes(bundle.eigsys.problem, bundle.eigsys.K)
        m = 0 if nodes is None else nodes.x.size
        assert header == ["n", "lambda", "dphi0", "dphi1"] + [f"u{i}" for i in range(m)]
    assert m == collocated_semilinear_bundle.eigsys.node_values.shape[1] == 209
