import numpy as np
import pytest

from clfpde.errors import MuCollidesWithSpectrum, MuNotPositive
from clfpde.reduced import input_vector_closed_form
from clfpde.shapes import (
    BVP_RESIDUAL_TOL,
    build_shape_set,
    bvp_residual_function,
    orthogonality_defect,
    shape_residuals,
    validate_mu_set,
)
from clfpde.spectral import Coefficient, SLProblem, eigensolve

PI = np.pi


def shape(eigsys, mu):
    """The one shape of mu, sampled on eigsys's grid."""
    return build_shape_set(eigsys, [mu]).varphis[0]


def test_two_mode_shapes_match_closed_forms(two_mode_bundle, grid):
    shapes = two_mode_bundle.shapes
    assert np.max(np.abs(shapes.varphis[0] - np.sin(2.5 * PI * grid.x))) < 1e-8
    assert np.max(np.abs(shapes.varphis[1] + np.sin(3.5 * PI * grid.x))) < 1e-8


def test_shape_norms(two_mode_bundle):
    assert np.max(np.abs(two_mode_bundle.shapes.norms_sq - 0.5)) < 1e-9


def test_substitution_residuals(two_mode_bundle, grid):
    # direct substitution into the differential equation, fourth-order stencils
    prob = two_mode_bundle.config.problem
    for i in range(2):
        rnorm, left, right = shape_residuals(
            prob, grid, two_mode_bundle.shapes.mus[i], two_mode_bundle.shapes.varphis[i])
        assert rnorm <= 1e-5
        assert left <= 1e-6 and right <= 1e-6


def test_variable_coefficient_shape(varcoef_problem, varcoef_eigsys, grid):
    mu = 7.5
    phi = shape(varcoef_eigsys, mu)
    rnorm, left, right = shape_residuals(varcoef_problem, grid, mu, phi)
    assert rnorm <= 1e-5
    assert left <= 1e-6 and right <= 1e-6


def test_kinked_p_shape_residual(grid):
    # p kinks at x = 0.5, so the shape's phi'' jumps there: the stencils
    # straddling the knot are left out, and a perturbed mu still fails
    prob = SLProblem(Coefficient.table([0.0, 0.5, 1.0], [1.0, 2.0, 1.0], order=1),
                     Coefficient.constant(0.0), Coefficient.constant(1.0), 1.0, 0.0, 1.0, 0.0)
    eig = eigensolve(prob, grid, 24)
    mu = 0.5 * (eig.lambdas[1] + eig.lambdas[2])
    phi = shape(eig, mu)
    assert shape_residuals(prob, grid, mu, phi)[0] <= 1e-3 * BVP_RESIDUAL_TOL
    assert shape_residuals(prob, grid, mu * (1.0 + 1e-3), phi)[0] > BVP_RESIDUAL_TOL


def test_shape_residual_without_interior_knots_is_unchanged(two_mode_bundle, grid):
    prob = two_mode_bundle.config.problem
    r = prob.r(grid.x)
    sl = slice(4, grid.n_points - 4)
    for mu, phi in zip(two_mode_bundle.shapes.mus, two_mode_bundle.shapes.varphis):
        res = bvp_residual_function(prob, grid, mu, phi)
        ref = float(np.sqrt(np.sum((grid.weights * r)[sl] * res[sl] ** 2)))
        assert shape_residuals(prob, grid, mu, phi)[0] == ref


def test_robin_actuated_shape_analytic(grid):
    # p=1, q=0, phi(0)=0, (phi(1) + phi'(1))/sqrt(2) = 1; solution A sin(kx)
    s = 1 / np.sqrt(2.0)
    prob = SLProblem(Coefficient.constant(1.0), Coefficient.constant(0.0),
                     Coefficient.constant(1.0), 1.0, 0.0, s, s)
    eig = eigensolve(prob, grid, 8)
    mu = 3.0
    k = np.sqrt(mu)
    A = 1.0 / (s * (np.sin(k) + k * np.cos(k)))
    phi = shape(eig, mu)
    assert np.max(np.abs(phi - A * np.sin(k * grid.x))) < 1e-6


def test_mu_guards(two_mode_bundle, grid):
    prob = two_mode_bundle.config.problem
    eig = two_mode_bundle.eigsys
    with pytest.raises(MuNotPositive):
        shape(eig, -1.0)
    # a numpy-scalar mu: the message shows plain floats, not np.float64(...)
    with pytest.raises(MuCollidesWithSpectrum,
                       match=r"^mu=[-+.\de]+ within tolerance of eigenvalue 3 \([-+.\de]+\)$"):
        shape(eig, eig.lambdas[2])
    with pytest.raises(MuCollidesWithSpectrum, match=r"^mu=[-+.\de]+ too close to an eigenvalue$"):
        input_vector_closed_form(prob, eig, eig.lambdas[1], 2)


def test_validate_mu_set_verdicts(single_mode_bundle):
    eig = single_mode_bundle.eigsys
    mu_good = single_mode_bundle.shapes.mus[0]
    verdicts = validate_mu_set([mu_good, float(eig.lambdas[1]), -1.0], eig.lambdas)
    assert verdicts[0].passed
    assert not verdicts[1].passed and not verdicts[1].off_spectrum
    assert not verdicts[2].passed and not verdicts[2].positive
    assert verdicts[0].nearest_mode >= 1


def test_orthogonality_report(two_mode_bundle):
    assert orthogonality_defect(two_mode_bundle.shapes, two_mode_bundle.eigsys) <= 1e-10


def test_orthogonality_single_shape(single_mode_bundle):
    assert orthogonality_defect(single_mode_bundle.shapes, single_mode_bundle.eigsys) == 0.0


def test_orthogonality_duplicate_fails(two_mode_bundle):
    shapes = two_mode_bundle.shapes
    dup = type(shapes)(
        mus=shapes.mus[[0, 0]], varphis=shapes.varphis[[0, 0]],
        norms_sq=shapes.norms_sq[[0, 0]], nodes=shapes.nodes,
        node_values=shapes.node_values[[0, 0]])
    assert orthogonality_defect(dup, two_mode_bundle.eigsys) > 0.4      # the squared norm 1/2


def test_build_shape_set_single_mode(single_mode_bundle, grid):
    # mu = 25 p pi^2 / 4 + q gives the sin(5 pi x / 2) shape
    shapes = single_mode_bundle.shapes
    assert np.max(np.abs(shapes.varphis[0] - np.sin(2.5 * PI * grid.x))) < 1e-8
