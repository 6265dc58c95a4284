import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clfpde.errors import CutoffNotStrictlyStable, PlacementFailed, SingularB
from clfpde.presets import two_mode_reference
from clfpde.reduced import (
    ReducedModel,
    build_reduced_model,
    check_controllability,
    closed_form_B,
    design_gains,
    gain_inequality_residual,
    input_vector_closed_form,
)

PI = np.pi
S2 = np.sqrt(2.0)


def test_two_mode_input_matrix(two_mode_bundle):
    ref = two_mode_reference()["B"]
    assert np.max(np.abs(two_mode_bundle.model.B - ref) / np.abs(ref)) <= 1e-6


def test_single_mode_input_matrix(single_mode_bundle):
    expected = 4.0 * S2 / (21.0 * PI)
    assert abs(single_mode_bundle.model.B[0, 0] - expected) / expected <= 1e-6


def test_quadrature_vs_closed_form_routes(two_mode_bundle):
    bundle = two_mode_bundle
    B_cf = closed_form_B(bundle.config.problem, bundle.eigsys,
                         bundle.shapes.mus, bundle.model.N)
    rel = np.max(np.abs(bundle.model.B - B_cf) / np.abs(B_cf))
    assert rel <= 1e-7


def test_closed_form_hand_value(two_mode_bundle):
    # p(1)=1, Dirichlet right end, phi_1'(1) = -sqrt(2) pi,
    # mu_1 - lambda_1 = 21 pi^2 / 4  =>  entry 4 sqrt(2) / (21 pi)
    bundle = two_mode_bundle
    col = input_vector_closed_form(bundle.config.problem, bundle.eigsys,
                                   float(bundle.shapes.mus[0]), 1)
    assert abs(col[0] - 4.0 * S2 / (21.0 * PI)) < 1e-9


def test_sign_pattern_from_analytic_eigenfunctions(two_mode_bundle):
    # phi_n'(1) = sqrt(2) n pi (-1)^n for the Dirichlet sine modes
    bundle = two_mode_bundle
    mu = float(bundle.shapes.mus[0])
    col = input_vector_closed_form(bundle.config.problem, bundle.eigsys, mu, 12)
    n = np.arange(1, 13)
    analytic = -S2 * n * PI * (-1.0) ** n / (mu - bundle.eigsys.lambdas[:12])
    assert np.all(np.sign(col) == np.sign(analytic))
    assert np.max(np.abs(col - analytic) / np.abs(analytic)) < 1e-6


def test_closed_form_large_mu_decay(two_mode_bundle):
    bundle = two_mode_bundle
    base = input_vector_closed_form(bundle.config.problem, bundle.eigsys, 1.0e4, 4)
    far = input_vector_closed_form(bundle.config.problem, bundle.eigsys, 1.0e5, 4)
    assert np.all(np.abs(far) < 0.12 * np.abs(base))


def test_cutoff_guard(two_mode_bundle):
    with pytest.raises(CutoffNotStrictlyStable):
        build_reduced_model(two_mode_bundle.eigsys, two_mode_bundle.shapes, 1)


def test_controllability_two_mode(two_mode_bundle):
    rep = check_controllability(two_mode_bundle.model)
    assert rep.passed and rep.rank == 2
    assert rep.structural_certificate


def test_controllability_single_mode(single_mode_bundle):
    rep = check_controllability(single_mode_bundle.model)
    assert rep.passed and rep.rank == 1


def test_controllability_zeroed_row():
    model = ReducedModel(np.array([1.0, 4.0]), np.array([[0.0, 0.1], [0.3, 0.2]]),
                         np.array([2.0, 3.0]), 9.0)
    rep = check_controllability(model)
    assert not rep.passed
    assert not rep.structural_certificate


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_vandermonde_certificate(N, seed):
    # nonzero first input column + distinct eigenvalues => full Kalman rank
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(-30.0, 30.0, N))
    lam += 0.5 * np.arange(N)               # enforce clear separation
    b = rng.uniform(0.2, 2.0, N) * rng.choice([-1.0, 1.0], N)
    model = ReducedModel(lam, b[:, None], np.array([1.0]), lam[-1] + 1.0)
    rep = check_controllability(model)
    assert rep.structural_certificate
    assert rep.passed


def test_closed_form_gains_single_mode(single_mode_bundle):
    gains = single_mode_bundle.gains
    p, q, sigma = 1.0, -2.0 * PI ** 2, 1.0
    expected = -(21.0 * PI / (4.0 * S2)) * (sigma - p * PI ** 2 - q)
    assert abs(gains.K[0, 0] - expected) / abs(expected) < 1e-9
    assert np.allclose(gains.R, np.eye(1))
    assert gains.sigma == 1.0


def test_closed_form_gain_inverse_two_mode(two_mode_bundle):
    ref = two_mode_reference()["g"]
    g = -np.linalg.inv(two_mode_bundle.model.B)
    assert np.max(np.abs(g - ref) / np.abs(ref)) <= 1e-6


def test_open_loop_stable_identity_certificate():
    # a plant whose modes already decay at 2 sigma satisfies the inequality
    # with zero gains and identity weighting
    model = ReducedModel(np.array([5.0, 9.0]), np.array([[0.2], [0.3]]),
                         np.array([1.0]), 12.0)
    residual = gain_inequality_residual(model, np.zeros((1, 2)), np.eye(2), 2.0)
    assert residual <= 1e-12


def test_pole_placement_two_mode(two_mode_bundle):
    gains = design_gains(two_mode_bundle.model, [1.5, 1.5], mode="pole_placement")
    assert gains.mode == "pole_placement"
    assert np.all(gains.K[1] == 0.0)          # only the first input is used
    res = gain_inequality_residual(two_mode_bundle.model, gains.K, gains.R, gains.sigma)
    assert res <= 1e-9
    assert gains.c1 > 0.0
    A = -np.diag(two_mode_bundle.model.lambdas) + two_mode_bundle.model.B @ gains.K
    assert np.max(np.abs(np.sort(np.linalg.eigvals(A).real) - [-1.5, -1.5])) < 1e-6


def test_pole_placement_rejects_uncontrollable():
    model = ReducedModel(np.array([1.0, 4.0]), np.array([[0.0], [0.3]]),
                         np.array([1.0]), 9.0)
    with pytest.raises(PlacementFailed):
        design_gains(model, [1.0, 1.0], mode="pole_placement")


def test_closed_form_needs_square_invertible():
    model = ReducedModel(np.array([1.0, 4.0]), np.array([[0.2], [0.3]]),
                         np.array([1.0]), 9.0)
    with pytest.raises(SingularB):
        design_gains(model, [1.0, 1.0], mode="closed_form")
    singular = ReducedModel(np.array([1.0, 4.0]),
                            np.array([[0.2, 0.2], [0.3, 0.3]]),
                            np.array([1.0, 2.0]), 9.0)
    with pytest.raises(SingularB):
        design_gains(singular, [1.0, 1.0], mode="closed_form")


def test_gain_rejects_bad_sigma(two_mode_bundle):
    with pytest.raises(ValueError):
        design_gains(two_mode_bundle.model, [1.0, -2.0])
    with pytest.raises(ValueError):
        design_gains(two_mode_bundle.model, [1.0, 1.0, 1.0])


def test_contracts_stated_once():
    # -B^-1 is formed by reduced.gain_inverse alone, and certify reads the
    # eigen contracts from spectral.eigen_contracts instead of restating them
    src = Path(__file__).resolve().parents[1] / "src" / "clfpde"
    assert sum(path.read_text().count("np.linalg.inv(") for path in src.glob("*.py")) == 1
    pipeline = (src / "pipeline.py").read_text()
    assert not re.search(r"\bgram\(|operator_residuals", pipeline)
