import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clfpde import pipeline
from clfpde.config import config_from_text
from clfpde.errors import KernelTruncationExceedsModes, RemainderTooLarge, TailBoundFailed
from clfpde.lyapunov import (
    build_feedback_law,
    coercivity_constants,
    linear_loop,
    modal_state,
    select_clf_params,
    weight_inequality_margins,
)
from clfpde.presets import single_mode_kernel_closed_form, single_mode_tail_sum
from clfpde.spectral import project

from conftest import PLANTS, random_modal_state

PI = np.pi
S2 = np.sqrt(2.0)


# -- parameter selection -----------------------------------------------------

def test_quoted_inequality_instances(single_mode_bundle):
    # for the single-mode benchmark the weight inequalities reduce to
    # 4 sigma (25 p pi^2 + 4 q) >= 441 pi^2 (sigma - p pi^2 - q)^2 omega and
    # 128 p pi^2 sigma >= 441 pi^2 gamma (sigma - p pi^2 - q)^2, both of
    # which must hold with the safety-factor-2 margin on the first
    p, q, sigma = 1.0, -2.0 * PI ** 2, 1.0
    params = single_mode_bundle.params
    omega = float(params.omegas[0])
    gamma = params.gamma
    s = sigma - p * PI ** 2 - q
    lhs1 = 4.0 * sigma * (25.0 * p * PI ** 2 + 4.0 * q)
    rhs1 = 441.0 * PI ** 2 * s ** 2 * omega
    assert abs(lhs1 / rhs1 - 2.0) < 1e-9
    assert 128.0 * p * PI ** 2 * sigma >= 441.0 * PI ** 2 * gamma * s ** 2
    y_m, tail_m, trunc_m = weight_inequality_margins(
        params, single_mode_bundle.gains, single_mode_bundle.shapes,
        single_mode_bundle.eigsys)
    assert np.all(y_m > 0) and tail_m > 0 and trunc_m >= 0


def test_zero_L_gives_minimal_truncation(single_mode_bundle):
    assert np.all(single_mode_bundle.params.Ls == 0.0)
    assert single_mode_bundle.params.M == single_mode_bundle.model.N + 1


def test_truncation_index_against_closed_form(single_mode_bundle_L1):
    # p pi^4 ((M+1)^2 - (N+1)^2) >= 8 gamma L sum_{n>M} n^2/(25-4n^2)^2,
    # with the tail evaluated to machine convergence
    bundle = single_mode_bundle_L1
    M = bundle.params.M
    gamma = bundle.params.gamma
    L = float(bundle.params.Ls[0])
    assert L == 1.0

    def closed_form_holds(m):
        lhs = PI ** 4 * ((m + 1) ** 2 - 4.0)
        return lhs >= 8.0 * gamma * L * single_mode_tail_sum(m)

    assert M >= 2
    assert closed_form_holds(M)
    # near-minimality: the conservative tail bound may add a little slack
    first = next(m for m in range(2, 600) if closed_form_holds(m))
    assert M <= first + 2


def test_tail_bound_failure(single_mode_bundle):
    with pytest.raises(TailBoundFailed):
        select_clf_params(single_mode_bundle.gains, single_mode_bundle.shapes,
                          single_mode_bundle.eigsys, [1e12], safety=2.0, m_max=16)


def test_omega_default_for_zero_gain(two_mode_bundle):
    from clfpde.reduced import GainDesign
    gains = two_mode_bundle.gains
    zero = GainDesign(np.zeros_like(gains.K), gains.R, gains.sigma,
                      gains.c1, gains.c2, gains.mode)
    params = select_clf_params(zero, two_mode_bundle.shapes,
                               two_mode_bundle.eigsys, [0.0, 0.0], safety=2.0, m_max=512)
    assert np.allclose(params.omegas, gains.sigma * two_mode_bundle.shapes.mus)
    assert params.gamma > 0.0


# -- weighting operator ------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_weighting_operator_symmetry(two_mode_bundle, seed):
    # <Gw, u> = <Gu, w> by direct double evaluation on the grid
    eig = two_mode_bundle.eigsys
    R = two_mode_bundle.gains.R
    rng = np.random.default_rng(seed)
    w, _ = random_modal_state(eig, 2, rng)
    u, _ = random_modal_state(eig, 2, rng)
    cw = project(w, eig, 2)
    cu = project(u, eig, 2)
    Gw = (R @ cw) @ eig.phis[:2]
    Gu = (R @ cu) @ eig.phis[:2]
    lhs = eig.inner(Gw, u)
    rhs = eig.inner(Gu, w)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# -- functional value --------------------------------------------------------

def loop_of(bundle):
    """The certifier's loop: all computed modes under the bundle's feedback law."""
    eig = bundle.eigsys
    return linear_loop(eig, bundle.shapes, bundle.gains, bundle.params, bundle.law, eig.K)


def value_at(w, y, loop, eig):
    """V of the loop at the grid state (w, y)."""
    c, norm_sq = modal_state(w, eig, eig.K)
    return loop.value(c, np.atleast_1d(y), norm_sq)


def rate_at(w, y, bundle, loop, v=None):
    """(dV/dt, bound) at the grid state (w, y), under the feedback law unless v is given."""
    eig = bundle.eigsys
    c, norm_sq = modal_state(w, eig, eig.K)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if v is None:
        v = loop.controls(c, y)
    return loop.rate(c, y, v), loop.bound(norm_sq, y)


def test_value_trivial_zero(single_mode_bundle):
    eig = single_mode_bundle.eigsys
    V = value_at(np.zeros(eig.grid.n_points), [0.0], loop_of(single_mode_bundle), eig)
    assert V == 0.0


def test_value_first_mode(single_mode_bundle):
    eig = single_mode_bundle.eigsys
    V = value_at(eig.phis[0], [0.0], loop_of(single_mode_bundle), eig)
    assert abs(V - 0.5) < 1e-10


def test_coercivity_sandwich(single_mode_bundle):
    eig = single_mode_bundle.eigsys
    params, gains = single_mode_bundle.params, single_mode_bundle.gains
    lo, hi = coercivity_constants(params, gains)
    loop = loop_of(single_mode_bundle)
    rng = np.random.default_rng(7)
    for _ in range(50):
        w, y = random_modal_state(eig, 1, rng)
        size = eig.norm_sq(w) + float(y @ y)
        V = value_at(w, y, loop, eig)
        tol = 1e-6 * max(1.0, abs(V))
        assert 0.5 * lo * size - tol <= V <= 0.5 * hi * size + tol


# -- kernels and feedback ----------------------------------------------------

def test_kernel_closed_form(single_mode_bundle_L1, grid):
    bundle = single_mode_bundle_L1
    k_ref = single_mode_kernel_closed_form(
        grid.x, 1.0, -2.0 * PI ** 2, 1.0, bundle.params.gamma, 1.0, bundle.params.M)
    scale = np.max(np.abs(k_ref))
    assert np.max(np.abs(bundle.law.kernels[0] - k_ref)) <= 1e-8 * scale


def test_zero_L_kernel_reduction(single_mode_bundle):
    # with L = 0 the kernel is exactly the reduced-model combination
    bundle = single_mode_bundle
    direct = bundle.gains.K @ bundle.eigsys.phis[:1]
    assert np.max(np.abs(bundle.law.kernels - direct)) <= 1e-10


def grid_controls(law, w, y, eig):
    """The law's controls from its grid kernels: v_i = <k_i, w> - omega_i L_i y_i."""
    return eig.inner(law.kernels, w).T - law.y_gains * np.asarray(y, dtype=float)


def test_kernel_dual_path(single_mode_bundle_L1):
    # the grid kernels project onto the loop's modal gains, and so the grid
    # and modal controls agree at every state
    bundle = single_mode_bundle_L1
    eig = bundle.eigsys
    loop = loop_of(bundle)
    assert np.max(np.abs(eig.inner(bundle.law.kernels, eig.phis) - loop.Kmat)) \
        <= 1e-8 * max(1.0, np.max(np.abs(loop.Kmat)))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        w, y = random_modal_state(eig, 1, rng)
        v_quad = grid_controls(bundle.law, w, y, eig)
        v_modal = loop.controls(project(w, eig, eig.K), y)
        worst = max(worst, float(np.max(np.abs(v_quad - v_modal))))
    assert worst <= 1e-8


def test_feedback_trivials(single_mode_bundle):
    bundle = single_mode_bundle
    eig = bundle.eigsys
    v = grid_controls(bundle.law, np.zeros(eig.grid.n_points), [0.0], eig)
    assert np.all(v == 0.0)
    # L = 0: controls are independent of y
    w, _ = random_modal_state(eig, 1, np.random.default_rng(0))
    v1 = grid_controls(bundle.law, w, [0.0], eig)
    v2 = grid_controls(bundle.law, w, [5.0], eig)
    assert np.allclose(v1, v2)


def test_feedback_coefficient_pickoff(single_mode_bundle):
    # evaluating the law on the first eigenfunction picks off the gain entry
    bundle = single_mode_bundle
    v = grid_controls(bundle.law, bundle.eigsys.phis[0], [0.0], bundle.eigsys)
    assert abs(v[0] - bundle.gains.K[0, 0]) < 1e-8 * abs(bundle.gains.K[0, 0])


def test_kernel_truncation_guard(single_mode_bundle):
    from clfpde.lyapunov import CLFParams
    params = single_mode_bundle.params
    bad = CLFParams(params.omegas, params.gamma, params.sigma,
                    single_mode_bundle.eigsys.K + 1, params.Ls)
    with pytest.raises(KernelTruncationExceedsModes):
        build_feedback_law(single_mode_bundle.gains, bad,
                           single_mode_bundle.shapes, single_mode_bundle.eigsys)


# -- transformed state --------------------------------------------------------

def test_modal_relation_of_transformed_state(two_mode_bundle, grid):
    # c_n = integral of sin(n pi x) u - 4 (-1)^n n y_1 / ((25-4n^2) pi)
    #       - 4 (-1)^n n y_2 / ((49-4n^2) pi), in the plain-sine convention,
    # for the state w = u - sum_i y_i varphi_i that absorbs the boundary input,
    # whose first shape has y_1' = -(5 pi^2/4) y_1 + v_1
    bundle = two_mode_bundle
    assert abs(bundle.shapes.mus[0] - 5.0 * PI ** 2 / 4.0) < 1e-12
    rng = np.random.default_rng(11)
    u, y = random_modal_state(bundle.eigsys, 2, rng)
    w = u - y @ bundle.shapes.varphis
    c = project(w, bundle.eigsys, 2)
    for n in (1, 2):
        sin_n = np.sin(n * PI * grid.x)
        integral = float((sin_n * u) @ grid.weights)
        expected = integral \
            - 4.0 * (-1.0) ** n * n / ((25.0 - 4.0 * n ** 2) * PI) * y[0] \
            - 4.0 * (-1.0) ** n * n / ((49.0 - 4.0 * n ** 2) * PI) * y[1]
        assert abs(c[n - 1] / S2 - expected) < 1e-9


# -- derivative of the functional ---------------------------------------------

def test_rate_trivial_zero(single_mode_bundle):
    bundle = single_mode_bundle
    vdot, bound = rate_at(np.zeros(bundle.grid.n_points), [0.0], bundle, loop_of(bundle))
    assert vdot == 0.0 and bound == 0.0


def test_decay_bound_of_the_law_and_the_open_loop(single_mode_bundle):
    # the law's bound is -1/2 (min(gamma lambda_{N+1}, sigma) ||w||^2 + sum_i omega_i mu_i y_i^2);
    # the open loop certifies none
    bundle = single_mode_bundle
    eig, params, shapes = bundle.eigsys, bundle.params, bundle.shapes
    loop = loop_of(bundle)
    s, a, b = loop.decay
    assert (s, a) == (0.5, min(params.gamma * eig.lambdas[bundle.model.N], params.sigma))
    assert np.array_equal(b, params.omegas * shapes.mus)
    y = np.array([0.7])
    assert loop.bound(2.0, y) == -0.5 * (a * 2.0 + b[0] * (y[0] * y[0]))
    open_loop = linear_loop(eig, shapes, bundle.gains, params, None, eig.K)
    assert open_loop.decay is None
    with pytest.raises(ValueError, match="no certified decay bound"):
        open_loop.bound(2.0, y)


@pytest.mark.parametrize("fixture", ["single_mode_bundle", "single_mode_bundle_L1"])
def test_dissipation_on_random_states(fixture, request):
    bundle = request.getfixturevalue(fixture)
    eig = bundle.eigsys
    loop = loop_of(bundle)
    rng = np.random.default_rng(23)
    for _ in range(50):
        w, y = random_modal_state(eig, 1, rng)
        vdot, bound = rate_at(w, y, bundle, loop)
        assert vdot <= bound + 1e-6 * (1.0 + abs(bound))


def test_tail_state_diagonal_rate(single_mode_bundle):
    # states spanning only modes beyond the cutoff with v = 0: the rate is
    # the pure diagonal tail sum, below -gamma lambda_{N+1} ||w||^2
    bundle = single_mode_bundle
    eig = bundle.eigsys
    N = bundle.model.N
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(20) / np.arange(1, 21) ** 2
    w = amps @ eig.phis[N:N + 20]
    vdot, _ = rate_at(w, [0.0], bundle, loop_of(bundle), v=np.zeros(1))
    c = project(w, eig, eig.K)
    gamma = bundle.params.gamma
    direct = -gamma * float((eig.lambdas[N:] * c[N:] ** 2).sum())
    assert abs(vdot - direct) <= 1e-9 * max(1.0, abs(direct))
    assert vdot <= -gamma * eig.lambdas[N] * eig.norm_sq(w) * (1.0 - 1e-9)


def test_remainder_guard(single_mode_bundle):
    bundle = single_mode_bundle
    x = bundle.grid.x
    w = np.sin(150.5 * PI * x)      # far beyond the computed span
    with pytest.raises(RemainderTooLarge):
        rate_at(w, [0.0], bundle, loop_of(bundle))


# -- the dissipation form ------------------------------------------------------

def at_safety(name, safety):
    """A PLANTS design at the given [clf] safety, certified."""
    text = PLANTS[name]()
    assert "safety = 2.0" in text
    bundle = pipeline.design(config_from_text(text.replace("safety = 2.0", f"safety = {safety}")))
    pipeline.certify(bundle)
    return bundle


def weight(loop):
    """W = diag(R, gamma I, omega), the weight of z = (c, y) in V = z^T W z / 2."""
    n = loop.lambdas.size
    W = np.diag(np.concatenate([np.full(n, loop.gamma), loop.omegas]))
    W[:loop.N, :loop.N] = loop.R
    return W


def dense_form(loop, slack):
    """sym(W A) + (1 - slack) s diag(a I, b) on all the loop's modes, written out."""
    s, a, b = loop.decay
    WA = weight(loop) @ loop.matrix()
    bound = np.concatenate([np.full(loop.lambdas.size, a), b])
    return 0.5 * (WA + WA.T) + np.diag((1.0 - slack) * s * bound)


@pytest.fixture(scope="module", params=[(name, safety) for name in sorted(PLANTS)
                                        for safety in ("2.0", "0.1")],
                ids=lambda p: f"{p[0]}@{p[1]}")
def plant_at_safety(request):
    return at_safety(*request.param)


def test_dissipation_sign_matches_the_dense_form(plant_at_safety):
    # the Schur form (tail diagonal, Parseval term past K) and a dense eigvalsh
    # of the whole computed form decide alike; W's least eigenvalue is coercivity's
    bundle = plant_at_safety
    loop = loop_of(bundle)
    verdicts = {v.name: v for v in bundle.verdicts}
    margin = loop.dissipation(bundle.shapes.norms_sq, pipeline.RATE_TOL_REL)
    dense = float(np.linalg.eigvalsh(dense_form(loop, pipeline.RATE_TOL_REL))[-1])
    assert dense != 0.0
    assert (margin >= 0.0) == (dense < 0.0)
    assert verdicts["dissipation"].margin == margin
    assert verdicts["dissipation"].passed == (margin >= 0.0)
    lo = float(np.linalg.eigvalsh(weight(loop))[0])
    assert abs(verdicts["coercivity"].margin - lo) <= 1e-12 * lo


def test_non_dissipative_design_fails_dissipation():
    # at safety 0.1, V of two_mode_semilinear's linear law grows in some
    # direction (sym(W A) alone has a positive eigenvalue), which 20 random
    # states missed: the form fails there
    bundle = at_safety("two_mode_semilinear", "0.1")
    loop = loop_of(bundle)
    assert np.linalg.eigvalsh(dense_form(loop, 1.0))[-1] > 0.0
    verdict = {v.name: v for v in bundle.verdicts}["dissipation"]
    assert not verdict.passed
    assert verdict.margin == pytest.approx(-8.4e-3, rel=0.01)
