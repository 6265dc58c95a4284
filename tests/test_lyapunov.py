import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clfpde import pipeline
from clfpde.config import config_from_text
from clfpde.errors import KernelTruncationExceedsModes, TailBoundFailed
from clfpde.lyapunov import (
    build_feedback_law,
    coercivity_constants,
    coupling_table,
    linear_loop,
    select_clf_params,
    weight_inequality_margins,
)
from clfpde.presets import single_mode_kernel_closed_form, single_mode_tail_sum
from clfpde.semilinear import semilinear_loop
from clfpde.shapes import shape_gram

from conftest import (PLANTS, bound, modal_form, random_modal_state, random_states, rate,
                      semilinear_value_rate_bound)

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
    shapes, eig = single_mode_bundle.shapes, single_mode_bundle.eigsys
    y_m, tail_m, trunc_m = weight_inequality_margins(
        params, single_mode_bundle.gains, shapes, eig, coupling_table(shapes, eig, eig.K))
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
    cw = eig.inner(w, eig.phis[:2])
    cu = eig.inner(u, eig.phis[:2])
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
    c, norm_sq = modal_form(eig, w)
    return loop.value(c, np.atleast_1d(y), norm_sq)


def rate_at(w, y, bundle, loop, v=None):
    """(dV/dt, bound) at the grid state (w, y), under the feedback law unless v is given."""
    eig = bundle.eigsys
    c, norm_sq = modal_form(eig, w)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if v is None:
        v = loop.controls(c, y)
    return rate(loop, c, y, v), bound(loop, norm_sq, y)


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
        v_modal = loop.controls(eig.inner(w, eig.phis), y)
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
    c = bundle.eigsys.inner(w, bundle.eigsys.phis[:2])
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
    # the open loop certifies none, and its dissipation form says so
    bundle = single_mode_bundle
    eig, params, shapes = bundle.eigsys, bundle.params, bundle.shapes
    loop = loop_of(bundle)
    s, a, b = loop.decay
    assert (s, a) == (0.5, min(params.gamma * eig.lambdas[bundle.model.N], params.sigma))
    assert np.array_equal(b, params.omegas * shapes.mus)
    y = np.array([0.7])
    assert bound(loop, 2.0, y) == -0.5 * (a * 2.0 + b[0] * (y[0] * y[0]))
    open_loop = linear_loop(eig, shapes, bundle.gains, params, None, eig.K)
    assert open_loop.decay is None
    with pytest.raises(ValueError, match="no certified decay bound"):
        open_loop.dissipation(shape_gram(shapes, eig), pipeline.RATE_TOL_REL)


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
    c = eig.inner(w, eig.phis)
    gamma = bundle.params.gamma
    direct = -gamma * float((eig.lambdas[N:] * c[N:] ** 2).sum())
    assert abs(vdot - direct) <= 1e-9 * max(1.0, abs(direct))
    assert vdot <= -gamma * eig.lambdas[N] * eig.norm_sq(w) * (1.0 - 1e-9)


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
    margin = loop.dissipation(shape_gram(bundle.shapes, bundle.eigsys), pipeline.RATE_TOL_REL)
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


# -- batched evaluators ----------------------------------------------------------

# The tests that evaluate V and dV/dt at many states do it as rows; here every
# batched evaluator is checked row by row against its 1-D call.

ROW_RTOL = 1e-13


@pytest.fixture(scope="module", params=sorted(PLANTS))
def plant(request):
    bundle = pipeline.design(config_from_text(PLANTS[request.param]()))
    pipeline.certify(bundle)
    return bundle


def assert_rows_match(batched, singles):
    """Row s of a batched result equals the 1-D result on state s within ROW_RTOL of
    the call's largest entry.  dV/dt cancels terms up to 1e4 times its size (the
    gains reach 4e3 on two_mode_semilinear), so a row's own size would measure
    how matrix-matrix and matrix-vector products round its inputs, not the batching.
    """
    batched = np.asarray(batched)
    assert batched.shape[0] == len(singles)
    scale = float(np.max(np.abs(batched)))
    for row, single in zip(batched, singles):
        single = np.asarray(single)
        assert row.shape == single.shape
        assert float(np.max(np.abs(row - single))) <= ROW_RTOL * scale


def test_batched_evaluators_match_the_1d_calls_row_by_row(plant):
    eig, shapes, gains, params, law = (plant.eigsys, plant.shapes, plant.gains,
                                       plant.params, plant.law)
    W, Y = random_states(eig, shapes.j, 7, 0)
    loop = linear_loop(eig, shapes, gains, params, law, eig.K)

    # the grid products, on the states W
    C = eig.inner(W, eig.phis)
    assert C.shape == (7, eig.K)
    assert_rows_match(C, [eig.inner(w, eig.phis) for w in W])
    norm_sq = eig.norm_sq(W)
    assert_rows_match(norm_sq, [eig.norm_sq(w) for w in W])

    # the modal evaluators, on the batch's own rows of (C, norm_sq, Y, V): a
    # 1-D projection of W rounds differently from the batched one, and dV/dt
    # would magnify that gap by the cancellation assert_rows_match describes
    V = loop.controls(C, Y)
    states = list(zip(C, norm_sq, Y, V))
    assert_rows_match(V, [loop.controls(c, y) for c, _, y, _ in states])
    bounds = [bound(loop, n, y) for _, n, y, _ in states]
    assert all(type(b) is float for b in bounds)
    assert_rows_match(bound(loop, norm_sq, Y), bounds)
    values = [loop.value(c, y, n) for c, n, y, _ in states]
    assert all(type(v) is float for v in values)
    assert_rows_match(loop.value(C, Y, norm_sq), values)
    rates = [rate(loop, c, y, v) for c, _, y, v in states]
    assert all(type(r) is float for r in rates)
    assert_rows_match(rate(loop, C, Y, V), rates)

    sl = plant.sl_design
    if sl is not None:
        F = plant.config.semilinear.nonlinearity()
        sl_loop = semilinear_loop(eig, shapes, sl, eig.K)
        batched = semilinear_value_rate_bound(sl_loop, F, shapes, eig, W, C, norm_sq, Y)
        singles = [semilinear_value_rate_bound(sl_loop, F, shapes, eig, w, c, n, y)
                   for w, (c, n, y, _) in zip(W, states)]
        assert all(type(x) is float for single in singles for x in single)
        for k in range(3):
            assert_rows_match(batched[k], [single[k] for single in singles])
