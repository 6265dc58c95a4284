import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from clfpde import pipeline
from clfpde.artifact import load_artifact, save_artifact
from clfpde.errors import (
    DegenerateTrajectory,
    GridTooCoarse,
    Instability,
    QuadratureBudgetExceeded,
    RemainderTooLarge,
)
from clfpde.lyapunov import linear_loop, modal_state
from clfpde.semilinear import NonlinearitySpec, semilinear_loop
from clfpde.presets import dirichlet_problem, preset_config
from clfpde.shapes import build_shape_set
from clfpde.sim import (
    GAUSS_NODES_PER_MODE,
    INSTABILITY_FACTOR,
    SimConfig,
    Trajectory,
    _initial_state,
    _phi_functions,
    fit_decay_rate,
    gauss_quadrature,
    simulate_linear,
    simulate_semilinear,
    trajectory_header,
    write_trajectory_csv,
)
from clfpde.spectral import Coefficient, SLProblem, eigensolve, gauss_rule
from clfpde.textio import read_csv

PI = np.pi


def synthetic_trajectory(times, norms):
    S = times.size
    return Trajectory(
        times=times, coeffs=np.zeros((S, 1)), y=np.zeros((S, 1)),
        norm_w=norms, norm_y=np.zeros(S), V=norms ** 2, U=np.zeros(S),
        v=np.zeros((S, 1)), vbar=np.zeros((S, 1)), certified=True,
        design_N=1, kind="linear")


# -- decay fitting ------------------------------------------------------------

def test_fit_exact_exponential():
    t = np.linspace(0, 5, 200)
    fit = fit_decay_rate(synthetic_trajectory(t, 3.0 * np.exp(-2.0 * t)))
    assert abs(fit.amplitude - 3.0) < 1e-9
    assert abs(fit.rate - 2.0) < 1e-12
    assert fit.r_squared > 0.9999


def test_fit_constant_trajectory():
    t = np.linspace(0, 5, 100)
    fit = fit_decay_rate(synthetic_trajectory(t, np.full(100, 0.7)))
    assert abs(fit.rate) < 1e-12


def test_fit_guards():
    t = np.linspace(0, 5, 100)
    with pytest.raises(DegenerateTrajectory):
        fit_decay_rate(synthetic_trajectory(t, np.zeros(100)))
    with pytest.raises(ValueError):
        fit_decay_rate(synthetic_trajectory(t[:10], np.exp(-t[:10])))


# -- linear simulation ----------------------------------------------------------

def test_zero_state_stays_zero(single_mode_bundle):
    bundle = single_mode_bundle
    cfg = SimConfig(n_modes=16, dt=1e-3, t_final=0.5, record_stride=5)
    traj = simulate_linear(bundle.eigsys, bundle.shapes, bundle.gains,
                           bundle.params, bundle.law,
                           np.zeros(bundle.grid.n_points), [0.0], cfg)
    assert np.all(traj.norm_w == 0.0) and np.all(traj.norm_y == 0.0)
    assert np.all(traj.V == 0.0)


def test_certified_run_decays_and_V_monotone(single_mode_bundle):
    bundle = single_mode_bundle
    traj = pipeline.simulate(bundle)
    fit = fit_decay_rate(traj)
    assert fit.rate > 0 and fit.r_squared > 0.99
    assert np.all(np.diff(traj.V) <= 1e-6 * np.maximum(traj.V[:-1], 1e-300))
    assert np.all(np.isfinite(traj.coeffs))
    # exponential envelope of the functional at the fitted rate
    envelope = traj.V[0] * np.exp(-2.0 * 0.9 * fit.rate * traj.times)
    assert np.all(traj.V <= envelope * (1.0 + 1e-6))
    # guaranteed-rate floor from the certificate
    from clfpde.lyapunov import guaranteed_decay_rate
    floor = guaranteed_decay_rate(bundle.params, bundle.gains, bundle.shapes,
                                  bundle.eigsys)
    assert fit.rate >= 0.9 * floor


def test_open_loop_grows_at_unstable_rate(single_mode_bundle):
    bundle = single_mode_bundle
    w0, _ = pipeline.initial_state(bundle)
    cfg = SimConfig(n_modes=64, dt=1e-4, t_final=1.0, record_stride=10)
    traj = simulate_linear(bundle.eigsys, bundle.shapes, None, None, None,
                           w0, [0.0], cfg)
    fit = fit_decay_rate(traj)
    growth = -fit.rate
    assert abs(growth - PI ** 2) / PI ** 2 < 0.05
    assert traj.kind == "open_loop"


def test_sample_count_contract(single_mode_bundle):
    bundle = single_mode_bundle
    cfg = SimConfig(n_modes=16, dt=1e-3, t_final=1.0, record_stride=7)
    traj = simulate_linear(bundle.eigsys, bundle.shapes, bundle.gains,
                           bundle.params, bundle.law,
                           bundle.eigsys.phis[0], [0.1], cfg)
    steps = int(round(1.0 / 1e-3))
    assert traj.samples == steps // 7 + 1


def rk4_samples(bundle, traj, n_modes, dt, stride):
    """Classical RK4 at step dt on the linear loop z' = A z from the first
    recorded state, sampled every stride steps; on a linear system one RK4
    step is the degree-4 Taylor polynomial of e^{dt A}."""
    A = linear_loop(bundle.eigsys, bundle.shapes, bundle.gains, bundle.params,
                    bundle.law, n_modes).matrix()
    step = term = np.eye(len(A))
    for k in range(1, 5):
        term = term @ (dt * A) / k
        step = step + term
    sample = np.linalg.matrix_power(step, stride)
    z = [np.concatenate([traj.coeffs[0], traj.y[0]])]
    for _ in range(traj.samples - 1):
        z.append(sample @ z[-1])
    return np.array(z)


def test_integrator_cross_check(single_mode_bundle):
    bundle = single_mode_bundle
    w0, y0 = pipeline.initial_state(bundle)
    cfg = SimConfig(n_modes=64, dt=1e-4, t_final=0.5, record_stride=50)
    traj = simulate_linear(bundle.eigsys, bundle.shapes, bundle.gains,
                           bundle.params, bundle.law, w0, y0, cfg)
    ref_norm = np.linalg.norm(rk4_samples(bundle, traj, 64, 1e-5, 500)[-1, :64])
    rel = abs(traj.norm_w[-1] - ref_norm) / ref_norm
    assert rel < 1e-4


def test_exact_propagator_is_step_size_invariant(single_mode_bundle):
    # the LTI loop is sampled exactly: only dt * record_stride matters
    bundle = single_mode_bundle
    w0, y0 = pipeline.initial_state(bundle)
    fine = SimConfig(n_modes=64, dt=1e-4, t_final=0.5, record_stride=10)
    coarse = SimConfig(n_modes=64, dt=1e-3, t_final=0.5, record_stride=1)
    a, b = (simulate_linear(bundle.eigsys, bundle.shapes, bundle.gains,
                            bundle.params, bundle.law, w0, y0, cfg)
            for cfg in (fine, coarse))
    assert a.samples == b.samples == 501
    assert np.allclose(a.times, b.times, rtol=1e-12, atol=0.0)
    za, zb = np.hstack([a.coeffs, a.y]), np.hstack([b.coeffs, b.y])
    assert np.max(np.abs(za - zb)) <= 1e-12 * np.max(np.abs(zb))


def test_exact_propagator_matches_fine_rk4(single_mode_bundle):
    bundle = single_mode_bundle
    w0, y0 = pipeline.initial_state(bundle)
    cfg = SimConfig(n_modes=64, dt=1e-4, t_final=0.5, record_stride=50)
    traj = simulate_linear(bundle.eigsys, bundle.shapes, bundle.gains,
                           bundle.params, bundle.law, w0, y0, cfg)
    ref = rk4_samples(bundle, traj, 64, 2e-5, 250)
    assert traj.samples == len(ref) == 101
    assert np.max(np.abs(traj.coeffs - ref[:, :64])) <= 1e-9


def test_exact_propagator_matches_radau(single_mode_bundle):
    # Radau on z' = A z at rtol 1e-12, sampled at the recorded times
    bundle = single_mode_bundle
    w0, y0 = pipeline.initial_state(bundle)
    cfg = SimConfig(n_modes=64, dt=1e-4, t_final=0.5, record_stride=50)
    traj = simulate_linear(bundle.eigsys, bundle.shapes, bundle.gains,
                           bundle.params, bundle.law, w0, y0, cfg)
    A = linear_loop(bundle.eigsys, bundle.shapes, bundle.gains, bundle.params,
                    bundle.law, 64).matrix()
    ref = solve_ivp(lambda t, z: A @ z, (0.0, 0.5), np.concatenate([traj.coeffs[0], traj.y[0]]),
                    method="Radau", jac=A, t_eval=traj.times, rtol=1e-12, atol=1e-14)
    assert ref.success and traj.samples == ref.t.size == 101
    assert np.max(np.abs(traj.coeffs - ref.y[:64].T)) <= 1e-9
    # and the recorded norm with it
    ref_norm = np.linalg.norm(ref.y[:64, -1])
    assert abs(traj.norm_w[-1] - ref_norm) / ref_norm < 1e-4


def test_truncation_robustness(single_mode_bundle):
    bundle = single_mode_bundle
    w0, y0 = pipeline.initial_state(bundle)
    rates = []
    for n_modes in (48, 96):
        cfg = SimConfig(n_modes=n_modes, dt=1e-4, t_final=3.0, record_stride=10)
        traj = simulate_linear(bundle.eigsys, bundle.shapes, bundle.gains,
                               bundle.params, bundle.law, w0, y0, cfg)
        rates.append(fit_decay_rate(traj).rate)
    assert abs(rates[1] - rates[0]) / rates[1] < 0.02


def test_instability_guard(single_mode_bundle):
    bundle = single_mode_bundle
    w0, _ = pipeline.initial_state(bundle)
    cfg = SimConfig(n_modes=32, dt=1e-4, t_final=3.0, record_stride=10)
    with pytest.raises(Instability):
        simulate_linear(bundle.eigsys, bundle.shapes, None, None, None,
                        w0, [0.0], cfg)


def test_instability_guard_survives_overflow(single_mode_bundle):
    # the open loop grows like exp(9.87 t) and overflows to inf long before
    # t = 100: the guard still names the first recorded sample past the cap,
    # and no overflow warning escapes
    bundle = single_mode_bundle
    w0, _ = pipeline.initial_state(bundle)
    cfg = SimConfig(n_modes=32, dt=1e-3, t_final=100.0, record_stride=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Instability, match=r"at t=1\.42 exceeds"):
            simulate_linear(bundle.eigsys, bundle.shapes, None, None, None,
                            w0, [0.0], cfg)


def test_w0_remainder_guard(single_mode_bundle):
    bundle = single_mode_bundle
    cfg = SimConfig(n_modes=8, dt=1e-3, t_final=1.0)
    w0 = np.sin(20.5 * PI * bundle.grid.x)        # beyond 8 modes
    with pytest.raises(RemainderTooLarge):
        simulate_linear(bundle.eigsys, bundle.shapes, bundle.gains,
                        bundle.params, bundle.law, w0, [0.0], cfg)


def test_energy_identity_along_trajectory(two_mode_bundle):
    # ||u||^2 = ||w||^2 + 2 sum <varphi_i, w> y_i + sum ||varphi_i||^2 y_i^2
    # under mutually orthogonal shapes, at every recorded sample
    bundle = two_mode_bundle
    F = NonlinearitySpec.make("sine_type", scale=0.29)
    w0, y0 = pipeline.initial_state(bundle)
    cfg = SimConfig(n_modes=32, dt=5e-4, t_final=0.5, record_stride=20)
    traj = simulate_semilinear(bundle.eigsys, bundle.shapes, bundle.sl_design, F,
                               w0, y0, cfg)
    eig = bundle.eigsys
    Phi = eig.phis[:32]
    Psi = bundle.shapes.varphis
    wr = eig.grid.weights * eig.r_samples
    coupling = (Phi * wr) @ Psi.T                 # <varphi_i, phi_n>
    for k in range(traj.samples):
        c, y = traj.coeffs[k], traj.y[k]
        u = c @ Phi + y @ Psi
        lhs = float((u * u) @ wr)
        cross = c @ coupling                       # <varphi_i, w>
        rhs = float(c @ c) + 2.0 * float(cross @ y) \
            + float(bundle.shapes.norms_sq @ (y * y))
        # scale by term magnitudes: ||u||^2 itself may cancel to near zero
        scale = float(c @ c) + 2.0 * float(np.abs(cross) @ np.abs(y)) \
            + float(bundle.shapes.norms_sq @ (y * y))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, scale)


# -- semilinear simulation -------------------------------------------------------

def test_zero_nonlinearity_matches_linear_bitwise(two_mode_bundle):
    bundle = two_mode_bundle
    w0, y0 = pipeline.initial_state(bundle)
    cfg = SimConfig(n_modes=32, dt=5e-4, t_final=0.5, record_stride=10)
    lin = simulate_linear(bundle.eigsys, bundle.shapes, bundle.gains,
                          bundle.params, bundle.law, w0, y0, cfg)
    sem = simulate_semilinear(bundle.eigsys, bundle.shapes, bundle.sl_design,
                              NonlinearitySpec.make("zero"), w0, y0, cfg)
    assert np.array_equal(lin.coeffs, sem.coeffs)
    assert np.array_equal(lin.y, sem.y)
    assert np.array_equal(lin.v, sem.v)


def test_semilinear_certified_decay(two_mode_bundle):
    bundle = two_mode_bundle
    traj = pipeline.simulate(bundle)
    assert traj.certified
    fit = fit_decay_rate(traj)
    assert fit.rate > 0 and fit.r_squared > 0.98
    assert traj.norm_w[-1] + traj.norm_y[-1] < traj.norm_w[0] + traj.norm_y[0]


def test_quadrature_budget_guard(two_mode_bundle):
    bundle = two_mode_bundle
    cfg = SimConfig(n_modes=16, dt=1e-6, t_final=10.0, max_steps=100_000)
    with pytest.raises(QuadratureBudgetExceeded):
        simulate_semilinear(bundle.eigsys, bundle.shapes, bundle.sl_design,
                            NonlinearitySpec.make("sine_type", scale=0.29),
                            bundle.eigsys.phis[0], [0.0, 0.0], cfg)


def test_zero_nonlinearity_makes_no_quadrature(two_mode_bundle):
    # a zero F runs the exact propagator and counts nothing against max_steps
    bundle = two_mode_bundle
    cfg = SimConfig(n_modes=16, dt=1e-3, t_final=1.0, max_steps=1)
    traj = simulate_semilinear(bundle.eigsys, bundle.shapes, bundle.sl_design,
                               NonlinearitySpec.make("zero"),
                               bundle.eigsys.phis[0], [0.0, 0.0], cfg)
    assert traj.samples == 101


def test_quadrature_budget_counts_f_evaluations(two_mode_bundle, monkeypatch):
    # 100 ETDRK4 steps of 4 quadratures each, plus the last sample's controls
    bundle = two_mode_bundle
    w0, y0 = pipeline.initial_state(bundle)
    F = NonlinearitySpec.make("sine_type", scale=0.29)
    calls = []
    evaluate = NonlinearitySpec.evaluate
    monkeypatch.setattr(NonlinearitySpec, "evaluate",
                        lambda self, s, out=None: calls.append(1) or evaluate(self, s, out))

    def run(budget):
        cfg = SimConfig(n_modes=16, dt=1e-3, t_final=1.0, record_stride=10,
                        max_steps=budget)
        return simulate_semilinear(bundle.eigsys, bundle.shapes, bundle.sl_design, F,
                                   w0, y0, cfg)

    with pytest.raises(QuadratureBudgetExceeded, match="401 quadrature evaluations"):
        run(400)
    assert not calls
    assert run(401).samples == 101
    assert len(calls) == 401


def semilinear_run(bundle, n_modes, t_final, dt, stride):
    """The sine-type loop of a 3.3-preset bundle from its initial state."""
    F = NonlinearitySpec.make("sine_type", scale=0.29)
    w0, y0 = pipeline.initial_state(bundle)
    cfg = SimConfig(n_modes=n_modes, dt=dt, t_final=t_final, record_stride=stride)
    return simulate_semilinear(bundle.eigsys, bundle.shapes, bundle.sl_design, F,
                               w0, y0, cfg)


def semilinear_states(bundle, n_modes, t_final, dt, stride):
    """(c, y) per recorded sample of the sine-type loop of a 3.3-preset bundle."""
    traj = semilinear_run(bundle, n_modes, t_final, dt, stride)
    return np.hstack([traj.coeffs, traj.y])


def test_etdrk4_fourth_order(two_mode_bundle):
    # h = dt record_stride: steps of 0.016 and 0.008 against a run at 0.001,
    # compared on the coarse run's samples; the error falls ~17x per halving
    dt = 1e-4
    ref = semilinear_states(two_mode_bundle, 32, 0.64, dt, 10)
    errors = [np.max(np.abs(semilinear_states(two_mode_bundle, 32, 0.64, dt, stride)
                            - ref[::stride // 10]))
              for stride in (160, 80)]
    assert errors[1] > 1e-8
    assert errors[0] >= 8.0 * errors[1]


def etdrk4_error_against_dop853(bundle):
    """ETDRK4 at h = 2e-3 (the shipped step) against DOP853 at rtol 1e-12 on
    c' = -lambda c - T v + f, y' = -mu y + v."""
    eig, shapes, sl = bundle.eigsys, bundle.shapes, bundle.sl_design
    etd = semilinear_states(bundle, 32, 0.1, 1e-4, 20)
    F = NonlinearitySpec.make("sine_type", scale=0.29)
    loop = semilinear_loop(eig, shapes, sl, 32)
    Phi = eig.phis[:32]
    Phi_w = Phi * (eig.grid.weights * eig.r_samples)

    def rhs(t, z):
        c, y = z[:32], z[32:]
        f = Phi_w @ F.evaluate(c @ Phi + y @ shapes.varphis)
        v = loop.controls(c, y, f)
        return np.concatenate([-loop.lambdas * c - loop.T @ v + f, -loop.mus * y + v])

    ref = solve_ivp(rhs, (0.0, 0.1), etd[0], method="DOP853",
                    t_eval=np.arange(51) * 2e-3, rtol=1e-12, atol=1e-14)
    assert ref.success and etd.shape == ref.y.T.shape == (51, 34)
    return np.max(np.abs(etd - ref.y.T))


def test_etdrk4_matches_dop853(two_mode_bundle):
    # the cancellation controller: 3.2e-7
    assert etdrk4_error_against_dop853(two_mode_bundle) <= 1e-6


@pytest.fixture(scope="module")
def dominating_bundle():
    """The 3.3 preset under the domination controller (uncertified there)."""
    return pipeline.design(preset_config("3.3", controller="linear"))


def test_etdrk4_matches_dop853_under_domination(dominating_bundle):
    # G is None, so the fused map carries no control correction: 3.0e-7
    assert semilinear_loop(dominating_bundle.eigsys, dominating_bundle.shapes,
                           dominating_bundle.sl_design, 32).G is None
    assert etdrk4_error_against_dop853(dominating_bundle) <= 1e-6


def test_etdrk4_matches_dop853_on_a_collocated_plant(collocated_semilinear_bundle):
    # the Gauss nodes take the modes and shapes from their collocation nodes: 2.6e-7
    assert etdrk4_error_against_dop853(collocated_semilinear_bundle) <= 1e-6


def textbook_etdrk4(bundle, F, n_modes, h, records):
    """(states, controls) of Cox & Matthews' ETDRK4 step on z' = A z + g(z), written
    out with the unfolded g(z) = GW F(basis^T z), one step of h per record."""
    eig, shapes, design = bundle.eigsys, bundle.shapes, bundle.sl_design
    loop = semilinear_loop(eig, shapes, design, n_modes)
    basis, wr = gauss_quadrature(eig, shapes, n_modes, GAUSS_NODES_PER_MODE * n_modes)
    Gext = np.zeros((design.N, n_modes))
    Gext[:, :design.N] = loop.G
    GW = np.vstack([np.eye(n_modes) - loop.T @ Gext, Gext]) @ (basis[:n_modes] * wr)

    def g(z):
        return GW @ F.evaluate(z @ basis)

    A = loop.matrix()
    E, P1, P2, P3 = _phi_functions(h * A, 3)
    E2, P1_half = _phi_functions(0.5 * h * A, 1)
    Q = 0.5 * h * P1_half
    f1, f2, f3 = h * (P1 - 3.0 * P2 + 4.0 * P3), h * (P2 - 2.0 * P3), h * (4.0 * P3 - P2)
    c, y = _initial_state(eig, *pipeline.initial_state(bundle), n_modes)
    zs = [np.concatenate([c, y])]
    for _ in range(records):
        z = zs[-1]
        gz = g(z)
        a = E2 @ z + Q @ gz
        ga = g(a)
        b = E2 @ z + Q @ ga
        gb = g(b)
        gc = g(E2 @ a + Q @ (2.0 * gb - gz))
        zs.append(E @ z + f1 @ gz + 2.0 * f2 @ (ga + gb) + f3 @ gc)
    Z = np.array(zs)
    C, Y = Z[:, :n_modes], Z[:, n_modes:]
    return Z, loop.controls(C, Y) + np.array([g(z)[n_modes:] for z in Z])


@pytest.mark.parametrize("kind", ["sine_type", "saturation", "linear_gain"])
def test_folded_etdrk4_matches_the_textbook_step(two_mode_bundle, kind):
    # the simulator folds GW into its stage operators and starts the third stage
    # from E z, not E2 E2 z: equal in exact arithmetic, so only rounding may differ
    F = NonlinearitySpec.make(kind, scale=0.29)
    w0, y0 = pipeline.initial_state(two_mode_bundle)
    cfg = SimConfig(n_modes=16, dt=1e-3, t_final=1.0, record_stride=10)
    traj = simulate_semilinear(two_mode_bundle.eigsys, two_mode_bundle.shapes,
                               two_mode_bundle.sl_design, F, w0, y0, cfg)
    Z, v = textbook_etdrk4(two_mode_bundle, F, 16, 1e-2, 100)
    assert traj.samples == 101
    assert np.max(np.abs(np.hstack([traj.coeffs, traj.y]) - Z)) <= 1e-12 * np.max(np.abs(Z))
    assert np.max(np.abs(traj.v - v)) <= 1e-12 * np.max(np.abs(v))


def test_recorded_controls_are_the_loop_controls(two_mode_bundle):
    # the recorded v comes from the fused quadrature's y-rows; it must equal
    # loop.controls(c, y, f) with f by direct quadrature at every sample
    bundle = two_mode_bundle
    eig, shapes, sl = bundle.eigsys, bundle.shapes, bundle.sl_design
    traj = semilinear_run(bundle, 32, 0.2, 1e-4, 20)
    F = NonlinearitySpec.make("sine_type", scale=0.29)
    loop = semilinear_loop(eig, shapes, sl, 32)
    Phi = eig.phis[:32]
    Phi_w = Phi * (eig.grid.weights * eig.r_samples)
    assert loop.G is not None and traj.samples == 101
    for k in range(traj.samples):
        c, y = traj.coeffs[k], traj.y[k]
        v = loop.controls(c, y, Phi_w @ F.evaluate(c @ Phi + y @ shapes.varphis))
        assert np.max(np.abs(traj.v[k] - v)) <= 1e-12 * np.max(np.abs(v))


def test_gauss_quadrature_of_f_on_recorded_states(two_mode_bundle):
    # f on the recorded states of a run at the shipped n_modes = 48: the
    # simulator's 192-node rule is within 1.7e-12 relative of a 2048-node one,
    # and Simpson on the grid within 3.0e-8, its own O(h^4) error (u(1) =
    # sum y_i is not 0, so the integrands' end derivatives grow with the mode)
    bundle = two_mode_bundle
    eig, shapes = bundle.eigsys, bundle.shapes
    traj = semilinear_run(bundle, 48, 0.2, 1e-4, 20)
    F = NonlinearitySpec.make("sine_type", scale=0.29)
    rules = [gauss_quadrature(eig, shapes, 48, Q) for Q in (GAUSS_NODES_PER_MODE * 48, 2048)]
    Phi = eig.phis[:48]
    Phi_w = Phi * (eig.grid.weights * eig.r_samples)
    for c, y in zip(traj.coeffs, traj.y):
        z = np.concatenate([c, y])
        f_gauss, f_fine = ((basis[:48] * wr) @ F.evaluate(z @ basis) for basis, wr in rules)
        f_simpson = Phi_w @ F.evaluate(c @ Phi + y @ shapes.varphis)
        size = np.max(np.abs(f_fine))
        assert np.max(np.abs(f_gauss - f_fine)) <= 1e-11 * size
        assert np.max(np.abs(f_simpson - f_fine)) <= 1e-7 * size


def test_semilinear_instability_guard_names_first_sample(two_mode_bundle):
    # f(s) = 60 s, far beyond the certified growth bound 0.2996, leaves modes
    # past the two retained ones unstable: the guard stops ETDRK4 at the first
    # recorded sample past the cap, t = 0.22 (the sample before is inside it)
    bundle = pipeline.design(preset_config("3.3", lbar=60.0, kind="linear_gain"))
    F = bundle.config.semilinear.nonlinearity()
    w0, y0 = pipeline.initial_state(bundle)

    def run(t_final):
        cfg = SimConfig(n_modes=24, dt=1e-3, t_final=t_final, record_stride=10)
        return simulate_semilinear(bundle.eigsys, bundle.shapes, bundle.sl_design, F,
                                   w0, y0, cfg)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Instability, match=r"at t=0\.22 exceeds"):
            run(5.0)
        inside = run(0.21)
    size = inside.norm_w + inside.norm_y
    assert size[-1] <= INSTABILITY_FACTOR * size[0]


# -- the Gauss quadrature of F ---------------------------------------------------------

GAUSS_PLANTS = {
    "closed_form": dirichlet_problem(1.0, -2.0 * PI ** 2),
    "design_sweep": SLProblem(Coefficient.polynomial([1.0, 0.3, -0.2]),
                              Coefficient.polynomial([-20.0, 5.0]),
                              Coefficient.polynomial([1.0, 0.2]), 1.0, 0.0, 1.0, 0.0),
    "robin": SLProblem(Coefficient.constant(1.0), Coefficient.constant(-12.0),
                       Coefficient.constant(1.0), 0.6, 0.8, 1.0, 0.0),
    "kinked_table": SLProblem(Coefficient.constant(1.0),
                              Coefficient.table([0.0, 0.5, 1.0], [-1.0, -2.0, -1.0], order=1),
                              Coefficient.constant(1.0), 1.0, 0.0, 1.0, 0.0),
}


@pytest.fixture(scope="module", params=sorted(GAUSS_PLANTS))
def plant_modes_and_shapes(request, grid):
    prob = GAUSS_PLANTS[request.param]
    eig = eigensolve(prob, grid, 24)
    return eig, build_shape_set(eig, [7.5, 60.0])


def test_node_evaluation_reproduces_the_grid_samples(plant_modes_and_shapes, grid):
    eig, shapes = plant_modes_and_shapes
    assert np.max(np.abs(eig.at(grid.x) - eig.phis)) <= 1e-13
    scale = np.max(np.abs(shapes.varphis))
    assert np.max(np.abs(shapes.at(grid.x) - shapes.varphis)) <= 1e-13 * scale


def test_gauss_rule_splits_at_the_knots():
    x, w = gauss_rule(GAUSS_PLANTS["kinked_table"], 96)
    assert x.size == 96 and np.count_nonzero(x < 0.5) == 48
    assert abs(np.sum(w[x < 0.5]) - 0.5) <= 1e-15 and abs(np.sum(w) - 1.0) <= 1e-15


def test_gauss_gram_check(plant_modes_and_shapes):
    # the simulator's rule passes; one with too few nodes for 24 modes raises
    eig, shapes = plant_modes_and_shapes
    basis, wr = gauss_quadrature(eig, shapes, 24, GAUSS_NODES_PER_MODE * 24)
    assert basis.shape == (26, 96) and wr.shape == (96,)
    with pytest.raises(GridTooCoarse, match="32-node Gauss Gram"):
        gauss_quadrature(eig, shapes, 24, 32)


@pytest.mark.parametrize("name", ["two_mode_bundle", "collocated_semilinear_bundle"])
def test_loaded_bundle_simulates_bitwise(tmp_path, request, name):
    # eigen.csv holds the solver's own modes: the loaded eigensystem, and so
    # the semilinear loop on the Gauss nodes, equal the designed ones bit for bit
    bundle = request.getfixturevalue(name)
    save_artifact(bundle, tmp_path)
    loaded = load_artifact(tmp_path)
    assert np.array_equal(loaded.eigsys.phis, bundle.eigsys.phis)
    if bundle.eigsys.problem.closed_form:
        assert bundle.eigsys.node_values is None and loaded.eigsys.node_values is None
    else:
        assert np.array_equal(loaded.eigsys.node_values, bundle.eigsys.node_values)
    fresh, again = (semilinear_run(b, 32, 0.1, 1e-4, 20) for b in (bundle, loaded))
    for field in ("coeffs", "y", "v", "V"):
        assert np.array_equal(getattr(fresh, field), getattr(again, field))


# -- the simulator and the certifier share one loop ----------------------------------

def assert_rate_matches_centred_difference(traj, h, rate_at, tol):
    """loop.rate at interior samples against (V[k+1] - V[k-1]) / 2h."""
    fd = (traj.V[2:] - traj.V[:-2]) / (2.0 * h)
    rates = np.array([rate_at(k) for k in range(1, traj.samples - 1)])
    assert np.max(np.abs(rates - fd)) <= tol * np.max(np.abs(rates))


def assert_boundary_columns(traj, loop):
    """vbar is the raw boundary rate y' = v - mu y and U = sum_i y_i, bit for bit."""
    assert np.array_equal(traj.vbar, traj.v - traj.y * loop.mus)
    assert np.array_equal(traj.U, traj.y.sum(axis=1))


def test_linear_trajectory_V_is_the_certified_functional(single_mode_bundle):
    bundle = single_mode_bundle
    eig = bundle.eigsys
    w0, y0 = pipeline.initial_state(bundle)
    cfg = SimConfig(n_modes=32, dt=1e-4, t_final=0.2, record_stride=1)
    traj = simulate_linear(eig, bundle.shapes, bundle.gains, bundle.params, bundle.law,
                           w0, y0, cfg)
    loop = linear_loop(eig, bundle.shapes, bundle.gains, bundle.params, bundle.law, 32)
    for k in range(0, traj.samples, 50):
        c, norm_sq = modal_state(traj.coeffs[k] @ eig.phis[:32], eig, 32)
        V = loop.value(c, traj.y[k], norm_sq)
        assert abs(V - traj.V[k]) <= 1e-12 * abs(traj.V[k])
    assert_boundary_columns(traj, loop)
    # the exact propagator leaves only the O(h^2) error of the difference (5e-6)
    assert_rate_matches_centred_difference(
        traj, cfg.dt, lambda k: loop.rate(traj.coeffs[k], traj.y[k], traj.v[k]), 1e-4)


def test_semilinear_trajectory_V_is_the_certified_functional(two_mode_bundle):
    bundle = two_mode_bundle
    eig, shapes, sl = bundle.eigsys, bundle.shapes, bundle.sl_design
    F = NonlinearitySpec.make("sine_type", scale=0.29)
    w0, y0 = pipeline.initial_state(bundle)
    cfg = SimConfig(n_modes=32, dt=1e-4, t_final=0.05, record_stride=1)
    traj = simulate_semilinear(eig, shapes, sl, F, w0, y0, cfg)
    loop = semilinear_loop(eig, shapes, sl, 32)
    Phi = eig.phis[:32]
    for k in range(0, traj.samples, 50):
        c, norm_sq = modal_state(traj.coeffs[k] @ Phi, eig, 32)
        V = loop.value(c, traj.y[k], norm_sq)
        assert abs(V - traj.V[k]) <= 1e-12 * abs(traj.V[k])
    assert_boundary_columns(traj, loop)

    Phi_w = Phi * (eig.grid.weights * eig.r_samples)

    def rate_at(k):
        c, y = traj.coeffs[k], traj.y[k]
        f = Phi_w @ F.evaluate(c @ Phi + y @ shapes.varphis)
        return loop.rate(c, y, traj.v[k], f)

    # an ETDRK4 step of h = dt leaves only the O(h^2) error of the difference (1e-6)
    assert_rate_matches_centred_difference(traj, cfg.dt, rate_at, 1e-4)


# -- trajectory CSV ----------------------------------------------------------------

def test_trajectory_csv_header_and_roundtrip(tmp_path, single_mode_bundle):
    bundle = single_mode_bundle
    cfg = SimConfig(n_modes=16, dt=1e-3, t_final=0.5, record_stride=5)
    traj = simulate_linear(bundle.eigsys, bundle.shapes, bundle.gains,
                           bundle.params, bundle.law,
                           bundle.eigsys.phis[0], [0.2], cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    header, rows = read_csv(path)
    assert header == ["t", "norm_w", "norm_y", "V", "U", "v_1", "vbar_1", "c_1"]
    assert header == trajectory_header(1, 1)
    assert rows.shape == (traj.samples, 8)
    assert np.allclose(rows[:, 0], traj.times)
    assert np.all(np.diff(rows[:, 0]) > 0)
