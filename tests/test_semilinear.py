from dataclasses import replace

import numpy as np
import pytest

from clfpde.errors import DegenerateDenominator, NoAdmissibleZeta, SingularB
from clfpde.lyapunov import (
    CLFParams,
    build_feedback_law,
    linear_loop,
    modal_state,
)
from clfpde.reduced import GainDesign, ReducedModel
from clfpde import semilinear
from clfpde.semilinear import (
    NonlinearitySpec,
    build_semilinear_design,
    gain_inverse,
    kappa_grid,
    linear_admissibility_margins,
    max_growth_bound,
    nonlinear_admissibility_margins,
    select_linear_clf_params,
    select_nonlinear_clf_params,
    semilinear_loop,
)
from clfpde.spectral import project

from conftest import random_modal_state, semilinear_value_rate_bound

PI = np.pi
S2 = np.sqrt(2.0)


# -- nonlinearity specs --------------------------------------------------------

def test_nonlinearity_kinds_validate():
    for kind, scale in (("zero", 0.0), ("linear_gain", 0.4),
                        ("sine_type", 0.29), ("saturation", 1.7)):
        spec = NonlinearitySpec.make(kind, scale=scale)
        assert spec.validate()
        s = np.linspace(-10, 10, 501)
        assert np.all(np.abs(spec.evaluate(s)) <= spec.lbar * np.abs(s) + 1e-12)


@pytest.mark.parametrize("kind", ["zero", "linear_gain", "sine_type", "saturation"])
def test_evaluate_into_a_buffer_is_bitwise_the_new_array(kind):
    # the simulator evaluates F into preallocated buffers, sometimes in place
    spec = NonlinearitySpec.make(kind, scale=0.29)
    s = np.linspace(-3.0, 3.0, 193)
    fresh = spec.evaluate(s)
    buf = np.full_like(s, np.nan)
    assert spec.evaluate(s, out=buf) is buf
    assert buf.tobytes() == fresh.tobytes()
    t = s.copy()
    assert spec.evaluate(t, out=t) is t
    assert t.tobytes() == fresh.tobytes()


def test_nonlinearity_must_vanish_at_zero():
    class Offset(NonlinearitySpec):
        def evaluate(self, s):
            return super().evaluate(s) + 0.5

    with pytest.raises(ValueError, match="vanish at 0"):
        Offset("linear_gain", lbar=2.0, scale=1.0).validate()


# -- gain inverse ----------------------------------------------------------------

def test_gain_inverse_identity(two_mode_bundle):
    g = gain_inverse(two_mode_bundle.model)
    err = np.max(np.abs(g @ two_mode_bundle.model.B + np.eye(2)))
    assert err <= 1e-10


def test_gain_inverse_guards():
    bad = ReducedModel(np.array([1.0, 4.0]), np.array([[0.2], [0.3]]),
                       np.array([1.0]), 9.0)
    with pytest.raises(SingularB):
        gain_inverse(bad)


# -- controllers -----------------------------------------------------------------

def loop_of(bundle, controller_kind=None):
    """The design's loop over all computed modes, optionally under the other controller."""
    sl = bundle.sl_design
    if controller_kind is not None:
        sl = replace(sl, controller_kind=controller_kind)
    return semilinear_loop(bundle.eigsys, bundle.shapes, sl, bundle.eigsys.K)


def value_and_rate_at(w, y, bundle, loop, F):
    """(V, dV/dt, bound) of the bundle's semilinear design at the grid state (w, y)."""
    eig = bundle.eigsys
    c, norm_sq = modal_state(w, eig, eig.K)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return semilinear_value_rate_bound(loop, F, bundle.shapes, eig, w, c, norm_sq, y)


def modal(values, n):
    """Zero-padded modal vector whose leading entries are values."""
    out = np.zeros(n)
    out[:len(values)] = values
    return out


def test_controls_coefficients_match_quoted_forms(two_mode_bundle):
    # in the plain-sine convention the cancellation controller reads
    # v1 = (63 pi/256)(30((sigma+4pi^2) c1 + f1) + 11((sigma+pi^2) c2 + f2))
    # v2 = -(495 pi/256)(14((sigma+4pi^2) c1 + f1) + 3((sigma+pi^2) c2 + f2))
    sl = two_mode_bundle.sl_design
    K = two_mode_bundle.eigsys.K
    rng = np.random.default_rng(4)
    c_sine = rng.standard_normal(2)
    f_sine = rng.standard_normal(2)
    v = loop_of(two_mode_bundle).controls(modal(S2 * c_sine, K), np.zeros(2),
                                          modal(S2 * f_sine, K))
    sig = sl.sigma
    t1 = (sig + 4.0 * PI ** 2) * c_sine[0] + f_sine[0]
    t2 = (sig + PI ** 2) * c_sine[1] + f_sine[1]
    expected = np.array([(63.0 * PI / 256.0) * (30.0 * t1 + 11.0 * t2),
                         (-495.0 * PI / 256.0) * (14.0 * t1 + 3.0 * t2)])
    assert np.max(np.abs(v - expected) / np.abs(expected)) < 1e-9


def test_zero_nonlinearity_reduces_to_linear_controller(two_mode_bundle):
    c = modal([0.7, -0.3], two_mode_bundle.eigsys.K)
    y = np.zeros(2)
    assert np.allclose(loop_of(two_mode_bundle).controls(c, y, np.zeros(c.size)),
                       loop_of(two_mode_bundle, "linear").controls(c, y))


def test_feedback_linearization_identity(two_mode_bundle):
    # under the cancellation controller the first-N modal derivatives equal
    # -sigma c_n for arbitrary states and admissible F
    bundle = two_mode_bundle
    sl = bundle.sl_design
    eig = bundle.eigsys
    F = NonlinearitySpec.make("sine_type", scale=0.29)
    loop = loop_of(bundle)
    coupling = loop.T
    rng = np.random.default_rng(9)
    for _ in range(20):
        w, y = random_modal_state(eig, 2, rng)
        c = project(w, eig, eig.K)
        u = w + y @ bundle.shapes.varphis
        f_all = eig.phis @ (eig.grid.weights * eig.r_samples * F.evaluate(u))
        v = loop.controls(c, y, f_all)
        wdot = -eig.lambdas[:2] * c[:2] - coupling[:2] @ v + f_all[:2]
        assert np.max(np.abs(wdot + sl.sigma * c[:2])) <= 1e-7


def test_domination_identity(two_mode_bundle):
    # under the domination controller the modal derivative keeps the
    # projected nonlinearity: -sigma c_n + f_n
    bundle = two_mode_bundle
    sl = bundle.sl_design
    eig = bundle.eigsys
    F = NonlinearitySpec.make("sine_type", scale=0.29)
    loop = loop_of(bundle, "linear")
    coupling = loop.T
    rng = np.random.default_rng(10)
    w, y = random_modal_state(eig, 2, rng)
    c = project(w, eig, eig.K)
    u = w + y @ bundle.shapes.varphis
    f_all = eig.phis @ (eig.grid.weights * eig.r_samples * F.evaluate(u))
    v = loop.controls(c, y)
    wdot = -eig.lambdas[:2] * c[:2] - coupling[:2] @ v + f_all[:2]
    assert np.max(np.abs(wdot - (-sl.sigma * c[:2] + f_all[:2]))) <= 1e-7


# -- growth bound -----------------------------------------------------------------

def test_growth_bound_regression(two_mode_bundle):
    sl = two_mode_bundle.sl_design
    lb = max_growth_bound(sl.mus, sl.norms_sq, sl.g, sl.lambda_next)
    assert abs(lb - 0.299) / 0.299 <= 0.003


def test_growth_bound_bracket_oracle(two_mode_bundle):
    # for lbar slightly below the bound some kappa on a dense grid passes
    # both admissibility conditions; slightly above, none does
    sl = two_mode_bundle.sl_design
    lb = max_growth_bound(sl.mus, sl.norms_sq, sl.g, sl.lambda_next)
    dense = np.logspace(-4, 4, 16384)

    def feasible(lbar):
        y_m, t_m = nonlinear_admissibility_margins(
            sl.mus, sl.norms_sq, sl.g, sl.lambda_next, lbar, dense)
        return bool(np.any(np.all(y_m > 0, axis=1) & (t_m > 0)))

    assert feasible(0.999 * lb)
    assert not feasible(1.001 * lb)


def test_growth_bound_grid_supremum_consistency(two_mode_bundle):
    sl = two_mode_bundle.sl_design
    lb = max_growth_bound(sl.mus, sl.norms_sq, sl.g, sl.lambda_next)
    dense = np.logspace(-4, 4, 16384)
    lo, hi = 0.5 * lb, 1.5 * lb
    for _ in range(40):           # bisect the grid-feasible supremum
        mid = 0.5 * (lo + hi)
        y_m, t_m = nonlinear_admissibility_margins(
            sl.mus, sl.norms_sq, sl.g, sl.lambda_next, mid, dense)
        ok = np.any(np.all(y_m > 0, axis=1) & (t_m > 0))
        lo, hi = (mid, hi) if ok else (lo, mid)
    assert abs(lo - lb) / lb <= 0.01


def test_growth_bound_small_gain_limit(two_mode_bundle):
    sl = two_mode_bundle.sl_design
    base = max_growth_bound(sl.mus, sl.norms_sq, sl.g, sl.lambda_next)
    shrunk = [max_growth_bound(sl.mus, sl.norms_sq, s * sl.g, sl.lambda_next)
              for s in (1.0, 0.3, 0.1, 1e-8)]
    assert np.all(np.diff(shrunk) > 0)         # smaller gains allow more growth
    b = sl.lambda_next ** 2
    limit = max_growth_bound(sl.mus, sl.norms_sq, 0.0 * sl.g, sl.lambda_next)
    assert abs(limit - np.sqrt(b)) / np.sqrt(b) < 1e-12
    assert base == shrunk[0]


def test_growth_bound_degenerate_inputs(two_mode_bundle):
    sl = two_mode_bundle.sl_design
    with pytest.raises(DegenerateDenominator):
        max_growth_bound(sl.mus, np.zeros(2), sl.g, sl.lambda_next)
    with pytest.raises(DegenerateDenominator):
        max_growth_bound(sl.mus, sl.norms_sq, sl.g, -1.0)


# -- admissibility -----------------------------------------------------------------

def nonlinear_passes(sl, lbar, kappa):
    y_m, t_m = nonlinear_admissibility_margins(
        sl.mus, sl.norms_sq, sl.g, sl.lambda_next, lbar, kappa)
    return np.all(y_m > 0, axis=-1) & (t_m > 0)


def linear_passes(sl, sigma, lbar, kappa):
    head, tail, y_m = linear_admissibility_margins(
        sl.lambdas, sl.mus, sl.norms_sq, sl.g, sl.lambda_next, sigma, lbar, kappa)
    return (head > 0) & (tail > 0) & np.all(y_m > 0, axis=-1)


def test_nonlinear_admissibility_cases(two_mode_bundle):
    sl = two_mode_bundle.sl_design
    assert nonlinear_passes(sl, 0.0, 1.0)
    assert np.any(nonlinear_passes(sl, 0.29, kappa_grid()))
    assert not np.any(nonlinear_passes(sl, 0.31, kappa_grid()))


def test_linear_admissibility_cases(two_mode_bundle):
    sl = two_mode_bundle.sl_design
    assert linear_passes(sl, 1.0, 0.0, 1.0)
    # violating the head inequality sigma^2 > lbar^2 (1 + kappa N) fails
    head, tail, y_m = linear_admissibility_margins(
        sl.lambdas, sl.mus, sl.norms_sq, sl.g, sl.lambda_next, 1.0, 1.0, 1.0)
    assert head <= 0.0 and tail == -np.inf and np.all(y_m == -np.inf)
    assert not linear_passes(sl, 1.0, 1.0, 1.0)


def test_admissibility_margins_broadcast_over_kappa(two_mode_bundle):
    # one call on a kappa array equals the scalar calls bit for bit, including
    # the head <= 0 points of the linear check (sigma = 1, lbar = 0.29)
    sl = two_mode_bundle.sl_design
    kappas = np.logspace(-4, 4, 64)
    y_m, t_m = nonlinear_admissibility_margins(
        sl.mus, sl.norms_sq, sl.g, sl.lambda_next, 0.29, kappas)
    lin = [linear_admissibility_margins(sl.lambdas, sl.mus, sl.norms_sq, sl.g,
                                        sl.lambda_next, sigma, 0.29, kappas)
           for sigma in (1.0, 50.0)]
    assert np.any(lin[0][0] <= 0.0) and np.any(lin[0][0] > 0.0)
    for i, k in enumerate(kappas):
        y1, t1 = nonlinear_admissibility_margins(
            sl.mus, sl.norms_sq, sl.g, sl.lambda_next, 0.29, float(k))
        assert np.array_equal(y1, y_m[i]) and t1 == t_m[i]
        for sigma, (head, tail, ly_m) in zip((1.0, 50.0), lin):
            h1, t1, ly1 = linear_admissibility_margins(
                sl.lambdas, sl.mus, sl.norms_sq, sl.g, sl.lambda_next, sigma, 0.29, float(k))
            assert h1 == head[i] and t1 == tail[i] and np.array_equal(ly1, ly_m[i])


@pytest.mark.parametrize("kind, lbar, sigma", [("nonlinear", 0.29, 1.0),
                                               ("linear", 0.02, 50.0)])
def test_kappa_search_is_one_margin_evaluation(two_mode_bundle, monkeypatch, kind, lbar, sigma):
    # the nonlinear design makes one call, over the kappa grid; the linear one
    # makes a second, over the a search grid at the selected kappa
    name = f"{kind}_admissibility_margins"
    margin_fn = getattr(semilinear, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return margin_fn(*args, **kwargs)

    monkeypatch.setattr(semilinear, name, counted)
    design = build_semilinear_design(two_mode_bundle.model, two_mode_bundle.shapes,
                                     lbar=lbar, sigma=sigma, controller_kind=kind)
    assert design.certified
    assert np.array_equal(calls[0][0][-1], kappa_grid())
    if kind == "nonlinear":
        assert len(calls) == 1
    else:
        assert len(calls) == 2
        assert calls[1][0][-1] == design.kappa
        assert np.array_equal(calls[1][1]["a"], semilinear._search_grid())


def test_containment_of_admissible_sets(two_mode_bundle):
    # all retained modes are unstable here, so every (lbar, kappa) certifying
    # the domination controller also certifies the cancellation controller;
    # the converse fails somewhere
    sl = two_mode_bundle.sl_design
    assert np.all(sl.lambdas < 0.0)
    sigma = 50.0
    lbars = np.linspace(0.025, 0.35, 14)
    kappas = np.logspace(-4.0, 4.0, 256)
    linear_pass = 0
    converse_gap = False
    for lbar in lbars:
        nl_ok = nonlinear_passes(sl, lbar, kappas)
        lin_ok = linear_passes(sl, sigma, lbar, kappas)
        linear_pass += int(np.sum(lin_ok))
        assert np.all(nl_ok[lin_ok])        # containment
        if np.any(nl_ok) and not np.any(lin_ok):
            # the domination controller fails everywhere at this lbar
            converse_gap = True
    assert linear_pass > 0              # the scan is not vacuous
    assert converse_gap


# -- constructive parameter selection ------------------------------------------

def test_zeta_selection_zero_growth(two_mode_bundle):
    sl = two_mode_bundle.sl_design
    clf = select_nonlinear_clf_params(replace(sl, lbar=0.0, kappa=1.0))
    assert abs(clf.zeta - 1.0 / 65.0) < 1e-15     # smallest uniform grid point
    assert clf.theta > 0.0
    assert clf.epsilon == 1.0 / (2.0 * sl.N * clf.zeta)


def test_zeta_selection_certified_growth(two_mode_bundle):
    sl = two_mode_bundle.sl_design
    clf = sl.clf
    assert sl.controller_kind == "nonlinear"
    assert clf.theta > 0.0
    assert clf.zeta < 0.99
    # R and beta follow the constructive formulas
    N = sl.N
    R_expect = N * (1.0 + sl.lbar ** 2) * (1.0 + sl.kappa * N) / sl.sigma
    assert abs(clf.R - R_expect) < 1e-12 * R_expect
    beta_expect = (1.0 - clf.zeta) * sl.sigma * clf.R / N
    assert abs(clf.beta - beta_expect) < 1e-12 * beta_expect


def test_zeta_infeasible_raises(two_mode_bundle):
    sl = two_mode_bundle.sl_design
    with pytest.raises(NoAdmissibleZeta):
        select_nonlinear_clf_params(replace(sl, lbar=0.31))


def test_a_selection_linear_controller(two_mode_bundle):
    sl = two_mode_bundle.sl_design
    clf = select_linear_clf_params(replace(sl, lbar=0.0, kappa=1.0))
    assert clf.R == sl.sigma                     # R := sigma exactly
    assert abs(clf.a - 1.0 / 65.0) < 1e-15
    beta_expect = (sl.sigma ** 2 - clf.a - 0.0) / (2.0 * sl.N)
    assert clf.beta == pytest.approx(beta_expect, rel=1e-12)
    assert clf.beta > 0.0 and clf.theta > 0.0
    assert clf.epsilon == 0.0
    assert "epsilon" in clf.epsilon_convention_note


def test_linear_design_certifies_small_growth(two_mode_bundle):
    design = build_semilinear_design(
        two_mode_bundle.model, two_mode_bundle.shapes, lbar=0.02,
        sigma=50.0, controller_kind="linear")
    assert design.certified
    assert design.clf.R == 50.0
    assert design.clf.theta > 0.0


def test_uncertified_design_flagged(two_mode_bundle):
    design = build_semilinear_design(
        two_mode_bundle.model, two_mode_bundle.shapes, lbar=0.31,
        sigma=1.0, controller_kind="nonlinear")
    assert not design.certified
    assert design.clf is None
    loop = semilinear_loop(two_mode_bundle.eigsys, two_mode_bundle.shapes, design, 8)
    assert loop.decay is None
    with pytest.raises(ValueError, match="no certified decay bound"):
        loop.bound(1.0, np.zeros(2))


# -- functional evaluation -------------------------------------------------------

def test_semilinear_value_and_rate_zero_state(two_mode_bundle):
    bundle = two_mode_bundle
    z = np.zeros(bundle.grid.n_points)
    V, vdot, bound = value_and_rate_at(z, [0.0, 0.0], bundle, loop_of(bundle),
                                       NonlinearitySpec.make("zero"))
    assert V == 0.0 and vdot == 0.0 and bound == 0.0


def test_semilinear_dissipation_random_states(two_mode_bundle):
    bundle = two_mode_bundle
    F = NonlinearitySpec.make("sine_type", scale=0.29)
    loop = loop_of(bundle)
    rng = np.random.default_rng(31)
    for _ in range(40):
        w, y = random_modal_state(bundle.eigsys, 2, rng)
        V, vdot, bound = value_and_rate_at(w, y, bundle, loop, F)
        assert V >= 0.0
        assert vdot <= bound + 1e-6 * (1.0 + abs(bound))


def test_zero_nonlinearity_cross_checks_linear_path(two_mode_bundle):
    # with F = 0 the cancellation loop is the closed-form linear loop; the
    # semilinear functional with scalar weight R equals the linear one with
    # R I, so both rate evaluations must agree
    bundle = two_mode_bundle
    sl = bundle.sl_design
    clf = sl.clf
    N = sl.N
    gains = GainDesign(K=sl.g * (sl.sigma - sl.lambdas)[None, :],
                       R=clf.R * np.eye(N), sigma=sl.sigma,
                       c1=clf.R, c2=clf.R, mode="closed_form")
    params = CLFParams(omegas=clf.omegas, gamma=clf.gamma, sigma=sl.sigma,
                       M=N + 1, Ls=np.zeros(N))
    eig = bundle.eigsys
    law = build_feedback_law(gains, params, bundle.shapes, eig)
    lin_loop = linear_loop(eig, bundle.shapes, gains, params, law, eig.K)
    sl_loop = loop_of(bundle)
    F = NonlinearitySpec.make("zero")
    rng = np.random.default_rng(17)
    for _ in range(10):
        w, y = random_modal_state(eig, 2, rng)
        V_sl, vdot_sl, _ = value_and_rate_at(w, y, bundle, sl_loop, F)
        c, norm_sq = modal_state(w, eig, eig.K)
        V_lin = lin_loop.value(c, y, norm_sq)
        vdot_lin = lin_loop.rate(c, y, eig.inner(law.kernels, w) - law.y_gains * y)
        assert abs(V_sl - V_lin) <= 1e-12 * max(1.0, abs(V_lin))
        assert abs(vdot_sl - vdot_lin) <= 1e-9 * max(1.0, abs(vdot_lin))
