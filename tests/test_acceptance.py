"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line (run pytest -s to see them inline).
"""

import time

import numpy as np

from clfpde import pipeline
from clfpde.cli import main as cli_main
from clfpde.config import config_to_text
from clfpde.lyapunov import coercivity_constants, linear_loop
from clfpde.presets import preset_config, two_mode_reference
from clfpde.reduced import closed_form_B
from clfpde.semilinear import (
    NonlinearitySpec,
    linear_admissibility_margins,
    max_growth_bound,
    nonlinear_admissibility_margins,
)
from clfpde.sim import SimConfig, fit_decay_rate, simulate_linear, simulate_semilinear
from clfpde.spectral import eigensolve, make_grid

from conftest import bound, modal_form, random_states, rate

PI = np.pi


def report(num, passed, detail):
    print(f"\nACCEPTANCE {num} [{'PASS' if passed else 'FAIL'}] {detail}")
    assert passed, f"criterion {num}: {detail}"


def elapsed_ok(t0, budget):
    return time.perf_counter() - t0, time.perf_counter() - t0 < budget


def test_criterion_1_eigen_regression():
    t0 = time.perf_counter()
    cfg = preset_config("3.3")
    eig = eigensolve(cfg.problem, make_grid(cfg.n_points), cfg.modes)
    n = np.arange(1, 9)
    exact = (n ** 2 - 5.0) * PI ** 2
    rel = float(np.max(np.abs(eig.lambdas[:8] - exact) / np.abs(exact)))
    dt, in_budget = elapsed_ok(t0, 5.0)
    report(1, rel <= 1e-6 and in_budget,
           f"eigenvalue regression: max rel err {rel:.3e} (tol 1e-6), {dt:.2f}s (< 5s)")


def test_criterion_2_input_matrix_regression():
    t0 = time.perf_counter()
    bundle = pipeline.design(preset_config("3.3"))
    ref = two_mode_reference()["B"]
    rel = float(np.max(np.abs(bundle.model.B - ref) / np.abs(ref)))
    B_cf = closed_form_B(bundle.config.problem, bundle.eigsys,
                         bundle.shapes.mus, bundle.model.N)
    route = float(np.max(np.abs(bundle.model.B - B_cf) / np.abs(B_cf)))
    dt, in_budget = elapsed_ok(t0, 5.0)
    report(2, rel <= 1e-6 and route <= 1e-7 and in_budget,
           f"input matrix: rel err {rel:.3e} (tol 1e-6), "
           f"route agreement {route:.3e} (tol 1e-7), {dt:.2f}s (< 5s)")


def test_criterion_3_gain_regression():
    bundle = pipeline.design(preset_config("3.3"))
    ref = two_mode_reference()["g"]
    g = bundle.sl_design.g
    rel = float(np.max(np.abs(g - ref) / np.abs(ref)))
    report(3, rel <= 1e-6, f"gain inverse: max rel err {rel:.3e} (tol 1e-6)")


def test_criterion_4_growth_bound_regression():
    bundle = pipeline.design(preset_config("3.3"))
    sl = bundle.sl_design
    lb = max_growth_bound(sl.mus, sl.norms_sq, sl.g, sl.lambda_next)
    rel = abs(lb - 0.299) / 0.299
    report(4, rel <= 0.003,
           f"growth bound: computed {lb:.6f} vs 0.299, rel diff {rel:.4f} (tol 0.003)")


def test_criterion_5_clf_certificate_suite():
    t0 = time.perf_counter()
    bundle = pipeline.design(preset_config("2.4", L=1.0))
    eig = bundle.eigsys
    params, gains, law, shapes = (bundle.params, bundle.gains, bundle.law,
                                  bundle.shapes)
    lo, hi = coercivity_constants(params, gains)
    loop = linear_loop(eig, shapes, gains, params, law, eig.K)
    W, Y = random_states(eig, 1, 200, seed=0)
    coerc_ok = diss_ok = True
    dual_worst = 0.0
    for w, y in zip(W, Y):
        c, norm_sq = modal_form(eig, w)
        V = loop.value(c, y, norm_sq)
        size = eig.norm_sq(w) + float(y @ y)
        tol = 1e-6 * max(1.0, abs(V))
        coerc_ok &= (0.5 * lo * size - tol <= V <= 0.5 * hi * size + tol)
        v_quad = eig.inner(law.kernels, w).T - law.y_gains * y
        vdot, b = rate(loop, c, y, v_quad), bound(loop, norm_sq, y)
        diss_ok &= (vdot <= b + 1e-6 * (1.0 + abs(b)))
        v_modal = loop.controls(c, y)
        dual_worst = max(dual_worst, float(np.max(np.abs(v_quad - v_modal))))
    dt, in_budget = elapsed_ok(t0, 30.0)
    report(5, coerc_ok and diss_ok and dual_worst <= 1e-8 and in_budget,
           f"200 random states: coercivity {coerc_ok}, dissipation {diss_ok}, "
           f"kernel dual-path max dev {dual_worst:.3e} (tol 1e-8), {dt:.1f}s (< 30s)")


def test_criterion_6_closed_loop_decay():
    t0 = time.perf_counter()
    bundle = pipeline.design(preset_config("2.4"))
    pipeline.certify(bundle)
    assert bundle.certified
    c0 = bundle.config.w0_modes    # phi_1 + 0.5 phi_2, y = 0.3
    traj = pipeline.simulate(bundle)
    fit = fit_decay_rate(traj)
    v_monotone = bool(np.all(np.diff(traj.V)
                             <= 1e-6 * np.maximum(traj.V[:-1], 1e-300)))
    open_cfg = SimConfig(n_modes=64, dt=1e-4, t_final=1.0, record_stride=10)
    open_traj = simulate_linear(bundle.eigsys, bundle.shapes, None, None, None,
                                c0, [0.0], open_cfg)
    growth = -fit_decay_rate(open_traj).rate
    expected = abs(PI ** 2 - 2.0 * PI ** 2)
    growth_ok = abs(growth - expected) / expected < 0.05
    dt, in_budget = elapsed_ok(t0, 60.0)
    report(6, fit.rate > 0 and fit.r_squared > 0.99 and v_monotone
           and growth_ok and in_budget,
           f"closed loop rate {fit.rate:.4f} (r2 {fit.r_squared:.5f}), "
           f"V monotone {v_monotone}, open-loop growth {growth:.4f} vs {expected:.4f}, "
           f"{dt:.1f}s (< 60s)")


def test_criterion_7_feedback_linearization_contraction():
    t0 = time.perf_counter()
    bundle = pipeline.design(preset_config("3.3"))
    pipeline.certify(bundle)
    F = NonlinearitySpec.make("sine_type", scale=0.29)
    sigma = bundle.sl_design.sigma
    T = 0.2

    def deviation(step):
        cfg = SimConfig(n_modes=32, dt=step, t_final=T,
                        record_stride=int(round(T / step)))
        traj = simulate_semilinear(bundle.eigsys, bundle.shapes, bundle.sl_design, F,
                                   bundle.config.w0_modes, bundle.config.y0, cfg)
        c0, cT = traj.coeffs[0, :2], traj.coeffs[-1, :2]
        return float(np.max(np.abs(cT - c0 * np.exp(-sigma * T)))), float(np.max(np.abs(c0)))

    # ETDRK4 treats the linear part exactly and its explicit part vanishes on
    # the retained rows, so the identity holds to rounding at any step; the
    # scheme's order is tested in test_sim
    base = 2e-4
    (d1, size), (d2, _) = deviation(base), deviation(base / 2.0)
    tol = 1e-12 * size
    dt, in_budget = elapsed_ok(t0, 60.0)
    report(7, max(d1, d2) <= tol and in_budget,
           f"modal contraction c_n(t) = c_n(0) e^(-sigma t), n <= N: deviation {d1:.3e} "
           f"at dt, {d2:.3e} at dt/2 (tol {tol:.3e} = 1e-12 max|c_n(0)|), {dt:.1f}s (< 60s)")


def test_criterion_8_semilinear_stabilization_and_containment():
    t0 = time.perf_counter()
    bundle = pipeline.design(preset_config("3.3", lbar=0.29))
    pipeline.certify(bundle)
    assert bundle.certified
    traj = pipeline.simulate(bundle)
    fit = fit_decay_rate(traj)
    decay_ok = fit.rate > 0 and fit.r_squared > 0.98

    # containment of the admissible growth sets (all retained modes unstable)
    sl = bundle.sl_design
    sigma = 50.0
    lbars = np.linspace(0.025, 0.35, 14)
    kappas = np.logspace(-4.0, 4.0, 256)
    containment_ok = True
    linear_passes = 0
    strict_point = False
    for lbar in lbars:
        y_m, t_m = nonlinear_admissibility_margins(
            sl.mus, sl.norms_sq, sl.g, sl.lambda_next, lbar, kappas)
        nl_ok = np.all(y_m > 0, axis=1) & (t_m > 0)
        head, tail, ly_m = linear_admissibility_margins(
            sl.lambdas, sl.mus, sl.norms_sq, sl.g, sl.lambda_next, sigma, lbar, kappas)
        lin_ok = (head > 0) & (tail > 0) & np.all(ly_m > 0, axis=1)
        linear_passes += int(np.sum(lin_ok))
        containment_ok &= bool(np.all(nl_ok[lin_ok]))
        if np.any(nl_ok) and not np.any(lin_ok):
            strict_point = True
    dt, in_budget = elapsed_ok(t0, 300.0)
    report(8, decay_ok and containment_ok and linear_passes > 0
           and strict_point and in_budget,
           f"semilinear decay rate {fit.rate:.4f} (r2 {fit.r_squared:.5f}); "
           f"containment holds over {linear_passes} linear-admissible points, "
           f"strict gap found {strict_point}, {dt:.1f}s (< 300s)")


def test_criterion_9_determinism(tmp_path):
    cfg = preset_config("2.4")
    cfg.sim.t_final = 2.0
    cfgpath = tmp_path / "det.cfg"
    cfgpath.write_text(config_to_text(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["simulate", "--config", str(cfgpath), "--out", str(out),
                         "--quiet"]) == 0
        outs.append(out)
    trees = [{p.relative_to(out).as_posix(): p.read_bytes()
              for p in sorted(out.rglob("*")) if p.is_file()} for out in outs]
    identical = trees[0] == trees[1]
    report(9, identical,
           f"re-run of the same config reproduces {len(trees[0])} files byte-for-byte: "
           f"{identical}")
