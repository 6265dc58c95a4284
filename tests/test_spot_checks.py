"""certify's spot checks run as one batched pass over the random states.

The batched margins are checked against a per-state reference written here
with the 1-D evaluator calls, every batched evaluator is checked row by row
against its 1-D call, and a count guard keeps the pass batched, with the
states projected once.
"""

import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import clfpde
from clfpde import pipeline, semilinear
from clfpde.config import config_from_text
from clfpde.errors import RemainderTooLarge
from clfpde.lyapunov import (
    coercivity_constants,
    feedback_controls,
    feedback_controls_modal,
    linear_loop,
    modal_state,
)
from clfpde.presets import preset_config
from clfpde.semilinear import NonlinearitySpec, semilinear_loop
from clfpde.spectral import project

from conftest import semilinear_value_rate_bound

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
ROW_RTOL = 1e-13


def shipped_text(name, *edits):
    text = (CONFIGS / name).read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


PLANTS = {
    "single_mode": lambda: shipped_text("single_mode.cfg"),
    "two_mode_semilinear": lambda: shipped_text("two_mode_semilinear.cfg"),
    # the benchmark's design_sweep plant with its first setting of seed 1
    "design_sweep": lambda: shipped_text(
        "single_mode.cfg",
        ("\np = 1.0", "\np = poly: 1.0 0.3 -0.2"),
        ("\nq = -19.739208802178716", "\nq = poly: -20.0 5.0"),
        ("\nr = 1.0", "\nr = poly: 1.0 0.2"),
        ("\nmodes = 96", "\nmodes = 48"), ("n_modes = 64", "n_modes = 32"), ("\nN = 1", "\nN = 2"),
        ("mus = 41.94581870462977", "mus = 99.80827166366575"),
        ("sigma = 1.0", "sigma = 2.7069256484551105 0.6212977436079088"),
        ("gain_mode = closed_form", "gain_mode = pole_placement"),
        ("Ls = 0.0", "Ls = 0.22966794144270186"), ("seed = 0", "seed = 1")),
    # the single-mode plant with q = -12 and a Robin end at x = 0
    "robin": lambda: shipped_text(
        "single_mode.cfg",
        ("q = -19.739208802178716", "q = -12.0"), ("\nmodes = 96", "\nmodes = 48"),
        ("n_modes = 64", "n_modes = 32"),
        ("b1 = 1.0", "b1 = 0.8253356149096783"), ("b2 = 0.0", "b2 = 0.5646424733950354")),
}


@pytest.fixture(scope="module", params=sorted(PLANTS))
def plant(request):
    bundle = pipeline.design(config_from_text(PLANTS[request.param]()))
    pipeline.certify(bundle)
    return bundle


def per_state_draws(eigsys, j, count, seed):
    """random_states as one state at a time: n amplitudes, then j boundary values."""
    rng = np.random.default_rng(seed)
    n = min(eigsys.K, 40)
    decay = 1.0 / np.arange(1, n + 1) ** 2
    states = []
    for _ in range(count):
        w = (rng.standard_normal(n) * decay) @ eigsys.phis[:n]
        states.append((w, rng.standard_normal(j)))
    return states


def per_state_margins(bundle):
    """The spot-check margins of certify, one state at a time through the 1-D calls."""
    cfg, eig, shapes = bundle.config, bundle.eigsys, bundle.shapes
    gains, params, law = bundle.gains, bundle.params, bundle.law
    states = per_state_draws(eig, shapes.j, pipeline.SPOT_CHECK_STATES, cfg.seed)
    loop = linear_loop(eig, shapes, gains, params, law, eig.K)
    lo, hi = coercivity_constants(params, gains)
    dual_dev, coer, diss = 0.0, np.inf, np.inf
    modal = [modal_state(w, eig, eig.K) for w, _ in states]
    for (w, y), (c, norm_sq) in zip(states, modal):
        v_quad = feedback_controls(law, w, y, eig)
        v_modal = feedback_controls_modal(c, y, gains, params, loop.T)
        dual_dev = max(dual_dev, float(np.max(np.abs(v_quad - v_modal))))
        V = loop.value(c, y, norm_sq)
        size = norm_sq + float(y @ y)
        ctol = pipeline.COERCIVITY_TOL_REL * max(1.0, abs(V))
        coer = min(coer, V - 0.5 * lo * size + ctol, 0.5 * hi * size - V + ctol)
        vdot, bound = loop.rate(c, y, v_quad), loop.bound(norm_sq, y)
        diss = min(diss, bound + pipeline.RATE_TOL_REL * (1.0 + abs(bound)) - vdot)
    margins = {"kernel_dual_path": pipeline.DUAL_PATH_TOL - dual_dev,
               "coercivity_spot_check": coer, "dissipation_spot_check": diss}
    sl = bundle.sl_design
    if sl is not None and sl.clf is not None:
        F = cfg.semilinear.nonlinearity()
        sl_loop = semilinear_loop(eig, shapes, sl, eig.K)
        sl_margin = np.inf
        for (w, y), (c, norm_sq) in zip(states, modal):
            _, vdot, bound = semilinear_value_rate_bound(sl_loop, F, shapes, eig, w, c, norm_sq, y)
            sl_margin = min(sl_margin, bound + pipeline.RATE_TOL_REL * (1.0 + abs(bound)) - vdot)
        margins["semilinear_dissipation_spot_check"] = sl_margin
    return margins


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


def test_random_states_keep_the_per_state_draw_order(plant):
    eig, j, seed = plant.eigsys, plant.shapes.j, plant.config.seed
    W, Y = pipeline.random_states(eig, j, pipeline.SPOT_CHECK_STATES, seed)
    states = per_state_draws(eig, j, pipeline.SPOT_CHECK_STATES, seed)
    assert W.shape == (pipeline.SPOT_CHECK_STATES, eig.grid.n_points)
    assert np.array_equal(Y, np.array([y for _, y in states]))
    assert_rows_match(W, [w for w, _ in states])


def test_batched_margins_match_the_per_state_reference(plant):
    assert plant.certified
    # kernel_dual_path's margin is the rounding-level gap of two paths to
    # the same controls, so only its size is bounded, not its digits
    margins = {v.name: v.margin for v in plant.verdicts}
    reference = per_state_margins(plant)
    for name, ref in reference.items():
        if name == "kernel_dual_path":
            assert pipeline.DUAL_PATH_TOL - margins[name] <= 1e-11
            assert pipeline.DUAL_PATH_TOL - ref <= 1e-11
        else:
            assert abs(margins[name] - ref) <= 1e-12, name


def test_batched_evaluators_match_the_1d_calls_row_by_row(plant):
    eig, shapes, gains, params, law = (plant.eigsys, plant.shapes, plant.gains,
                                       plant.params, plant.law)
    W, Y = pipeline.random_states(eig, shapes.j, 7, plant.config.seed)
    rows = list(zip(W, Y))
    loop = linear_loop(eig, shapes, gains, params, law, eig.K)

    # the grid products, on the states W
    C = project(W, eig, eig.K)
    assert C.shape == (7, eig.K)
    assert_rows_match(C, [project(w, eig, eig.K) for w, _ in rows])
    C, norm_sq = modal_state(W, eig, eig.K)
    singles = [modal_state(w, eig, eig.K) for w, _ in rows]
    assert_rows_match(C, [c for c, _ in singles])
    assert_rows_match(norm_sq, [n for _, n in singles])
    assert all(type(n) is float for _, n in singles)
    V_quad = feedback_controls(law, W, Y, eig)
    assert_rows_match(V_quad, [feedback_controls(law, w, y, eig) for w, y in rows])

    # the modal evaluators, on the batch's own rows of (C, norm_sq, Y, V_quad): a
    # 1-D projection of W rounds differently from the batched one, and dV/dt
    # would magnify that gap by the cancellation assert_rows_match describes
    states = list(zip(C, norm_sq, Y, V_quad))
    assert_rows_match(feedback_controls_modal(C, Y, gains, params, loop.T),
                      [feedback_controls_modal(c, y, gains, params, loop.T)
                       for c, _, y, _ in states])
    bounds = [loop.bound(n, y) for _, n, y, _ in states]
    assert all(type(b) is float for b in bounds)
    assert_rows_match(loop.bound(norm_sq, Y), bounds)

    assert_rows_match(loop.controls(C, Y), [loop.controls(c, y) for c, _, y, _ in states])
    assert_rows_match(loop.value(C, Y, norm_sq), [loop.value(c, y, n) for c, n, y, _ in states])
    rates = [loop.rate(c, y, v) for c, _, y, v in states]
    assert all(type(r) is float for r in rates)
    assert_rows_match(loop.rate(C, Y, V_quad), rates)

    sl = plant.sl_design
    if sl is not None:
        F = plant.config.semilinear.nonlinearity()
        sl_loop = semilinear_loop(eig, shapes, sl, eig.K)
        batched = semilinear_value_rate_bound(sl_loop, F, shapes, eig, W, C, norm_sq, Y)
        singles = [semilinear_value_rate_bound(sl_loop, F, shapes, eig, w, c, n, y)
                   for w, (c, n, y, _) in zip(W, states)]
        assert all(type(x) is float for single in singles for x in single[1:])
        for k in range(3):
            assert_rows_match(batched[k], [single[k] for single in singles])


def test_remainder_guard_fires_per_row(plant):
    eig, shapes = plant.eigsys, plant.shapes
    W, _ = pipeline.random_states(eig, shapes.j, 5, plant.config.seed)
    modal_state(W, eig, eig.K)
    W[3] += np.sin(600.0 * np.pi * eig.grid.x)          # energy far beyond the K modes
    with pytest.raises(RemainderTooLarge, match="in row 3"):
        modal_state(W, eig, eig.K)
    modal_state(W[[0, 1, 2, 4]], eig, eig.K)


@pytest.fixture(scope="module")
def semilinear_bundle():
    return pipeline.design(preset_config("3.3"))


def modules_importing_project():
    """Every clfpde module that looks up spectral.project under its own name."""
    modules = [importlib.import_module(f"clfpde.{info.name}")
               for info in pkgutil.iter_modules(clfpde.__path__)]
    return [module for module in modules if getattr(module, "project", None) is project]


@pytest.mark.parametrize("states", [1, 7, pipeline.SPOT_CHECK_STATES, 33])
def test_certify_is_one_batched_pass(monkeypatch, semilinear_bundle, states):
    # F is evaluated once on all states, W is projected once and F(u) once
    # more, whatever the state count: the spot checks are not a per-state
    # loop, and no evaluator projects W again
    evaluated, projections = [], []
    evaluate = NonlinearitySpec.evaluate

    def counting_evaluate(self, s):
        evaluated.append(np.size(s))
        return evaluate(self, s)

    def counting_project(w, eigsys, N):
        projections.append(np.shape(w))
        return project(w, eigsys, N)

    monkeypatch.setattr(NonlinearitySpec, "evaluate", counting_evaluate)
    importers = modules_importing_project()
    assert semilinear in importers
    for module in importers:
        monkeypatch.setattr(module, "project", counting_project)
    monkeypatch.setattr(pipeline, "SPOT_CHECK_STATES", states)
    verdicts = pipeline.certify(semilinear_bundle)
    assert "semilinear_dissipation_spot_check" in [v.name for v in verdicts]
    assert evaluated == [states * semilinear_bundle.grid.n_points]
    assert projections == [(states, semilinear_bundle.grid.n_points)] * 2
