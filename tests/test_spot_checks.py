"""certify's semilinear spot check runs as one batched pass over the random states.

Its batched margin is checked against a per-state reference written here
with the 1-D evaluator calls, every batched evaluator is checked row by row
against its 1-D call, and a count guard keeps the pass batched, with the
states projected once.  A linear design draws no random states: its
verdicts are exact forms (test_lyapunov).
"""

import importlib
import pkgutil

import numpy as np
import pytest

import clfpde
from clfpde import pipeline, semilinear
from clfpde.config import config_from_text
from clfpde.errors import RemainderTooLarge
from clfpde.lyapunov import linear_loop, modal_state
from clfpde.presets import preset_config
from clfpde.semilinear import NonlinearitySpec, semilinear_loop
from clfpde.spectral import project

from conftest import PLANTS, semilinear_value_rate_bound

ROW_RTOL = 1e-13


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
    """certify's spot-check margins, one state at a time through the 1-D calls:
    the semilinear dissipation margin of a design with a CLF, none otherwise."""
    sl = bundle.sl_design
    if sl is None or sl.clf is None:
        return {}
    cfg, eig, shapes = bundle.config, bundle.eigsys, bundle.shapes
    states = per_state_draws(eig, shapes.j, pipeline.SPOT_CHECK_STATES, cfg.seed)
    F = cfg.semilinear.nonlinearity()
    sl_loop = semilinear_loop(eig, shapes, sl, eig.K)
    sl_margin = np.inf
    for w, y in states:
        c, norm_sq = modal_state(w, eig, eig.K)
        _, vdot, bound = semilinear_value_rate_bound(sl_loop, F, shapes, eig, w, c, norm_sq, y)
        sl_margin = min(sl_margin, bound + pipeline.RATE_TOL_REL * (1.0 + abs(bound)) - vdot)
    return {"semilinear_dissipation_spot_check": sl_margin}


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


def test_batched_margins_match_the_per_state_reference(plant, monkeypatch):
    # the linear plants draw no states at all
    drawn = []
    random_states = pipeline.random_states

    def counting_random_states(*args):
        drawn.append(args)
        return random_states(*args)

    monkeypatch.setattr(pipeline, "random_states", counting_random_states)
    verdicts = pipeline.certify(plant)
    assert plant.certified
    margins = {v.name: v.margin for v in verdicts if v.name.endswith("spot_check")}
    reference = per_state_margins(plant)
    assert margins.keys() == reference.keys()
    assert len(drawn) == len(reference)
    for name, ref in reference.items():
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

    # the modal evaluators, on the batch's own rows of (C, norm_sq, Y, V): a
    # 1-D projection of W rounds differently from the batched one, and dV/dt
    # would magnify that gap by the cancellation assert_rows_match describes
    V = loop.controls(C, Y)
    states = list(zip(C, norm_sq, Y, V))
    assert_rows_match(V, [loop.controls(c, y) for c, _, y, _ in states])
    bounds = [loop.bound(n, y) for _, n, y, _ in states]
    assert all(type(b) is float for b in bounds)
    assert_rows_match(loop.bound(norm_sq, Y), bounds)
    values = [loop.value(c, y, n) for c, n, y, _ in states]
    assert all(type(v) is float for v in values)
    assert_rows_match(loop.value(C, Y, norm_sq), values)
    rates = [loop.rate(c, y, v) for c, _, y, v in states]
    assert all(type(r) is float for r in rates)
    assert_rows_match(loop.rate(C, Y, V), rates)

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
