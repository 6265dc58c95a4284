"""Batched evaluators against their 1-D calls, and certify's freedom from random states.

certify's semilinear_dissipation verdict is an exact S-lemma form that covers
every nonlinearity within the design's growth bound (test_semilinear checks
it against a dense form and dV/dt under the configured F at random states),
so certify draws no random state.  The tests that evaluate V and dV/dt at
many states do it as rows; here every batched evaluator is checked row by
row against its 1-D call.
"""

import numpy as np
import pytest

from clfpde import pipeline
from clfpde.config import config_from_text
from clfpde.lyapunov import linear_loop, modal_state
from clfpde.presets import preset_config
from clfpde.semilinear import NonlinearitySpec, semilinear_loop
from clfpde.spectral import project

from conftest import PLANTS, bound, random_states, rate, semilinear_value_rate_bound

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
    rows = list(zip(W, Y))
    loop = linear_loop(eig, shapes, gains, params, law, eig.K)

    # the grid products, on the states W
    C = eig.inner(W, eig.phis)
    assert C.shape == (7, eig.K)
    singles = [modal_state(w, eig, eig.K) for w, _ in rows]
    assert_rows_match(C, [project(w, eig, eig.K) for w, _ in rows])
    assert_rows_match(C, [c for c, _ in singles])
    norm_sq = eig.norm_sq(W)
    assert_rows_match(norm_sq, [n for _, n in singles])
    assert all(type(n) is float for _, n in singles)

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


def test_certify_draws_no_state_and_evaluates_no_nonlinearity(monkeypatch):
    # the semilinear verdicts cover every F within lbar: certify neither
    # evaluates the configured F nor draws random numbers
    bundle = pipeline.design(preset_config("3.3"))
    evaluated = []
    evaluate = NonlinearitySpec.evaluate
    monkeypatch.setattr(NonlinearitySpec, "evaluate",
                        lambda self, s, out=None: evaluated.append(s) or evaluate(self, s, out))

    def no_draws(*args, **kwargs):
        raise AssertionError("certify drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    verdicts = pipeline.certify(bundle)
    assert "semilinear_dissipation" in [v.name for v in verdicts]
    assert bundle.certified and evaluated == []
