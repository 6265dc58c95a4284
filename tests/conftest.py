from pathlib import Path

import numpy as np
import pytest

from clfpde import pipeline
from clfpde.lyapunov import per_row
from clfpde.presets import preset_config
from clfpde.spectral import Coefficient, SLProblem, eigensolve, make_grid


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped_text(name, *edits):
    text = (CONFIGS / name).read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


PLANTS = {
    "single_mode": lambda: shipped_text("single_mode.cfg"),
    "two_mode_semilinear": lambda: shipped_text("two_mode_semilinear.cfg"),
    # the benchmark's design_sweep plant with the first setting its seed 1 draws
    "design_sweep": lambda: shipped_text(
        "single_mode.cfg",
        ("\np = 1.0", "\np = poly: 1.0 0.3 -0.2"),
        ("\nq = -19.739208802178716", "\nq = poly: -20.0 5.0"),
        ("\nr = 1.0", "\nr = poly: 1.0 0.2"),
        ("\nmodes = 96", "\nmodes = 48"), ("n_modes = 64", "n_modes = 32"), ("\nN = 1", "\nN = 2"),
        ("mus = 41.94581870462977", "mus = 99.80827166366575"),
        ("sigma = 1.0", "sigma = 2.7069256484551105 0.6212977436079088"),
        ("gain_mode = closed_form", "gain_mode = pole_placement"),
        ("Ls = 0.0", "Ls = 0.22966794144270186")),
    # the single-mode plant with q = -12 and a Robin end at x = 0
    "robin": lambda: shipped_text(
        "single_mode.cfg",
        ("q = -19.739208802178716", "q = -12.0"), ("\nmodes = 96", "\nmodes = 48"),
        ("n_modes = 64", "n_modes = 32"),
        ("b1 = 1.0", "b1 = 0.8253356149096783"), ("b2 = 0.0", "b2 = 0.5646424733950354")),
}


@pytest.fixture(scope="session")
def grid():
    return make_grid(2049)


@pytest.fixture(scope="session")
def two_mode_bundle():
    """Designed and certified two-mode semilinear benchmark."""
    bundle = pipeline.design(preset_config("3.3"))
    pipeline.certify(bundle)
    return bundle


@pytest.fixture(scope="session")
def collocated_semilinear_bundle():
    """The 3.3 preset on p = 1 + 0.3x - 0.2x^2, r = 1 + 0.2x: collocated modes and
    shapes (uncertified there: its shapes are not orthogonal)."""
    cfg = preset_config("3.3")
    cfg.problem = SLProblem(Coefficient.polynomial([1.0, 0.3, -0.2]), cfg.problem.q,
                            Coefficient.polynomial([1.0, 0.2]), 1.0, 0.0, 1.0, 0.0)
    bundle = pipeline.design(cfg.validate())
    assert not bundle.eigsys.problem.closed_form
    return bundle


@pytest.fixture(scope="session")
def single_mode_bundle():
    """Designed and certified single-mode benchmark (L = 0)."""
    bundle = pipeline.design(preset_config("2.4"))
    pipeline.certify(bundle)
    return bundle


@pytest.fixture(scope="session")
def single_mode_bundle_L1():
    """Single-mode benchmark with an active kernel tail (L = 1)."""
    bundle = pipeline.design(preset_config("2.4", L=1.0))
    pipeline.certify(bundle)
    return bundle


@pytest.fixture(scope="session")
def varcoef_problem():
    return SLProblem(
        p=Coefficient.polynomial([1.0, 0.3, -0.2]),
        q=Coefficient.polynomial([-10.0, 5.0]),
        r=Coefficient.polynomial([1.0, 0.2]),
        b1=1.0, b2=0.0, a1=1.0, a2=0.0,
    )


@pytest.fixture(scope="session")
def varcoef_eigsys(varcoef_problem, grid):
    return eigensolve(varcoef_problem, grid, 32)


def random_modal_state(eigsys, j, rng, max_mode=40):
    n = min(eigsys.K, max_mode)
    amps = rng.standard_normal(n) / np.arange(1, n + 1) ** 2
    return amps @ eigsys.phis[:n], rng.standard_normal(j)


def modal_form(eigsys, w, n=None):
    """(c_1..c_n, ||w||^2) of a grid state, or per row: its first n modal coefficients
    (all computed modes by default) and its energy."""
    return eigsys.inner(w, eigsys.phis[:n]), eigsys.norm_sq(w)


# Certify draws no random state and evaluates no nonlinearity; the spot checks that
# did now run here, on the helpers below.

def random_states(eigsys, j, count, seed):
    """Seeded smooth random states within the computed modal span, as rows (W, Y).

    One (count, n + j) draw keeps each state's order: n mode amplitudes, then j boundary values.
    """
    n = min(eigsys.K, 40)
    draws = np.random.default_rng(seed).standard_normal((count, n + j))
    decay = 1.0 / np.arange(1, n + 1) ** 2
    return (draws[:, :n] * decay) @ eigsys.phis[:n], draws[:, n:]


def nonlinear_coefficients(F, W, Y, shapes, eigsys, n):
    """f_1..f_n = <phi_n, F(u)> at one grid state or per row of (W, Y), u = W + Y varphi."""
    return eigsys.inner(F.evaluate(W + Y @ shapes.varphis), eigsys.phis[:n])


def controls(loop, c, y, f=None):
    """loop.controls plus the cancellation gain's G f_N when the coefficients f are given."""
    v = loop.controls(c, y)
    if f is not None and loop.G is not None:
        v = v + f[..., :loop.N] @ loop.G.T
    return v


def rate(loop, c, y, v, f=0.0):
    """dV/dt of the loop at one state or per row of (c, y) under controls v, c over all
    the loop's modes, f the nonlinearity's coefficients."""
    N = loop.N
    wdot = -loop.lambdas * c - v @ loop.T.T + f
    return per_row(np.sum((c[..., :N] @ loop.R.T) * wdot[..., :N], axis=-1)
                   + loop.gamma * np.sum(c[..., N:] * wdot[..., N:], axis=-1)
                   + (y * v) @ loop.omegas
                   - (y * y) @ (loop.mus * loop.omegas))


def bound(loop, norm_sq, y):
    """The loop's certified bound -s (a ||w||^2 + sum_i b_i y_i^2) at one state or per row."""
    s, a, b = loop.decay
    return per_row(-s * (a * norm_sq + (y * y) @ b))


def semilinear_value_rate_bound(loop, F, shapes, eigsys, w, c, norm_sq, y):
    """(V, dV/dt, bound) of a semilinear loop over all eigsys.K modes at the grid state
    (w, y), whose modal form is (c, norm_sq); one state or states as rows."""
    f = nonlinear_coefficients(F, w, y, shapes, eigsys, eigsys.K)
    return (loop.value(c, y, norm_sq), rate(loop, c, y, controls(loop, c, y, f), f),
            bound(loop, norm_sq, y))
