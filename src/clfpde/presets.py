"""Bundled benchmark problems.

Two reaction-diffusion plants with Dirichlet actuation at x = 1:

  "2.4": u_t = p u_xx - q u with one unstable mode (-4 p pi^2 < q < -p pi^2),
         single input, shape sin(5 pi x / 2).  Default instance p=1, q=-2 pi^2.
  "3.3": u_t = u_xx + 5 pi^2 u (+ F(u)), two unstable modes, two inputs with
         shape parameters 5 pi^2 / 4 and 29 pi^2 / 4.

Both have closed-form eigendata (lambda_n = p n^2 pi^2 + q, sqrt(2) sin
modes), which makes them the regression anchors for the whole pipeline.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig, SemilinearSettings
from .errors import ConfigError
from .sim import SimConfig
from .spectral import Coefficient, SLProblem

PRESET_IDS = ("2.4", "3.3")
TAIL_SUM_TERMS = 2_000_000


def dirichlet_problem(p, q):
    return SLProblem(
        p=Coefficient.constant(p), q=Coefficient.constant(q), r=Coefficient.constant(1.0),
        b1=1.0, b2=0.0, a1=1.0, a2=0.0,
    )


def single_mode_config(p=1.0, q=-2.0 * np.pi ** 2, sigma=1.0, L=0.0, seed=0):
    """Benchmark "2.4": one retained mode, one input."""
    if not (-4.0 * p * np.pi ** 2 < q < -p * np.pi ** 2):
        raise ValueError("q must lie in (-4 p pi^2, -p pi^2) for the single-mode benchmark")
    mu = p * 25.0 * np.pi ** 2 / 4.0 + q
    return RunConfig(
        problem=dirichlet_problem(p, q),
        N=1, j=1, mus=[mu], sigma=[sigma], Ls=[L],
        sim=SimConfig(t_final=8.0),
        w0_modes=[1.0, 0.5], y0=[0.3], seed=seed,
    ).validate()


def two_mode_config(sigma=1.0, lbar=0.29, scale=None, controller="nonlinear",
                    kind="sine_type", seed=0):
    """Benchmark "3.3": two retained modes, two inputs, semilinear plant."""
    semilinear = SemilinearSettings(
        kind=kind, scale=lbar if scale is None else scale,
        lbar=lbar, controller=controller,
    )
    return RunConfig(
        problem=dirichlet_problem(1.0, -5.0 * np.pi ** 2),
        N=2, j=2, mus=[5.0 * np.pi ** 2 / 4.0, 29.0 * np.pi ** 2 / 4.0],
        sigma=[sigma], Ls=[0.0, 0.0],
        semilinear=semilinear,
        sim=SimConfig(n_modes=48, dt=2e-4, t_final=6.0),
        w0_modes=[1.0, 0.5, 0.25], y0=[0.2, -0.1], seed=seed,
    ).validate()


def preset_config(preset_id, **kwargs):
    if preset_id == "2.4":
        return single_mode_config(**kwargs)
    if preset_id == "3.3":
        return two_mode_config(**kwargs)
    raise ConfigError(f"unknown benchmark preset {preset_id!r}; known: {PRESET_IDS}")


# closed-form reference values for the two-mode benchmark
def two_mode_reference():
    """Analytic eigenvalues, input matrix, gain inverse, and growth bound."""
    pi = np.pi
    s2 = np.sqrt(2.0)
    lambdas = lambda n: (n ** 2 - 5.0) * pi ** 2
    B = (4.0 * s2 / (3.0 * pi)) * np.array([[1.0 / 7.0, 1.0 / 15.0],
                                            [-2.0 / 3.0, -2.0 / 11.0]])
    g = (pi / (256.0 * s2)) * np.array([[1890.0, 693.0],
                                        [-6930.0, -1485.0]])
    return {
        "lambda": lambdas,
        "B": B,
        "g": g,
        "lbar_quote": 0.299,
    }


def single_mode_reference(p, q, sigma):
    """Analytic values for the single-mode benchmark at given (p, q, sigma)."""
    pi = np.pi
    s2 = np.sqrt(2.0)
    return {
        "lambda": lambda n: p * n ** 2 * pi ** 2 + q,
        "B11": 4.0 * s2 / (21.0 * pi),
        "K": -(21.0 * pi / (4.0 * s2)) * (sigma - p * pi ** 2 - q),
        "shape_norm_sq": 0.5,
    }


def single_mode_kernel_closed_form(x, p, q, sigma, gamma, L, M):
    """Closed-form feedback kernel for the single-mode benchmark.

    k(x) = -((21 pi / 4)(sigma - p pi^2 - q) + 8 L / (21 pi)) sin(pi x)
           + (8 gamma L / pi) sum_{n=2}^{M} ((-1)^n n / (25 - 4 n^2)) sin(n pi x)
    """
    pi = np.pi
    x = np.asarray(x, dtype=float)
    k = -((21.0 * pi / 4.0) * (sigma - p * pi ** 2 - q) + 8.0 * L / (21.0 * pi)) \
        * np.sin(pi * x)
    for n in range(2, M + 1):
        k = k + (8.0 * gamma * L / pi) * ((-1.0) ** n * n / (25.0 - 4.0 * n ** 2)) \
            * np.sin(n * pi * x)
    return k


def single_mode_tail_sum(M):
    """sum_{n=M+1}^inf n^2 / (25 - 4 n^2)^2 to machine convergence.

    Evaluated by direct summation plus an integral remainder bound; the
    terms decay like 1/(16 n^2).
    """
    n = np.arange(M + 1, M + 1 + TAIL_SUM_TERMS, dtype=float)
    s = float(np.sum(n ** 2 / (25.0 - 4.0 * n ** 2) ** 2))
    return s + 1.0 / (16.0 * (M + TAIL_SUM_TERMS))
