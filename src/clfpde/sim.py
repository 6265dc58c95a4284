"""Closed-loop spectral-Galerkin simulation and decay-rate fitting.

The state is truncated to n_modes modal coefficients c_n plus the boundary
states y_i, and the loop is the shared lyapunov.ClosedLoop (linear_loop or
semilinear.semilinear_loop):

    c_n' = -lambda_n c_n - sum_i v_i <varphi_i, phi_n>  (+ <phi_n, F(u)>),
    y_i' = -mu_i y_i + v_i.

With z = (c, y) and A = ClosedLoop.matrix() the loop is z' = A z + g(z),
and one exponential scheme advances it by h = dt record_stride per recorded
sample.  Without a nonlinear coupling (linear, open loop, zero F) g = 0 and
each sample is the exact image expm(h A) z of the one before.  A nonzero F
leaves all the stiffness in A and a non-stiff g; ETDRK4 (Cox & Matthews,
J. Comput. Phys. 176, 2002) treats A exactly through phi-functions and g
explicitly, four quadratures of F per step, each with u on the Gauss nodes.
The recorded V is ClosedLoop.value, the same functional the certifier
evaluates; the recorded boundary columns are U = sum_i y_i and the raw
boundary rates vbar_i = y_i' = v_i - mu_i y_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateTrajectory,
    GridTooCoarse,
    Instability,
    QuadratureBudgetExceeded,
)
from .lyapunov import coupling_table  # noqa: F401  (perfbench/spans.py wraps this name)
from .lyapunov import linear_loop
from .semilinear import semilinear_loop
from .spectral import ORTHONORMALITY_TOL, gauss_rule
from .textio import write_csv

INSTABILITY_FACTOR = 1e6
# recorded samples between the ETDRK4 loop's growth checks
GROWTH_BLOCK = 64
MIN_STEPS = 100
FIT_MIN_SAMPLES = 20
# Gauss-Legendre nodes of F's quadrature per simulated mode: at 4 the shipped
# semilinear trajectory is within 1.1e-11 of the 2049-point Simpson one, flat above
GAUSS_NODES_PER_MODE = 4


@dataclass
class SimConfig:
    n_modes: int = 64
    dt: float = 1e-4
    t_final: float | None = None     # None: 5/sigma clipped to [1, 20], fallback 10
    record_stride: int = 10
    max_steps: int = 2_000_000       # budget of quadratures of F; a zero F makes none

    def resolve_t_final(self, sigma=None):
        if self.t_final is not None:
            return float(self.t_final)
        if sigma is None or sigma <= 0.0:
            return 10.0
        return float(min(max(5.0 / sigma, 1.0), 20.0))

    def steps(self, sigma=None):
        """Step count over the resolved horizon; ConfigError on unusable step settings."""
        if not self.dt > 0.0:
            raise ConfigError("dt must be positive")
        if self.record_stride < 1:
            raise ConfigError("record_stride must be >= 1")
        t_final = self.resolve_t_final(sigma)
        if not 0.0 < t_final < np.inf:
            raise ConfigError(f"t_final={t_final!r} must be positive and finite")
        steps = int(round(t_final / self.dt))
        if steps < MIN_STEPS:
            raise ConfigError(f"t_final must cover at least {MIN_STEPS} steps")
        return steps

    def samples(self, sigma=None):
        return self.steps(sigma) // self.record_stride + 1

    def check_quadrature_budget(self, F, sigma=None):
        """At most max_steps quadratures of F: ETDRK4 makes four per step and
        one for the last sample's controls, and a zero F (exact propagator) none."""
        count = 0 if F.kind == "zero" else 4 * (self.samples(sigma) - 1) + 1
        if count > self.max_steps:
            raise QuadratureBudgetExceeded(
                f"{count} quadrature evaluations of F exceed max_steps={self.max_steps}"
            )


@dataclass
class Trajectory:
    times: np.ndarray        # (S,)
    coeffs: np.ndarray       # (S, n_modes)
    y: np.ndarray            # (S, j)
    norm_w: np.ndarray       # (S,)
    norm_y: np.ndarray       # (S,)
    V: np.ndarray            # (S,)
    U: np.ndarray            # (S,) boundary value sum_i y_i
    v: np.ndarray            # (S, j) transformed controls
    vbar: np.ndarray         # (S, j) raw boundary rates
    certified: bool
    design_N: int
    kind: str                # 'linear' | 'semilinear' | 'open_loop'

    @property
    def samples(self):
        return self.times.size


def _initial_state(eigsys, c0, y0, n_modes):
    """Modal (c, y): the amplitudes c0 padded with zeros to n_modes, and y0."""
    if n_modes > eigsys.K:
        raise ConfigError(f"n_modes={n_modes} exceeds computed modes {eigsys.K}")
    c0 = np.atleast_1d(np.asarray(c0, dtype=float))
    if c0.size > n_modes:
        raise ConfigError(f"{c0.size} initial amplitudes exceed n_modes={n_modes}")
    c = np.zeros(n_modes)
    c[:c0.size] = c0
    return c, np.atleast_1d(np.asarray(y0, dtype=float)).copy()


def _check_growth(Z, n, times, cap):
    """Instability at the first row of Z = (c, y) whose |c| + |y| is past cap or not finite."""
    size = np.sqrt(np.sum(Z[:, :n] ** 2, axis=1)) + np.sqrt(np.sum(Z[:, n:] ** 2, axis=1))
    bad = ~(size <= cap)
    if bad.any():
        first = int(np.argmax(bad))
        raise Instability(f"norm {size[first]:.3e} at t={times[first]:.4g} exceeds "
                          f"{INSTABILITY_FACTOR:g} x initial")


def _phi_functions(X, p):
    """[phi_0(X), ..., phi_p(X)], phi_0 = expm, from one expm of the block matrix

        [[X, I, 0, ..], [0, 0, I, ..], .., [0, .., 0]]    ((p + 1) x (p + 1) blocks)

    whose top block row they are (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011).
    """
    # imported here, as in _records
    from scipy.linalg import expm

    m = X.shape[0]
    W = np.zeros(((p + 1) * m, (p + 1) * m))
    W[:m, :m] = X
    W[np.arange(p * m), np.arange(m, (p + 1) * m)] = 1.0
    top = expm(W)[:m]
    return [top[:, k * m:(k + 1) * m] for k in range(p + 1)]


def _records(loop, nonlinear, c, y, times, h):
    """Recorded (coeffs, ys, vs) of z' = A z + g(z) from z = (c, y), samples h apart.

    A = loop.matrix(); nonlinear=None (g = 0) samples the exact solution, one
    mat-vec with expm(h A) per record, and checks the growth of all samples
    at once.  Otherwise nonlinear = (basis, evaluate, GW) gives the fused
    quadrature g(z) = GW @ evaluate(z @ basis), and one ETDRK4 step of h per
    record treats A exactly.  GW is folded into the stage operators once per
    run, so a step passes F's values, not g's, between three stacked products

        L = [basis^T; E2; E]                  z -> u_z, E2 z, E z
        R = [Q GW; W1 GW; (E2 - I) Q GW; GW[n:]]  F(u_z) -> Q g, W1 g, (E2 - I) Q g, dv
        W23 = [W2 GW | W3 GW]                 [F_a + F_b; F_c] -> the rest of the update

    (E = e^{hA}, E2 = e^{hA/2}, Q = h/2 phi_1(hA/2)), all writing into
    buffers allocated once.  The third stage starts from E z in place of
    E2 E2 z, equal in exact arithmetic.  The first stage's dv is the recorded
    sample's control correction.  Growth is checked once per GROWTH_BLOCK
    recorded samples, and raises at the block's first sample past the cap.
    """
    n = c.size
    A = loop.matrix()
    Z = np.empty((times.size, n + y.size))
    Z[0, :n], Z[0, n:] = c, y
    cap = INSTABILITY_FACTOR * max(np.sqrt(float(c @ c)) + np.linalg.norm(y), 1e-12)
    if nonlinear is None:
        # imported here and in _phi_functions: scipy.linalg is most of clfpde's
        # import time, and only simulation needs it
        from scipy.linalg import expm

        P = expm(A * h)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, times.size):
                np.dot(P, Z[k - 1], out=Z[k])
            _check_growth(Z, n, times, cap)
        C, Y = Z[:, :n], Z[:, n:]
        return C, Y, loop.controls(C, Y)

    basis, evaluate, GW = nonlinear
    E, P1, P2, P3 = _phi_functions(h * A, 3)
    E2, P1_half = _phi_functions(0.5 * h * A, 1)
    QG = (0.5 * h * P1_half) @ GW
    L = np.vstack([basis.T, E2, E])
    R = np.vstack([QG, (h * (P1 - 3.0 * P2 + 4.0 * P3)) @ GW, E2 @ QG - QG, GW[n:]])
    W23 = np.hstack([(2.0 * h * (P2 - 2.0 * P3)) @ GW, (h * (4.0 * P3 - P2)) @ GW])
    QG2 = 2.0 * QG
    m, q = Z.shape[1], basis.shape[1]
    lz, rf = np.empty(L.shape[0]), np.empty(R.shape[0])
    u, e2z, ez = lz[:q], lz[q:q + m], lz[q + m:]
    qg, w1g, eqg, dv = rf[:m], rf[m:2 * m], rf[2 * m:3 * m], rf[3 * m:]
    fz, fb, fac, s = np.empty(q), np.empty(q), np.empty(2 * q), np.empty(m)
    fa, fc = fac[:q], fac[q:]
    DV = np.empty((times.size, y.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(times.size):
            if k % GROWTH_BLOCK == GROWTH_BLOCK - 1 or k + 1 == times.size:
                lo = k - k % GROWTH_BLOCK
                _check_growth(Z[lo:k + 1], n, times[lo:], cap)
            np.dot(L, Z[k], out=lz)
            evaluate(u, out=fz)
            np.dot(R, fz, out=rf)
            DV[k] = dv
            if k + 1 == times.size:
                break
            np.add(e2z, qg, out=s)                  # a = E2 z + Q g(z)
            np.dot(s, basis, out=u)
            evaluate(u, out=fa)
            np.dot(QG, fa, out=s)                   # b = E2 z + Q g(a)
            s += e2z
            np.dot(s, basis, out=u)
            evaluate(u, out=fb)
            np.dot(QG2, fb, out=s)                  # c = E z + (E2 - I) Q g(z) + 2 Q g(b)
            s += ez
            s += eqg
            np.dot(s, basis, out=u)
            evaluate(u, out=fc)
            fa += fb
            znext = Z[k + 1]
            np.dot(W23, fac, out=znext)
            znext += ez
            znext += w1g
    C, Y = Z[:, :n], Z[:, n:]
    return C, Y, loop.controls(C, Y) + DV


def _simulate(loop, nonlinear, c, y, cfg, sigma, **flags):
    """Records of the loop from modal (c, y) over cfg's horizon, and the trajectory.

    nonlinear, when given, is _records' fused quadrature (basis, evaluate, GW).
    """
    steps = cfg.steps(sigma)
    times = np.arange(0, steps + 1, cfg.record_stride) * cfg.dt
    coeffs, ys, vs = _records(loop, nonlinear, c, y, times, cfg.dt * cfg.record_stride)
    return Trajectory(times, coeffs, ys,
                      np.sqrt(np.sum(coeffs ** 2, axis=1)), np.sqrt(np.sum(ys ** 2, axis=1)),
                      loop.value(coeffs, ys), np.sum(ys, axis=1), vs, vs - ys * loop.mus, **flags)


def simulate_linear(eigsys, shapes, design, params, law, c0, y0, cfg):
    """Closed-loop linear simulation from the modal amplitudes c0 and boundary
    states y0; pass law=None for the open loop (v = 0)."""
    if law is not None and cfg.n_modes <= law.M:
        raise ConfigError(f"n_modes={cfg.n_modes} must exceed the kernel truncation M={law.M}")
    c, y = _initial_state(eigsys, c0, y0, cfg.n_modes)
    loop = linear_loop(eigsys, shapes, design, params, law, cfg.n_modes)
    return _simulate(loop, None, c, y, cfg, design.sigma if design is not None else None,
                     certified=law is not None,
                     design_N=design.K.shape[1] if design is not None else 1,
                     kind="linear" if law is not None else "open_loop")


def gauss_quadrature(eigsys, shapes, n_modes, Q):
    """F's quadrature in the ETDRK4 stages: (basis, wr) on the Gauss rule of Q nodes.

    basis = [Phi; Psi] holds the first n_modes modes, then the shapes, at the
    nodes of spectral.gauss_rule, evaluated exactly (EigenSystem.at,
    ShapeSet.at), and wr the rule's weights times r.  GridTooCoarse unless
    the rule's Gram of the basis matches the grid's Simpson Gram within
    ORTHONORMALITY_TOL, each entry relative to the norms of its pair.
    """
    x, w = gauss_rule(eigsys.problem, Q)
    basis = np.vstack([eigsys.at(x)[:n_modes], shapes.at(x)])
    wr = w * eigsys.problem.r(x)
    samples = np.vstack([eigsys.phis[:n_modes], shapes.varphis])
    simpson = eigsys.inner(samples, samples)
    norms = np.sqrt(np.diag(simpson))
    defect = float(np.max(np.abs((basis * wr) @ basis.T - simpson) / np.outer(norms, norms)))
    if not defect <= ORTHONORMALITY_TOL:
        raise GridTooCoarse(f"the {x.size}-node Gauss Gram of the modes and shapes is "
                            f"{defect:.3e} off the grid's, beyond {ORTHONORMALITY_TOL:g}")
    return basis, wr


def simulate_semilinear(eigsys, shapes, design, F, c0, y0, cfg):
    """Closed-loop semilinear simulation under the design's controller, from the
    modal amplitudes c0 and boundary states y0.

    Each ETDRK4 stage makes one fused quadrature: u = z @ basis on the Gauss
    nodes of gauss_quadrature (GAUSS_NODES_PER_MODE per mode), basis =
    [Phi; Psi] (modes, then shapes), and g(z) = GW @ F(u) with

        GW = [[I - T Gext], [Gext]] @ Phi_w,

    Phi_w the modes times the Gauss weights and r, and Gext the
    cancellation gain G on f_1..f_N padded to n_modes columns (zero under
    the domination controller).  GW maps F(u) to the nonlinear part
    (f - T dv, dv) of the right-hand side, dv = G f_N; both matrices are
    built once per run.  A zero nonlinearity leaves the linear loop
    v = Kmat c, which runs as simulate_linear does and makes no quadrature.
    Uncertified designs run but are flagged on the trajectory.
    """
    n_modes = cfg.n_modes
    if n_modes < design.N:
        raise ConfigError(f"n_modes={n_modes} must cover the retained modes N={design.N}")
    cfg.check_quadrature_budget(F, design.sigma)
    c, y = _initial_state(eigsys, c0, y0, n_modes)
    loop = semilinear_loop(eigsys, shapes, design, n_modes)
    nonlinear = None
    if F.kind != "zero":
        basis, wr = gauss_quadrature(eigsys, shapes, n_modes, GAUSS_NODES_PER_MODE * n_modes)
        Gext = np.zeros((design.N, n_modes))
        if loop.G is not None:
            Gext[:, :design.N] = loop.G
        GW = np.vstack([np.eye(n_modes) - loop.T @ Gext, Gext]) @ (basis[:n_modes] * wr)
        nonlinear = (basis, F.evaluate, GW)
    return _simulate(loop, nonlinear, c, y, cfg, design.sigma,
                     certified=design.certified, design_N=design.N, kind="semilinear")


@dataclass
class DecayFit:
    amplitude: float       # fitted prefactor at t = 0
    rate: float            # fitted exponential decay rate (positive = decay)
    r_squared: float


def fit_decay_rate(traj):
    """Least-squares exponential fit of norm_w + norm_y over the trailing half."""
    if traj.samples < FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {FIT_MIN_SAMPLES} recorded samples to fit a rate")
    total = traj.norm_w + traj.norm_y
    if np.all(total == 0.0):
        raise DegenerateTrajectory("trajectory is identically zero")
    lo = traj.samples // 2
    t = traj.times[lo:]
    z = np.log(np.clip(total[lo:], 1e-300, None))
    A = np.column_stack([t, np.ones_like(t)])
    (slope, intercept), *_ = np.linalg.lstsq(A, z, rcond=None)
    fit = A @ np.array([slope, intercept])
    ss_res = float(np.sum((z - fit) ** 2))
    ss_tot = float(np.sum((z - np.mean(z)) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return DecayFit(float(np.exp(intercept)), float(-slope), r2)


def trajectory_header(j, N):
    cols = ["t", "norm_w", "norm_y", "V", "U"]
    cols += [f"v_{i + 1}" for i in range(j)]
    cols += [f"vbar_{i + 1}" for i in range(j)]
    cols += [f"c_{n + 1}" for n in range(min(8, N))]
    return cols


def write_trajectory_csv(traj, path):
    """Trajectory export: t, norms, V, U, controls, and leading modal coefficients."""
    nc = min(8, traj.design_N)
    table = np.column_stack([traj.times, traj.norm_w, traj.norm_y, traj.V, traj.U,
                             traj.v, traj.vbar, traj.coeffs[:, :nc]])
    write_csv(path, trajectory_header(traj.y.shape[1], traj.design_N),
              (row.tolist() for row in table))
