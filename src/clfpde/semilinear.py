"""Semilinear stabilization: cancellation and domination controllers.

For plants u_t = -Au + F(u) with j = N inputs, invertible input matrix B and
g = -B^-1, two controllers are available:

  nonlinear (cancellation):  v_i = sum_m g_im ((sigma - lambda_m) c_m + f_m),
  linear (domination):       v_i = sum_m g_im (sigma - lambda_m) c_m,

with c_m = <phi_m, w> and f_m = <phi_m, F(u)>.  The cancellation controller
makes the first N modal derivatives exactly -sigma c_n; the domination
controller leaves the projected nonlinearity in place and is admissible for
a strictly smaller set of growth bounds when all retained modes are unstable.

Each controller's admissibility inequalities in (lbar, kappa) are stated once,
in nonlinear_admissibility_margins and linear_admissibility_margins; both
broadcast over an array of kappa, so the design's kappa search, the certify
verdict and the tests' scans are one call each.  The linear one also
broadcasts over the shift a of its head margin, which makes the domination
controller's a search one more call.

semilinear_loop is either controller's lyapunov.ClosedLoop, and
nonlinear_coefficients projects F(u) at grid states for its controls and rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, NoAdmissibleA, NoAdmissibleZeta
from .lyapunov import ClosedLoop, coupling_table
from .reduced import gain_inverse
from .spectral import project
from .textio import write_csv

KAPPA_GRID_SIZE = 1024
SEARCH_MARGIN = 1e-9


@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise nonlinearity f(s) with declared growth constant lbar.

    Supported kinds: zero, linear_gain, sine_type, saturation.
    All satisfy f(0) = 0 and |f(s)| <= lbar |s|.
    """

    kind: str
    lbar: float
    scale: float = 0.0

    @staticmethod
    def make(kind, scale=0.0, lbar=None):
        if kind == "zero":
            return NonlinearitySpec("zero", 0.0)
        if kind in ("linear_gain", "sine_type", "saturation"):
            return NonlinearitySpec(kind, abs(scale) if lbar is None else float(lbar),
                                    float(scale))
        raise ValueError(f"unknown nonlinearity kind {kind!r}")

    def evaluate(self, s, out=None):
        """f(s); into out when given (out may be s), else into a new array."""
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            if out is None:
                return np.zeros_like(s)
            out.fill(0.0)
            return out
        if self.kind == "linear_gain":
            return np.multiply(self.scale, s, out=out)
        if self.kind == "sine_type":
            f = np.sin(s, out=out)
        else:                                           # saturation
            f = np.clip(s, -1.0, 1.0, out=out)
        return np.multiply(self.scale, f, out=f)

    def validate(self):
        s = np.linspace(-10.0, 10.0, 2001)
        f = self.evaluate(s)
        if abs(float(self.evaluate(np.zeros(1))[0])) > 1e-14:
            raise ValueError("nonlinearity must vanish at 0")
        excess = np.abs(f) - self.lbar * np.abs(s)
        if np.max(excess) > 1e-9 * (1.0 + self.lbar):
            k = int(np.argmax(excess))
            raise ValueError(
                f"|f({s[k]:.4g})| = {abs(f[k]):.6g} exceeds lbar*|s| = {self.lbar * abs(s[k]):.6g}"
            )
        return True


@dataclass
class SemilinearCLF:
    """Constructive functional parameters produced by the proofs' selections."""

    R: float
    gamma: float
    omegas: np.ndarray
    theta: float
    beta: float
    epsilon: float
    zeta: float | None = None       # cancellation-controller search variable
    a: float | None = None          # domination-controller search variable
    epsilon_convention_note: str = ""


@dataclass
class SemilinearDesign:
    """Everything needed to run and certify a semilinear controller."""

    g: np.ndarray           # (N, N) = -B^-1
    sigma: float
    kappa: float
    lbar: float
    controller_kind: str    # 'nonlinear' | 'linear'
    lambdas: np.ndarray     # (N,)
    mus: np.ndarray         # (N,)
    norms_sq: np.ndarray    # (N,)
    lambda_next: float
    clf: SemilinearCLF | None = None
    certified: bool = False

    @property
    def N(self):
        return self.lambdas.size


def max_growth_bound(mus, norms_sq, g, lambda_next):
    """Largest admissible growth constant for the cancellation controller.

    lbar_max = sqrt(2 a b / (a + b + sqrt((a - b)^2 + 4 N a b))) with
    a = min_i mu_i^2 / (2 N ||varphi_i||^2 sum_m g_im^2) and
    b = lambda_{N+1}^2 / (1 + 2 N sum_im ||varphi_i||^2 g_im^2).
    """
    mus = np.asarray(mus, dtype=float)
    norms_sq = np.asarray(norms_sq, dtype=float)
    g = np.asarray(g, dtype=float)
    N = mus.size
    if np.any(norms_sq <= 0.0):
        raise DegenerateDenominator("shape norms must be positive")
    if lambda_next <= 0.0:
        raise DegenerateDenominator("lambda_{N+1} must be positive")
    gsq_rows = np.sum(g ** 2, axis=1)
    denom_a = 2.0 * N * norms_sq * gsq_rows
    with np.errstate(divide="ignore"):
        a = float(np.min(np.where(denom_a > 0.0, mus ** 2 / denom_a, np.inf)))
    b = float(lambda_next ** 2 / (1.0 + 2.0 * N * float(norms_sq @ gsq_rows)))
    if not np.isfinite(a):
        # g -> 0 limit: the formula tends to sqrt(b)
        return float(np.sqrt(b))
    lsq = 2.0 * a * b / (a + b + np.sqrt((a - b) ** 2 + 4.0 * N * a * b))
    return float(np.sqrt(lsq))


def nonlinear_admissibility_margins(mus, norms_sq, g, lambda_next, lbar, kappa):
    """Margins of the two cancellation-controller inequalities.

    Broadcasts over an array of kappa: returns (y margins of shape
    kappa.shape + (N,), tail margins of shape kappa.shape).
    """
    mus = np.asarray(mus, dtype=float)
    norms_sq = np.asarray(norms_sq, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    N = mus.size
    gsq_rows = np.sum(np.asarray(g) ** 2, axis=1)
    y_margins = mus ** 2 - 2.0 * N * lbar ** 2 * (1.0 + 1.0 / kappa[..., None]) \
        * norms_sq * gsq_rows
    tail = lambda_next ** 2 - lbar ** 2 * (1.0 + kappa * N) * \
        (1.0 + 2.0 * N * float(norms_sq @ gsq_rows))
    return y_margins, tail


def linear_admissibility_margins(lambdas, mus, norms_sq, g, lambda_next, sigma, lbar, kappa,
                                 a=0.0):
    """Margins of the three domination-controller inequalities.

    Broadcasts over arrays of kappa and of the shift a of the head margin
    (the proof's search variable; 0 for admissibility itself): returns (head,
    tail, y margins) of shapes s, s and s + (N,), s the broadcast shape of
    kappa and a.  Where the head inequality fails (head <= 0) the tail and y
    margins are -inf.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    mus = np.asarray(mus, dtype=float)
    norms_sq = np.asarray(norms_sq, dtype=float)
    g = np.asarray(g, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    N = mus.size
    head = sigma ** 2 - np.asarray(a, dtype=float) - lbar ** 2 * (1.0 + kappa * N)
    gsl = g ** 2 * ((sigma - lambdas) ** 2)[None, :]
    rows = np.sum(gsl, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = lambda_next ** 2 - lbar ** 2 * (1.0 + kappa * N) * \
            (1.0 + 2.0 * N * float(norms_sq @ rows) / head)
        y_margins = mus ** 2 - 2.0 * N * lbar ** 2 * (1.0 + 1.0 / kappa[..., None]) \
            * norms_sq * rows / head[..., None]
    ok = head > 0.0
    return head, np.where(ok, tail, -np.inf), np.where(ok[..., None], y_margins, -np.inf)


def kappa_grid():
    return np.logspace(-4.0, 4.0, KAPPA_GRID_SIZE)


def _search_grid():
    """Candidate points in (0, 1) for the zeta / a searches.

    Stage one is the 64-point uniform grid searched ascending (so the
    smallest uniform point wins whenever it is feasible); near the
    growth-bound boundary the feasible set shrinks far below 1/65, so a
    log-spaced extension toward 0 is searched descending, returning the
    largest feasible point (the strongest dissipation certificate there).
    """
    uniform = np.linspace(1.0 / 65.0, 64.0 / 65.0, 64)
    extension = np.logspace(np.log10(1.0 / 65.0), -12.0, 97)[1:]
    return np.concatenate([uniform, extension])


def select_nonlinear_clf_params(design):
    """Constructive functional parameters for the cancellation controller.

    Takes the first feasible zeta of the search grid, then applies the
    proof's closed-form selections for (beta, epsilon, gamma, R, omega_i) and
    reports the resulting strictly positive dissipation coefficient theta.
    """
    lbar, kappa, N = design.lbar, design.kappa, design.N
    T = np.sum(design.g ** 2 * ((design.sigma - design.lambdas) ** 2)[None, :], axis=1)
    S = np.sum(design.g ** 2, axis=1)
    zetas = _search_grid()
    h = 2.0 * zetas / ((1.0 - zetas) * (1.0 + lbar ** 2) * (1.0 + kappa * N))
    y_ms = design.mus ** 2 / (h[:, None] * T + 2.0 * S) \
        - N * lbar ** 2 * (1.0 + 1.0 / kappa) * design.norms_sq
    denom = 1.0 + N * h * float(design.norms_sq @ T) + 2.0 * N * float(design.norms_sq @ S)
    tail_ms = design.lambda_next ** 2 / denom - lbar ** 2 * (1.0 + kappa * N)
    ok = np.all(y_ms > SEARCH_MARGIN, axis=1) & (tail_ms > SEARCH_MARGIN)
    if not np.any(ok):
        raise NoAdmissibleZeta(
            "no feasible zeta found; check the admissibility margins for this lbar/kappa"
        )
    k = int(np.argmax(ok))
    zeta, y_m, tail_m = zetas[k], y_ms[k], tail_ms[k]
    R = N * (1.0 + lbar ** 2) * (1.0 + kappa * N) / design.sigma
    beta = (1.0 - zeta) * design.sigma * R / N
    epsilon = 1.0 / (2.0 * N * zeta)
    per_input = T / beta + S / zeta
    gamma = design.lambda_next / (epsilon + float(design.norms_sq @ per_input))
    omegas = design.mus / per_input
    theta = min(zeta * N * (1.0 + kappa * N),
                float(zeta * np.min(y_m)),
                N * zeta * tail_m)
    return SemilinearCLF(R=float(R), gamma=float(gamma), omegas=omegas,
                         theta=float(theta), beta=float(beta),
                         epsilon=float(epsilon), zeta=float(zeta))


def select_linear_clf_params(design):
    """Constructive functional parameters for the domination controller.

    Takes the first a of the search grid at which the admissibility margins
    with the head shifted by a all exceed SEARCH_MARGIN.  The epsilon
    appearing in the proof's selection formulas is never defined for this
    controller; it is set to 0, consistent with the admissibility
    conditions, and the choice is recorded on the result.
    """
    lbar, kappa, N = design.lbar, design.kappa, design.N
    grid = _search_grid()
    heads, tail_ms, y_ms = linear_admissibility_margins(
        design.lambdas, design.mus, design.norms_sq, design.g, design.lambda_next,
        design.sigma, lbar, kappa, a=grid)
    ok = (heads > SEARCH_MARGIN) & np.all(y_ms > SEARCH_MARGIN, axis=1) \
        & (tail_ms > SEARCH_MARGIN)
    if not np.any(ok):
        raise NoAdmissibleA(
            "no feasible a found; check the admissibility margins for this lbar/kappa"
        )
    k = int(np.argmax(ok))
    a, head = grid[k], heads[k]
    T = np.sum(design.g ** 2 * ((design.sigma - design.lambdas) ** 2)[None, :], axis=1)
    U = float(design.norms_sq @ T)
    beta = head / (2.0 * N)
    gamma = beta * design.lambda_next / (beta + U)
    R = design.sigma
    omegas = beta * design.mus / T
    theta = min(a / 2.0,
                0.5 * float(np.min(head * design.mus ** 2 / (2.0 * N * T)
                                   - (1.0 + 1.0 / kappa) * lbar ** 2 * design.norms_sq)),
                0.5 * (design.lambda_next ** 2 / (1.0 + 2.0 * N * U / head)
                       - lbar ** 2 * (1.0 + kappa * N)))
    return SemilinearCLF(R=float(R), gamma=float(gamma), omegas=omegas,
                         theta=float(theta), beta=float(beta), epsilon=0.0,
                         a=float(a),
                         epsilon_convention_note="epsilon set to 0 by convention")


def build_semilinear_design(model, shapes, lbar, sigma, controller_kind, kappa=None):
    """Assemble a SemilinearDesign, searching kappa and selecting CLF parameters.

    If no kappa on the grid (or the given kappa) certifies the requested
    controller, the design is returned uncertified (clf=None) so that
    exploratory simulation remains possible.
    """
    g = gain_inverse(model)
    design = SemilinearDesign(
        g=g, sigma=float(sigma), kappa=float("nan"), lbar=float(lbar),
        controller_kind=controller_kind, lambdas=model.lambdas.copy(),
        mus=model.mus.copy(), norms_sq=shapes.norms_sq.copy(),
        lambda_next=model.lambda_next,
    )

    # A first-feasible kappa sits at the edge of the feasible interval and
    # would cascade into near-vacuous functional parameters, so the search
    # maximizes the margin, normalized per inequality, instead.
    grid = kappa_grid() if kappa is None else np.array([float(kappa)])
    if controller_kind == "nonlinear":
        y_m, tail = nonlinear_admissibility_margins(
            design.mus, design.norms_sq, g, design.lambda_next, design.lbar, grid)
        margins = np.minimum(np.min(y_m / design.mus ** 2, axis=-1),
                             tail / design.lambda_next ** 2)
        select_params = select_nonlinear_clf_params
    elif controller_kind == "linear":
        head, tail, y_m = linear_admissibility_margins(
            design.lambdas, design.mus, design.norms_sq, g, design.lambda_next,
            design.sigma, design.lbar, grid)
        margins = np.minimum(np.minimum(head / design.sigma ** 2, tail / design.lambda_next ** 2),
                             np.min(y_m / design.mus ** 2, axis=-1))
        select_params = select_linear_clf_params
    else:
        raise ValueError(f"unknown controller kind {controller_kind!r}")
    k = int(np.argmax(margins))
    if margins[k] <= 0.0:
        return design
    design.kappa = float(grid[k])
    design.clf = select_params(design)
    design.certified = design.clf.theta > 0.0
    return design


def semilinear_loop(eigsys, shapes, design, n):
    """The loop of the first n modes under the design's controller.

    The scalar weight R becomes R I and the decay bound is (theta, 1, 1); an
    uncertified design (no functional parameters) gets unit weights,
    V = (|c|^2 + |y|^2) / 2, and no decay bound.
    """
    N = design.N
    Kmat = np.zeros((N, n))
    Kmat[:, :N] = design.g * (design.sigma - design.lambdas)[None, :]
    clf = design.clf
    if clf is None:
        R, gamma, omegas, decay = np.eye(N), 1.0, np.ones(N), None
    else:
        R, gamma, omegas = clf.R * np.eye(N), clf.gamma, clf.omegas
        decay = (clf.theta, 1.0, np.ones(N))
    return ClosedLoop(eigsys.lambdas[:n], design.mus, coupling_table(shapes, eigsys, n),
                      Kmat, np.zeros(N), R, gamma, omegas,
                      G=design.g if design.controller_kind == "nonlinear" else None,
                      decay=decay)


def nonlinear_coefficients(F, W, Y, shapes, eigsys, n):
    """f_1..f_n = <phi_n, F(u)> at one grid state or per row of (W, Y), u = W + Y varphi."""
    return project(F.evaluate(W + Y @ shapes.varphis), eigsys, n)


def export_controller_coefficients_csv(design, path):
    """Write rows (i, m, g_im, sigma_minus_lambda_m) of the controller table."""
    g, gaps = design.g.tolist(), (design.sigma - design.lambdas).tolist()
    write_csv(path, ["i", "m", "g", "sigma_minus_lambda"],
              ([i + 1, m + 1, g[i][m], gaps[m]]
               for i in range(design.N) for m in range(design.N)))
