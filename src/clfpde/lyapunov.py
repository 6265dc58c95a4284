"""Control Lyapunov functional assembly, the boundary feedback law and the closed loop.

The functional is

    V(w, y) = 1/2 <Gw, w> + gamma/2 ||w - Pw||^2 + 1/2 sum_i omega_i y_i^2

where G weighs the first N modal coefficients by the gain certificate R and
P projects onto those modes.  Evaluation uses the single-integral form

    V = 1/2 c^T R c + gamma/2 (||w||^2 - |c|^2) + 1/2 sum omega_i y_i^2,

c_n = <phi_n, w>.  The feedback is v_i = <k_i, w> - omega_i L_i y_i with
grid kernels k_i spanning modes up to the truncation index M.

ClosedLoop is the one modal form of a designed loop: its operator A, its
control map, V, dV/dt, the certified decay bound that dV/dt must stay below
and, for a linear loop, the exact form that decides that bound on the PDE.
The simulator and the certifier read it; linear_loop builds it for this
feedback law (or the open loop), semilinear.semilinear_loop for the
cancellation and domination controllers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KernelTruncationExceedsModes, RemainderTooLarge, TailBoundFailed
from .spectral import project

REMAINDER_ENERGY_REL = 1e-6


@dataclass
class CLFParams:
    """Weights of the functional plus the kernel truncation index."""

    omegas: np.ndarray     # (j,)
    gamma: float
    sigma: float
    M: int
    Ls: np.ndarray         # (j,)

    @property
    def j(self):
        return self.omegas.size


@dataclass
class FeedbackLaw:
    """Grid kernels and their modal representation, plus the y feedback gains."""

    kernels: np.ndarray          # (j, n_points)
    kernel_coeffs: np.ndarray    # (j, M): coefficient of phi_n in k_i
    y_gains: np.ndarray          # (j,) = omega_i * L_i
    mus: np.ndarray              # (j,) input-transformation parameters
    M: int
    N: int


@dataclass
class ClosedLoop:
    """Modal closed loop z = (c_1..c_n, y) and the weights of its functional.

        c' = -Lambda c - T v + f,   y' = -mu y + v,
        v  = Kmat c - y_gains y  (+ G f_N under the cancellation controller),

    with T the coupling table <varphi_i, phi_n> and f the nonlinearity
    coefficients <phi_n, F(u)> (zero for a linear plant).  decay = (s, a, b)
    is the certified bound dV/dt <= -s (a ||w||^2 + sum_i b_i y_i^2), None
    for the open loop and an uncertified design.
    """

    lambdas: np.ndarray          # (n,)
    mus: np.ndarray              # (j,)
    T: np.ndarray                # (n, j)
    Kmat: np.ndarray             # (j, n)
    y_gains: np.ndarray          # (j,)
    R: np.ndarray                # (N, N) weight of the retained modes
    gamma: float
    omegas: np.ndarray           # (j,)
    G: np.ndarray | None = None  # (j, N) gain on f_1..f_N, cancellation only
    decay: tuple | None = None   # (s, a, b (j,)) of the certified decay bound

    @property
    def N(self):
        return self.R.shape[0]

    @property
    def Kv(self):
        """[Kmat, -diag(y_gains)]: v = Kv z for z = (c, y), f = 0."""
        return np.hstack([self.Kmat, -np.diag(self.y_gains)])

    def matrix(self):
        """A of the linear loop z' = A z (f = 0): diag(-lambda, -mu) + [-T; I] Kv."""
        return np.diag(-np.concatenate([self.lambdas, self.mus])) \
            + np.vstack([-self.T, np.eye(self.mus.size)]) @ self.Kv

    def controls(self, c, y, f=None):
        """v at one state or per row of (c, y); f enters only under the cancellation gain."""
        v = c @ self.Kmat.T - y * self.y_gains
        if f is not None and self.G is not None:
            v = v + f[..., :self.N] @ self.G.T
        return v

    def value(self, C, Y, norm_sq=None):
        """V at one state or per row of (C, Y); norm_sq is ||w||^2, |C|^2 when omitted."""
        CN = C[..., :self.N]
        head_sq = np.sum(CN * CN, axis=-1)
        if norm_sq is None:
            norm_sq = np.sum(C * C, axis=-1)
        quad = np.sum((CN @ self.R.T) * CN, axis=-1)
        return per_row(0.5 * quad + 0.5 * self.gamma * (norm_sq - head_sq)
                       + 0.5 * ((Y * Y) @ self.omegas))

    def rate(self, c, y, v, f=0.0):
        """dV/dt at one state or per row of (c, y) under controls v, c over all n modes."""
        N = self.N
        wdot = -self.lambdas * c - v @ self.T.T + f
        return per_row(np.sum((c[..., :N] @ self.R.T) * wdot[..., :N], axis=-1)
                        + self.gamma * np.sum(c[..., N:] * wdot[..., N:], axis=-1)
                        + (y * v) @ self.omegas
                        - (y * y) @ (self.mus * self.omegas))

    def bound(self, norm_sq, y):
        """The certified bound on dV/dt at one state or per row of (||w||^2, y)."""
        if self.decay is None:
            raise ValueError("no certified decay bound: open loop or uncertified design")
        s, a, b = self.decay
        return per_row(-s * (a * norm_sq + (y * y) @ b))

    def dissipation(self, shape_norms_sq, slack=0.0):
        """Margin of dV/dt <= (1 - slack) bound on the PDE, for the linear loop (f = 0).

        dV/dt - (1 - slack) bound = z^T D z, D = sym(W A) + (1 - slack) s diag(a I, b),
        W = diag(R, gamma I, omega).  Past the head (the modes Kv reads, at least N,
        plus y) D is diagonal, -(gamma lambda_n - s a), coupled to the head by
        -gamma/2 T_n Kv; by Parseval the uncomputed modes add at most gamma^2 |tau|^2
        Kv^T Kv / (4 (gamma lambda_n - s a)), tau_i^2 = ||varphi_i||^2 - sum_m T_{m,i}^2.
        Margin: -lambda_max of the head's Schur complement (the least tail entry if <= 0).
        """
        (s, a, b), (n, j) = self.decay, self.T.shape
        s = (1.0 - slack) * s
        h = max([self.N, *(np.flatnonzero(self.Kmat.any(axis=0)) + 1)])    # the head
        tail = self.gamma * self.lambdas[h:] - s * a
        beyond = self.gamma * self.lambdas[-1] - s * a
        least = min(beyond, float(np.min(tail, initial=np.inf)))
        if least <= 0.0:
            return float(least)
        tau_sq = float(np.sum(np.maximum(0.0, shape_norms_sq - np.sum(self.T * self.T, axis=0))))
        coupling = (self.T[h:] / tail[:, None]).T @ self.T[h:] + (tau_sq / beyond) * np.eye(j)
        head = np.r_[:h, n:n + j]
        Kv, A = self.Kv[:, head], self.matrix()[np.ix_(head, head)]
        w = np.concatenate([np.full(h - self.N, self.gamma), self.omegas])
        WA = np.vstack([self.R @ A[:self.N], w[:, None] * A[self.N:]])
        S = 0.5 * (WA + WA.T) + np.diag(s * np.concatenate([np.full(h, a), b])) \
            + (0.25 * self.gamma ** 2) * (Kv.T @ coupling @ Kv)
        return float(-np.linalg.eigvalsh(S)[-1])


def per_row(x):
    """A per-row result: an array for rows, a float for one state."""
    return float(x) if np.ndim(x) == 0 else x


def linear_loop(eigsys, shapes, design, params, law, n):
    """The loop of the first n modes under the feedback law.

    law=None is the open loop (v = 0) with unit weights, V = (|c|^2 + |y|^2) / 2,
    and no decay bound; the law's is (1/2, min(gamma lambda_{N+1}, sigma), omega mu).
    """
    j = shapes.j
    Kmat = np.zeros((j, n))
    if law is None:
        y_gains, R, gamma, omegas, decay = np.zeros(j), np.eye(1), 1.0, np.ones(j), None
    else:
        Kmat[:, :law.M] = law.kernel_coeffs
        y_gains, R, gamma, omegas = law.y_gains, design.R, params.gamma, params.omegas
        decay = law_decay(params, design, shapes, eigsys)
    return ClosedLoop(eigsys.lambdas[:n], shapes.mus, coupling_table(shapes, eigsys, n),
                      Kmat, y_gains, R, gamma, omegas, decay=decay)


def law_decay(params, design, shapes, eigsys):
    """(s, a, b) of the law's decay bound: (1/2, min(gamma lambda_{N+1}, sigma), omega mu)."""
    a = min(params.gamma * eigsys.lambdas[design.R.shape[0]], params.sigma)
    return 0.5, a, params.omegas * shapes.mus


def modal_state(w, eigsys, n, rel=REMAINDER_ENERGY_REL):
    """(c_1..c_n, ||w||^2) of a grid state or per row of states.

    RemainderTooLarge when the energy outside the first n modes exceeds rel
    of the total in any row.
    """
    c = project(w, eigsys, n)
    norm_sq = per_row(eigsys.norm_sq(w))
    total = np.atleast_1d(norm_sq)
    rem_sq = total - np.atleast_1d(np.sum(c * c, axis=-1))
    bad = np.flatnonzero((total > 0.0) & (rem_sq > rel * total))
    if bad.size:
        k = bad[0]
        row = f" in row {k}" if np.ndim(norm_sq) else ""
        raise RemainderTooLarge(
            f"remainder energy {rem_sq[k]:.3e} exceeds {rel:g} of total {total[k]:.3e}{row}"
        )
    return c, norm_sq


def coupling_table(shapes, eigsys, n_max):
    """<varphi_i, phi_n> for n = 1..n_max; shape (n_max, j)."""
    return eigsys.inner(eigsys.phis[:n_max], shapes.varphis)


def truncation_margin(coupling, M, N, gamma, Ls, lambdas):
    """Margin of the kernel-truncation inequality at truncation index M.

    4 (lambda_{M+1} - lambda_{N+1}) - gamma sum_i L_i T_i(M), with T_i(M) an
    upper bound on sum_{n > M} <phi_n, varphi_i>^2: the computed coefficients
    cover n <= K = lambdas.size, and the residue beyond K is bounded by
    alpha^2 / K using the O(1/n) coefficient decay, with alpha estimated
    from the last computed quarter.
    """
    K = lambdas.size
    tail_sq = np.sum(coupling[M:K] ** 2, axis=0)
    lo = max(1, 3 * K // 4)
    ns = np.arange(lo + 1, K + 1)
    alpha = np.max(np.abs(coupling[lo:K]) * ns[:, None], axis=0)
    tails = tail_sq + alpha ** 2 / K
    return float(4.0 * (lambdas[M] - lambdas[N]) - gamma * float(np.sum(Ls * tails)))


def weight_inequality_margins(params, design, shapes, eigsys, coupling=None):
    """Margins of the three admissibility inequalities for (omega, gamma, M).

    Returns (per-input margins sigma mu_i - 2 j omega_i |K_i|^2,
             tail margin sigma lambda_{N+1} - 2 j gamma sum ||varphi_i||^2 |K_i|^2,
             truncation margin of truncation_margin).
    """
    j = params.j
    N = design.K.shape[1]
    ksq = design.gain_norms_sq
    y_margins = params.sigma * shapes.mus - 2.0 * j * params.omegas * ksq
    tail_margin = params.sigma * eigsys.lambdas[N] - \
        2.0 * j * params.gamma * float(np.sum(shapes.norms_sq * ksq))
    if coupling is None:
        coupling = coupling_table(shapes, eigsys, eigsys.K)
    trunc_margin = truncation_margin(coupling, params.M, N, params.gamma, params.Ls,
                                     eigsys.lambdas)
    return y_margins, float(tail_margin), trunc_margin


def select_clf_params(design, shapes, eigsys, Ls, safety, m_max):
    """Saturate the weight inequalities with a safety factor and search for M.

    omega_i = sigma mu_i / (2 safety j |K_i|^2)  (or sigma mu_i when the gain
    vanishes, where the inequality is vacuous); gamma analogously from the
    tail inequality; M is the smallest index >= N+1 whose truncation margin
    is nonnegative, using a certified upper bound for the infinite tail.
    """
    Ls = np.atleast_1d(np.asarray(Ls, dtype=float))
    if np.any(Ls < 0.0):
        raise ValueError("controller parameters L_i must be >= 0")
    j = shapes.j
    N = design.K.shape[1]
    sigma = design.sigma
    ksq = design.gain_norms_sq
    omegas = np.where(
        ksq > 0.0,
        sigma * shapes.mus / (2.0 * safety * j * np.maximum(ksq, 1e-300)),
        sigma * shapes.mus,
    )
    denom = 2.0 * safety * j * float(np.sum(shapes.norms_sq * ksq))
    gamma = sigma * eigsys.lambdas[N] / denom if denom > 0.0 else 1.0

    coupling = coupling_table(shapes, eigsys, eigsys.K)
    m_cap = min(m_max, eigsys.K - 1)
    for M in range(N + 1, m_cap + 1):
        if truncation_margin(coupling, M, N, gamma, Ls, eigsys.lambdas) >= 0.0:
            return CLFParams(omegas, float(gamma), float(sigma), M, Ls)
    raise TailBoundFailed(f"no admissible truncation index M <= {m_cap}")


def coercivity_constants(params, design):
    """(c_lo, c_hi) with c_lo/2 (||w||^2+|y|^2) <= V <= c_hi/2 (...)."""
    lo = min(design.c1, params.gamma, float(np.min(params.omegas)))
    hi = max(design.c2, params.gamma, float(np.max(params.omegas)))
    return lo, hi


def build_feedback_law(design, params, shapes, eigsys):
    """Assemble the grid kernels k_i and their modal coefficients.

    For n <= N the coefficient is K_i,n + L_i (R . <phi_m, varphi_i>)_n;
    modes N+1..M carry gamma L_i <phi_n, varphi_i>.  With all L_i = 0 this
    reduces to the pure reduced-model feedback.
    """
    if params.M > eigsys.K:
        raise KernelTruncationExceedsModes(f"M={params.M} exceeds computed modes {eigsys.K}")
    N = design.K.shape[1]
    j = shapes.j
    coupling = coupling_table(shapes, eigsys, params.M)    # (M, j)
    coeffs = np.zeros((j, params.M))
    coeffs[:, :N] = design.K + params.Ls[:, None] * (design.R @ coupling[:N]).T
    coeffs[:, N:] = params.gamma * params.Ls[:, None] * coupling[N:params.M].T
    kernels = coeffs @ eigsys.phis[:params.M]
    return FeedbackLaw(kernels, coeffs, params.omegas * params.Ls,
                       shapes.mus.copy(), params.M, N)


def guaranteed_decay_rate(params, design, shapes, eigsys):
    """Conservative exponential rate implied by the law's decay bound and coercivity."""
    s, a, b = law_decay(params, design, shapes, eigsys)
    _, hi = coercivity_constants(params, design)
    return s * min(float(np.min(b)), a) / hi

