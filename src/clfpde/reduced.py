"""Reduced modal model, controllability certificate, and stabilizing gain design.

The retained N modes obey the linear time-invariant system

    z' = C z + sum_i B_i v_i,   C = -diag(lambda_1..lambda_N),
    B[n, i] = -<varphi_i, phi_n>.

Gains (K, R, sigma) must satisfy the matrix inequality

    R (C + sum_i B_i K_i^T) + (C + sum_i B_i K_i^T)^T R <= -2 sigma I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CutoffNotStrictlyStable,
    LyapunovIndefinite,
    MuCollidesWithSpectrum,
    PlacementFailed,
    SingularB,
)
from .shapes import validate_mu_set

B_ENTRY_MIN = 1e-10
GAIN_INVERSE_TOL = 1e-10       # floor of |det B| and bound on max |gB + I| for g = -B^-1
RANK_REL_TOL = 1e-10
GAIN_INEQUALITY_TOL = 1e-9


@dataclass
class ReducedModel:
    """Finite-dimensional model of the first N modes with j boundary inputs."""

    lambdas: np.ndarray    # (N,)
    B: np.ndarray          # (N, j)
    mus: np.ndarray        # (j,)
    lambda_next: float     # lambda_{N+1}

    @property
    def N(self):
        return self.lambdas.size

    @property
    def j(self):
        return self.B.shape[1]

    @property
    def C(self):
        return -np.diag(self.lambdas)


def build_reduced_model(eigsys, shapes, N):
    """Quadrature input matrix B[n, i] = -<varphi_i, phi_n> and C = -diag(lambda)."""
    if N >= eigsys.K:
        raise CutoffNotStrictlyStable(f"need lambda_{N + 1} computed; K={eigsys.K}")
    lambda_next = float(eigsys.lambdas[N])
    if lambda_next <= 0.0:
        raise CutoffNotStrictlyStable(
            f"lambda_{N + 1} = {lambda_next!r} <= 0; pick a larger cutoff"
        )
    B = -eigsys.inner(eigsys.phis[:N], shapes.varphis)
    return ReducedModel(eigsys.lambdas[:N].copy(), B, shapes.mus.copy(), lambda_next)


def input_vector_closed_form(problem, eigsys, mu, N):
    """Boundary-data form of the input column: p(1)(a2 phi_n(1) - a1 phi_n'(1)) / (mu - lambda_n).

    Independent of the quadrature route; uses the eigensolver's end
    derivatives.
    """
    if not validate_mu_set(mu, eigsys.lambdas[:N])[0].off_spectrum:
        raise MuCollidesWithSpectrum(f"mu={float(mu)!r} too close to an eigenvalue")
    p1 = float(problem.p(np.array([1.0]))[0])
    num = problem.a2 * eigsys.phis[:N, -1] - problem.a1 * eigsys.dphi1[:N]
    return p1 * num / (mu - eigsys.lambdas[:N])


def closed_form_B(problem, eigsys, mus, N):
    """Full closed-form input matrix (columns over the mu values)."""
    cols = [input_vector_closed_form(problem, eigsys, mu, N) for mu in np.atleast_1d(mus)]
    return np.column_stack(cols)


def gain_inverse_error(B, g):
    """max |g B + I|, the distance of g from -B^-1."""
    return float(np.max(np.abs(g @ B + np.eye(B.shape[0]))))


def gain_inverse(model):
    """g = -B^-1 behind the invertibility guard; g B = -I within GAIN_INVERSE_TOL."""
    if model.j != model.N:
        raise SingularB(f"need a square input matrix, got {model.N}x{model.j}")
    det = np.linalg.det(model.B)
    if abs(det) <= GAIN_INVERSE_TOL:
        raise SingularB(f"|det B| = {abs(det):.3e} too small")
    g = -np.linalg.inv(model.B)
    err = gain_inverse_error(model.B, g)
    if err > GAIN_INVERSE_TOL:
        raise SingularB(f"inverse verification failed: max |gB + I| = {err:.3e}")
    return g


@dataclass
class ControllabilityReport:
    rank: int
    N: int
    passed: bool
    singular_values: np.ndarray
    entries_nonzero: bool       # all B[n, 1] bounded away from zero
    lambdas_distinct: bool

    @property
    def structural_certificate(self):
        # diagonal-times-Vandermonde factorization: nonzero first column plus
        # distinct eigenvalues forces full rank
        return self.entries_nonzero and self.lambdas_distinct


def check_controllability(model):
    """Kalman rank test on the single-input pair (C, B_1), plus the structural certificate.

    Columns of the Kalman matrix are normalized before the SVD so the rank
    decision is invariant to the eigenvalue scale.
    """
    N = model.N
    b = model.B[:, 0]
    Q = _kalman_matrix(model.C, b)
    scale = np.linalg.norm(Q, axis=0)
    sv = np.linalg.svd(Q / np.where(scale > 0.0, scale, 1.0), compute_uv=False)
    rank = int(np.sum(sv > RANK_REL_TOL * sv[0])) if sv[0] > 0 else 0
    entries_ok = bool(np.all(np.abs(b) > B_ENTRY_MIN))
    distinct = bool(np.all(np.diff(model.lambdas) > 0.0))
    return ControllabilityReport(rank, N, rank == N, sv, entries_ok, distinct)


@dataclass
class GainDesign:
    """Stabilizing gains with the certifying quadratic form.

    K rows are the per-input gain vectors; R is symmetric positive definite;
    sigma is the decay margin of the matrix inequality; c1, c2 the extreme
    eigenvalues of R (coercivity constants of the modal quadratic form).
    """

    K: np.ndarray          # (j, N)
    R: np.ndarray          # (N, N)
    sigma: float
    c1: float
    c2: float
    mode: str              # 'closed_form' | 'pole_placement'

    @property
    def gain_norms_sq(self):
        return np.sum(self.K ** 2, axis=1)


def closed_loop_matrix(model, K):
    """C + sum_i B_i K_i^T for stacked gain rows K (j, N)."""
    return model.C + model.B @ K


def gain_inequality_residual(model, K, R, sigma):
    """max eigenvalue of R A_cl + A_cl^T R + 2 sigma I (must be <= ~0)."""
    A = closed_loop_matrix(model, K)
    S = R @ A + A.T @ R + 2.0 * sigma * np.eye(model.N)
    return float(np.max(np.linalg.eigvalsh(0.5 * (S + S.T))))


def _kalman_matrix(C, b):
    """[b, C b, ..., C^(N-1) b] of the single-input pair (C, b)."""
    cols = [b.copy()]
    for _ in range(b.size - 1):
        cols.append(C @ cols[-1])
    return np.column_stack(cols)


def _ackermann(C, b, poles):
    """Single-input pole placement (handles repeated target poles)."""
    N = b.size
    Q = _kalman_matrix(C, b)
    chi = np.real(np.poly(poles))            # desired characteristic polynomial
    acc = np.zeros((N, N))
    P = np.eye(N)
    for c in chi[::-1]:
        acc += c * P
        P = P @ C
    eN = np.zeros(N)
    eN[-1] = 1.0
    k = np.linalg.solve(Q.T, eN) @ acc       # k with eig(C - b k^T) = poles
    return -k                                # gain row for C + b K^T convention


def _solve_lyapunov(A, rhs):
    """Dense Kronecker solve of R A + A^T R = rhs (small N)."""
    N = A.shape[0]
    op = np.kron(np.eye(N), A.T) + np.kron(A.T, np.eye(N))
    R = np.linalg.solve(op, rhs.flatten()).reshape(N, N)
    return 0.5 * (R + R.T)


def design_gains(model, sigma_targets, mode="closed_form"):
    """Design (K, R, sigma) satisfying the gain matrix inequality.

    closed_form (requires j == N, invertible B): K = -B^-1 diag(sigma_i - lambda_i),
    R = I, sigma = min sigma_i.  pole_placement: places the single-input pair
    (C, B_1) at -sigma_i, remaining inputs get zero gain, R solves the Lyapunov
    equation with right-hand side -2 sigma I.  Both are verified post hoc.
    """
    sigmas = np.atleast_1d(np.asarray(sigma_targets, dtype=float))
    if sigmas.size == 1:
        sigmas = np.full(model.N, sigmas[0])
    if sigmas.size != model.N:
        raise ValueError(f"need {model.N} sigma targets, got {sigmas.size}")
    if np.any(sigmas <= 0.0):
        raise ValueError("sigma targets must be positive")
    sigma = float(np.min(sigmas))

    if mode == "closed_form":
        K = gain_inverse(model) * (sigmas - model.lambdas)[None, :]
        R = np.eye(model.N)
    elif mode == "pole_placement":
        report = check_controllability(model)
        if not report.passed:
            raise PlacementFailed(f"Kalman rank {report.rank} < N = {model.N}")
        k1 = _ackermann(model.C, model.B[:, 0], -sigmas)
        K = np.zeros((model.j, model.N))
        K[0] = k1
        A = closed_loop_matrix(model, K)
        got = np.sort(np.linalg.eigvals(A).real)
        want = np.sort(-sigmas)
        if np.max(np.abs(got - want)) > 1e-6 * (1.0 + np.max(np.abs(want))):
            raise PlacementFailed(f"achieved poles {got} != targets {want}")
        R = _solve_lyapunov(A, -2.0 * sigma * np.eye(model.N))
    else:
        raise ValueError(f"unknown gain mode {mode!r}")

    ev = np.linalg.eigvalsh(R)
    residual = gain_inequality_residual(model, K, R, sigma)
    if ev[0] <= 0.0 or residual > GAIN_INEQUALITY_TOL:
        raise LyapunovIndefinite(
            f"gain verification failed: min eig R = {ev[0]:.3e}, "
            f"inequality residual = {residual:.3e}"
        )
    return GainDesign(K, R, sigma, float(ev[0]), float(ev[-1]), mode)
