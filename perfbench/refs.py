"""Reference solutions and closed forms, computed apart from clfpde.

Nothing here imports clfpde.  The trajectory references take the design's
public data (eigenvalues, eigenfunction samples, shape functions, kernel
coefficients, gains) and integrate the same modal ODE by other means:
the matrix exponential for the linear loop, a stiff implicit Runge-Kutta
solver for the semilinear one.
"""

import numpy as np
import scipy.linalg as sla
from scipy.integrate import solve_ivp

CHEB_POINTS = 160


def dirichlet_constant_eigenvalues(q, count):
    """lambda_n = n^2 pi^2 + q for u_t = u_xx - q u with Dirichlet ends."""
    n = np.arange(1, count + 1, dtype=float)
    return n ** 2 * np.pi ** 2 + q


def chebyshev_eigenvalues(p, q, r, count, points=CHEB_POINTS):
    """Lowest eigenvalues of -(p u')' + q u = lambda r u, u(0) = u(1) = 0.

    p, q, r are polynomial coefficient lists (c0, c1, ...) in x.  Chebyshev
    collocation on the Gauss-Lobatto points; a separate method from the
    program's finite-volume bisection and Richardson extrapolation.
    """
    k = np.arange(points + 1)
    xi = np.cos(np.pi * k / points)
    c = np.where((k == 0) | (k == points), 2.0, 1.0) * (-1.0) ** k
    diff = xi[:, None] - xi[None, :]
    D = np.outer(c, 1.0 / c) / (diff + np.eye(points + 1))
    D -= np.diag(D.sum(axis=1))
    x = 0.5 * (1.0 + xi)
    Dx = 2.0 * D
    P = np.polynomial.polynomial
    pv, dpv = P.polyval(x, p), P.polyval(x, P.polyder(p))
    op = -pv[:, None] * (Dx @ Dx) - dpv[:, None] * Dx + np.diag(P.polyval(x, q))
    op = op[1:-1, 1:-1] / P.polyval(x, r)[1:-1, None]
    ev = sla.eigvals(op)
    real = np.sort(ev.real[np.abs(ev.imag) <= 1e-8 * np.abs(ev)])
    return real[:count]


def eigenvalue_error(lambdas, reference):
    reference = np.asarray(reference, dtype=float)
    lam = np.asarray(lambdas[: reference.size], dtype=float)
    return float(np.max(np.abs(lam - reference) / np.abs(reference)))


# -- the two-mode semilinear plant of Section 3.3 ---------------------------

def dirichlet_input_matrix(q, mus, N):
    """B[n, i] = -sqrt(2) n pi (-1)^n / (mu_i - lambda_n) for sqrt(2) sin(n pi x) modes."""
    n = np.arange(1, N + 1, dtype=float)
    lam = dirichlet_constant_eigenvalues(q, N)
    num = -np.sqrt(2.0) * n * np.pi * (-1.0) ** n
    return num[:, None] / (np.asarray(mus)[None, :] - lam[:, None])


def growth_bound(mus, norms_sq, g, lambda_next):
    """Closed-form largest growth constant for the cancellation controller."""
    N = len(mus)
    rows = np.sum(np.asarray(g) ** 2, axis=1)
    a = float(np.min(np.asarray(mus) ** 2 / (2.0 * N * np.asarray(norms_sq) * rows)))
    b = float(lambda_next ** 2 / (1.0 + 2.0 * N * float(np.asarray(norms_sq) @ rows)))
    return float(np.sqrt(2.0 * a * b / (a + b + np.sqrt((a - b) ** 2 + 4.0 * N * a * b))))


# -- trajectory references ---------------------------------------------------

def _modal_data(bundle, n):
    eig = bundle.eigsys
    wr = eig.grid.weights * eig.r_samples
    phi_w = eig.phis[:n] * wr
    coupling = phi_w @ bundle.shapes.varphis.T          # <varphi_i, phi_n>, (n, j)
    return eig.lambdas[:n], phi_w, coupling


def initial_state(cfg):
    """(c0, y0): the configured modal amplitudes padded to n_modes."""
    c0 = np.zeros(cfg.sim.n_modes)
    c0[: len(cfg.w0_modes)] = cfg.w0_modes
    return np.concatenate([c0, np.asarray(cfg.y0, dtype=float)])


def linear_reference(bundle, times):
    """Exact samples of z = (c, y), z' = A z, at uniformly spaced times."""
    cfg = bundle.config
    n = cfg.sim.n_modes
    law = bundle.law
    lam, _, T = _modal_data(bundle, n)
    j = T.shape[1]
    Kmat = np.zeros((j, n))
    Kmat[:, : law.M] = law.kernel_coeffs
    A = np.zeros((n + j, n + j))
    A[:n, :n] = -np.diag(lam) - T @ Kmat
    A[:n, n:] = T * law.y_gains[None, :]
    A[n:, :n] = Kmat
    A[n:, n:] = -np.diag(bundle.shapes.mus + law.y_gains)
    step = sla.expm(A * (times[1] - times[0]))
    Z = np.empty((times.size, n + j))
    Z[0] = initial_state(cfg)
    for k in range(1, times.size):
        Z[k] = step @ Z[k - 1]
    return Z


def semilinear_reference(bundle, times, scale):
    """Radau solution of the cancellation-controlled modal ODE with f(s) = scale sin(s)."""
    cfg = bundle.config
    n = cfg.sim.n_modes
    sl = bundle.sl_design
    N = sl.N
    lam, phi_w, T = _modal_data(bundle, n)
    Phi = bundle.eigsys.phis[:n]
    Psi = bundle.shapes.varphis
    G = sl.g * (sl.sigma - sl.lambdas)[None, :]

    def rhs(_, z):
        c, y = z[:n], z[n:]
        f = phi_w @ (scale * np.sin(c @ Phi + y @ Psi))
        v = G @ c[:N] + sl.g @ f[:N]
        return np.concatenate([-lam * c - T @ v + f, -sl.mus * y + v])

    def jac(_, z):
        c, y = z[:n], z[n:]
        d = phi_w * (scale * np.cos(c @ Phi + y @ Psi))
        Jf = np.hstack([d @ Phi.T, d @ Psi.T])
        Jv = sl.g @ Jf[:N]
        Jv[:, :N] += G
        J = np.vstack([Jf - T @ Jv, Jv])
        J[:n, :n] -= np.diag(lam)
        J[n:, n:] -= np.diag(sl.mus)
        return J

    sol = solve_ivp(rhs, (times[0], times[-1]), initial_state(cfg), method="Radau",
                    t_eval=times, rtol=1e-9, atol=1e-12, jac=jac)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y.T


def lyapunov_values(coeffs, ys, R, gamma, omegas):
    """V = 1/2 c_N^T R c_N + gamma/2 (|c|^2 - |c_N|^2) + 1/2 sum omega_i y_i^2."""
    N = R.shape[0]
    cN = coeffs[:, :N]
    quad = np.einsum("ti,ij,tj->t", cN, R, cN)
    tail = np.sum(coeffs ** 2, axis=1) - np.sum(cN ** 2, axis=1)
    return 0.5 * quad + 0.5 * gamma * tail + 0.5 * (ys ** 2) @ omegas
