"""Shape functions: inhomogeneous boundary-value problems and admissibility checks.

A shape function varphi solves

    (p varphi')' - q varphi + mu r varphi = 0       on [0, 1]

with the homogeneous condition at x=0 and the unit-actuation condition
a1 varphi(1) + a2 varphi'(1) = 1.  Shapes absorb the boundary input into
the domain; their parameters mu must be positive and off the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import MuCollidesWithSpectrum, MuNotPositive
from .spectral import _assemble_pencil, derivative_4th, inner_product, sl_apply

MU_GAP_REL = 1e-6
BVP_RESIDUAL_TOL = 1e-5
BOUNDARY_RESIDUAL_TOL = 1e-6
ORTHOGONALITY_TOL = 1e-8


@dataclass
class ShapeSet:
    """Grid-sampled shape functions with their parameters and squared norms."""

    mus: np.ndarray          # (j,)
    varphis: np.ndarray      # (j, n_points)
    norms_sq: np.ndarray     # (j,)
    grid: "Grid"
    r_samples: np.ndarray

    @property
    def j(self):
        return self.mus.size

    def gram(self):
        wphi = self.varphis * (self.grid.weights * self.r_samples)
        return wphi @ self.varphis.T


@dataclass
class MuVerdict:
    mu: float
    positive: bool
    nearest_mode: int
    margin: float            # gap to the nearest eigenvalue less MU_GAP_REL (1 + |mu|)

    @property
    def off_spectrum(self):
        return self.margin > 0.0

    @property
    def passed(self):
        return self.positive and self.off_spectrum


def validate_mu_set(mus, lambdas):
    """Per-mu admissibility report: positivity and distance to the eigenvalues lambdas."""
    out = []
    for mu in np.atleast_1d(mus):
        gaps = np.abs(lambdas - mu)
        n = int(np.argmin(gaps))
        out.append(MuVerdict(float(mu), mu > 0.0, n + 1,
                             float(gaps[n] - MU_GAP_REL * (1.0 + abs(mu)))))
    return out


def check_mu(mu, eigsys):
    """Validate positivity and spectral separation of one mu."""
    v = validate_mu_set(mu, eigsys.lambdas)[0]
    if not v.positive:
        raise MuNotPositive(f"mu={float(mu)!r} must be > 0")
    if not v.off_spectrum:
        raise MuCollidesWithSpectrum(
            f"mu={float(mu)!r} within tolerance of eigenvalue {v.nearest_mode} "
            f"({float(eigsys.lambdas[v.nearest_mode - 1])!r})"
        )


def solve_shape_bvp(problem, eigsys, mu, grid, ordering="forward"):
    """Solve the shape boundary-value problem for one mu.

    Reuses the finite-volume discretization of the eigensolver as a single
    tridiagonal solve; the x=1 row encodes the inhomogeneous actuation
    condition.  One deferred-correction sweep against the fourth-order
    residual (same factor-free banded solve) lifts the interior residual
    from O(h^2) to well below the 1e-5 contract.

    ordering='reversed' eliminates from the other end (uniqueness probe).
    """
    check_mu(mu, eigsys)
    n = grid.n_points
    h = grid.h
    idx, diag, off, dvol = _assemble_pencil(problem, grid.x)
    band = np.zeros((3, idx.size))
    band[0, 1:] = off
    band[1] = diag - mu * dvol
    band[2, :-1] = off

    p = problem.p(grid.x)
    q = problem.q(grid.x)
    r = problem.r(grid.x)
    ph_last = problem.p(grid.x[-2] + h / 2)

    rhs = np.zeros(idx.size)
    if problem.right_dirichlet:
        rhs[-1] = ph_last / h / problem.a1
    else:
        rhs[-1] = p[-1] / problem.a2

    def banded_solve(b):
        if ordering == "reversed":
            return solve_banded((1, 1), band[::-1, ::-1], b[::-1])[::-1]
        return solve_banded((1, 1), band, b)

    phi = np.zeros(n)
    phi[idx] = banded_solve(rhs)
    if problem.right_dirichlet:
        phi[-1] = 1.0 / problem.a1

    vol = np.full(n, h)
    vol[0] = vol[-1] = h / 2
    res = bvp_residual_function(problem, grid, mu, phi)
    corr = np.zeros(n)
    corr[idx] = banded_solve((res * vol)[idx])
    return phi + corr


def bvp_residual_function(problem, grid, mu, phi):
    """Pointwise residual (p phi')' - q phi + mu r phi via fourth-order stencils."""
    return mu * problem.r(grid.x) * phi - sl_apply(problem, grid, phi)


def shape_residuals(problem, grid, mu, phi):
    """(interior residual r-norm, left BC residual, right BC residual)."""
    r = problem.r(grid.x)
    res = bvp_residual_function(problem, grid, mu, phi)
    sl = slice(4, grid.n_points - 4)
    rnorm = float(np.sqrt(np.sum((grid.weights * r)[sl] * res[sl] ** 2)))
    d0, d1 = derivative_4th(phi, grid.h)[[0, -1]]
    left = abs(problem.b1 * phi[0] + problem.b2 * d0)
    right = abs(problem.a1 * phi[-1] + problem.a2 * d1 - 1.0)
    return rnorm, left, right


def build_shape_set(problem, eigsys, mus, grid):
    """Solve all shape problems and assemble a validated ShapeSet."""
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    r = problem.r(grid.x)
    varphis = np.empty((mus.size, grid.n_points))
    norms = np.empty(mus.size)
    for i, mu in enumerate(mus):
        phi = solve_shape_bvp(problem, eigsys, mu, grid)
        varphis[i] = phi
        norms[i] = inner_product(phi, phi, grid, r)
    return ShapeSet(mus, varphis, norms, grid, r)


def orthogonality_defect(shapes):
    """Largest off-diagonal entry of the shape Gram matrix (0 for j = 1)."""
    if shapes.j < 2:
        return 0.0
    gram = shapes.gram()
    return float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
