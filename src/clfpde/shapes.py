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
from .spectral import _assemble_pencil, derivative_4th, endpoint_derivatives, inner_product

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
    nearest_lambda: float
    gap: float
    off_spectrum: bool

    @property
    def passed(self):
        return self.positive and self.off_spectrum


def validate_mu_set(mus, eigsys):
    """Per-mu admissibility report (positivity and distance to the spectrum)."""
    out = []
    for mu in np.atleast_1d(mus):
        gaps = np.abs(eigsys.lambdas - mu)
        n = int(np.argmin(gaps))
        out.append(MuVerdict(
            mu=float(mu),
            positive=mu > 0.0,
            nearest_mode=n + 1,
            nearest_lambda=float(eigsys.lambdas[n]),
            gap=float(gaps[n]),
            off_spectrum=gaps[n] > MU_GAP_REL * (1.0 + abs(mu)),
        ))
    return out


def check_mu(mu, eigsys):
    """Validate positivity and spectral separation of one mu."""
    v = validate_mu_set(mu, eigsys)[0]
    if not v.positive:
        raise MuNotPositive(f"mu={mu!r} must be > 0")
    if not v.off_spectrum:
        raise MuCollidesWithSpectrum(
            f"mu={mu!r} within tolerance of eigenvalue {v.nearest_mode} "
            f"({eigsys.lambdas[v.nearest_mode - 1]!r})"
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
    p = problem.p(grid.x)
    q = problem.q(grid.x)
    r = problem.r(grid.x)
    d = derivative_4th(phi, grid.h)
    return derivative_4th(p * d, grid.h) - q * phi + mu * r * phi


def shape_residuals(problem, grid, mu, phi):
    """(interior residual r-norm, left BC residual, right BC residual)."""
    r = problem.r(grid.x)
    res = bvp_residual_function(problem, grid, mu, phi)
    sl = slice(4, grid.n_points - 4)
    rnorm = float(np.sqrt(np.sum((grid.weights * r)[sl] * res[sl] ** 2)))
    d0, d1 = endpoint_derivatives(phi, grid.h)
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


@dataclass
class OrthogonalityReport:
    passed: bool
    gram: np.ndarray
    max_offdiag: float


def check_orthogonality(shapes):
    """Mutual-orthogonality test on the shape set (vacuous for j=1)."""
    gram = shapes.gram()
    if shapes.j < 2:
        return OrthogonalityReport(True, gram, 0.0)
    off = gram - np.diag(np.diag(gram))
    max_off = float(np.max(np.abs(off)))
    return OrthogonalityReport(max_off <= ORTHOGONALITY_TOL, gram, max_off)

