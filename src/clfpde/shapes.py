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

from .errors import MuCollidesWithSpectrum, MuNotPositive
from .spectral import (
    RESIDUAL_NODES,
    collocation,
    derivative_4th,
    residual_weights,
    sl_apply,
)

MU_GAP_REL = 1e-6
BVP_RESIDUAL_TOL = 1e-5
BOUNDARY_RESIDUAL_TOL = 1e-6
ORTHOGONALITY_TOL = 1e-8


@dataclass
class ShapeSet:
    """Shape functions with their parameters and squared norms.

    varphis samples them on the eigensystem's grid; nodes and node_values
    are the collocation they were solved on, from which at() evaluates them
    anywhere.
    """

    mus: np.ndarray          # (j,)
    varphis: np.ndarray      # (j, n_points)
    norms_sq: np.ndarray     # (j,)
    nodes: "Collocation"
    node_values: np.ndarray  # (j, n_nodes)

    @property
    def j(self):
        return self.mus.size

    def at(self, x):
        """The shapes at the points x of [0, 1], (j, x.size)."""
        return self.node_values @ self.nodes.interpolation(x).T


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


def _solve_shapes(eigsys, mus):
    """The collocation and the node values of the shapes of all mus, one per row.

    The collocation (spectral.collocation) resolves the modes up to the
    largest mu: a shape oscillates no faster than they do.  (The nodes of
    all eigsys.K modes moved the shapes by 2e-13 relative at most, at
    several times the cost.)  It takes the first-order integral form: on
    each piece u = u(a) + S (w / p) and w = p u' = w(a) + S ((q - mu r) u).
    This system is well conditioned; the differentiated form -D p D + q is
    not, and there a change of BLAS rounding moved the shape by about
    1e-12, which design.txt's 1e-12 rule cannot absorb.  The trivial rows at
    each piece start give way to the homogeneous condition at x=0,
    continuity of u and w at the knots and the actuation condition at x=1;
    one dense solve per mu.
    """
    for mu in mus:
        check_mu(mu, eigsys)
    problem = eigsys.problem
    col = collocation(problem, 1 + int(np.count_nonzero(eigsys.lambdas < max(mus))))
    n = col.x.size
    p = problem.p(col.x)
    starts, ends = col.ends[::2], col.ends[1::2]
    Z = np.eye(n)
    Z[np.arange(n), np.repeat(starts, ends - starts + 1)] -= 1.0    # u - u(a), w - w(a)
    (b1, b2), (a1, a2) = problem.left_bc, problem.right_bc
    rhs = np.zeros(2 * n)
    rhs[n] = 1.0
    nodes = np.empty((len(mus), n))
    for i, mu in enumerate(mus):
        A = np.block([[Z, -col.S / p],
                      [-col.S * (problem.q(col.x) - mu * problem.r(col.x)), Z]])
        A[starts] = A[n + starts] = 0.0
        A[0, [0, n]] = b1, b2 / p[0]
        A[n, [n - 1, 2 * n - 1]] = a1, a2 / p[-1]
        for k in range(1, starts.size):
            A[starts[k], [starts[k], ends[k - 1]]] = 1.0, -1.0
            A[n + starts[k], [n + starts[k], n + ends[k - 1]]] = 1.0, -1.0
        nodes[i] = np.linalg.solve(A, rhs)[:n]
    return col, nodes


def bvp_residual_function(problem, grid, mu, phi):
    """Pointwise residual (p phi')' - q phi + mu r phi via fourth-order stencils."""
    return mu * problem.r(grid.x) * phi - sl_apply(problem, grid, phi)


def shape_residuals(problem, grid, mu, phi):
    """(interior residual r-norm, left BC residual, right BC residual)."""
    res = bvp_residual_function(problem, grid, mu, phi)
    w = residual_weights(problem, grid)
    rnorm = float(np.sqrt(np.sum(w * res[RESIDUAL_NODES] ** 2)))
    d0, d1 = derivative_4th(phi, grid.h)[[0, -1]]
    left = abs(problem.b1 * phi[0] + problem.b2 * d0)
    right = abs(problem.a1 * phi[-1] + problem.a2 * d1 - 1.0)
    return rnorm, left, right


def build_shape_set(eigsys, mus):
    """Solve the shape problems of eigsys's plant for all mus and assemble a validated ShapeSet."""
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    col, nodes = _solve_shapes(eigsys, mus)
    varphis = nodes @ col.interpolation(eigsys.grid.x).T
    # one dot product per shape: a matrix-vector product would round norms_sq differently
    norms = np.array([eigsys.norm_sq(phi) for phi in varphis])
    return ShapeSet(mus, varphis, norms, col, nodes)


def orthogonality_defect(shapes, eigsys):
    """Largest off-diagonal entry of the shape Gram matrix (0 for j = 1)."""
    if shapes.j < 2:
        return 0.0
    gram = eigsys.inner(shapes.varphis, shapes.varphis)
    return float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
