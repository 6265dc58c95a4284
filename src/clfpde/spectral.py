"""Sturm-Liouville operator: discretization, eigensystem, inner products, projections.

The operator is the weighted self-adjoint form

    (A f)(x) = (-(p f')' + q f) / r       on (0, 1)

with separated boundary conditions b1 f(0) + b2 f'(0) = 0 and
a1 f(1) + a2 f'(1) = 0, where (a1, a2) and (b1, b2) are unit vectors.
Eigenfunctions are orthonormal in the r-weighted L2 inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .errors import (
    ConfigError,
    CutoffExceedsComputedModes,
    DimensionMismatch,
    GridTooCoarse,
    NonPositiveCoefficient,
)

NORMALIZATION_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-8
BOUNDARY_RESIDUAL_TOL = 1e-6
OPERATOR_RESIDUAL_TOL = 1e-5
# below this, a derivative boundary coefficient is numerically Dirichlet:
# the implied Robin layer is orders of magnitude thinner than any grid
DIRICHLET_SNAP = 1e-9


@dataclass(frozen=True)
class Coefficient:
    """Scalar coefficient function on [0, 1]: constant, polynomial, or table."""

    kind: str                      # 'constant' | 'polynomial' | 'table'
    values: tuple = ()             # constant: (c,); polynomial: (c0, c1, ...)
    table_x: tuple = ()
    table_y: tuple = ()
    order: int = 3                 # interpolation order for tables (1 or 3)

    @staticmethod
    def constant(c):
        return Coefficient("constant", (float(c),))

    @staticmethod
    def polynomial(coeffs):
        return Coefficient("polynomial", tuple(float(c) for c in coeffs))

    @staticmethod
    def table(x, y, order=3):
        if order not in (1, 3):
            raise ValueError("table interpolation order must be 1 or 3")
        return Coefficient("table", (), tuple(map(float, x)), tuple(map(float, y)), order)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.values[0])
        if self.kind == "polynomial":
            # values are (c0, c1, ...) so c0 + c1 x + ...
            return np.polynomial.polynomial.polyval(x, self.values)
        if self.order == 1:
            return np.interp(x, self.table_x, self.table_y)
        # imported here: scipy.interpolate is slow to import and only order-3 tables use it
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.table_x, self.table_y)(x)

    @property
    def is_constant(self):
        if self.kind == "constant":
            return True
        return self.kind == "polynomial" and len(self.values) == 1


@dataclass(frozen=True)
class SLProblem:
    """Plant definition: coefficients and boundary constants."""

    p: Coefficient
    q: Coefficient
    r: Coefficient
    b1: float
    b2: float
    a1: float
    a2: float

    def __post_init__(self):
        for name, c1, c2 in (("(a1, a2)", self.a1, self.a2), ("(b1, b2)", self.b1, self.b2)):
            if abs(c1 * c1 + c2 * c2 - 1.0) > NORMALIZATION_TOL:
                raise ValueError(f"boundary constants {name} must be a unit vector")

    @property
    def left_dirichlet(self):
        return abs(self.b2) <= DIRICHLET_SNAP

    @property
    def right_dirichlet(self):
        return abs(self.a2) <= DIRICHLET_SNAP

    @property
    def constant_coefficients(self):
        return all(c.is_constant for c in (self.p, self.q, self.r))

    def validate_on_grid(self, grid):
        samples = {name: getattr(self, name)(grid.x) for name in "pqr"}
        for name, f in samples.items():
            if not np.all(np.isfinite(f)):
                raise ConfigError(
                    f"{name}(x) is not finite at x={grid.x[np.argmin(np.isfinite(f))]:.6g}")
        for name in "pr":
            if np.min(samples[name]) <= 0.0:
                raise NonPositiveCoefficient(
                    f"{name}(x) <= 0 at x={grid.x[np.argmin(samples[name])]:.6g}")


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, 1] with composite-Simpson quadrature weights."""

    n_points: int
    x: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def h(self):
        return 1.0 / (self.n_points - 1)


def make_grid(n_points=2049):
    if n_points < 129 or n_points % 2 == 0:
        raise ValueError("n_points must be odd and >= 129")
    x = np.linspace(0.0, 1.0, n_points)
    h = 1.0 / (n_points - 1)
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return Grid(n_points, x, w * (h / 3.0))


def inner_product(f, g, grid, r=None):
    """Composite-Simpson approximation of the r-weighted inner product."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape[-1] != grid.n_points or g.shape[-1] != grid.n_points:
        raise DimensionMismatch(
            f"grid functions must have {grid.n_points} samples, "
            f"got {f.shape[-1]} and {g.shape[-1]}"
        )
    w = grid.weights if r is None else grid.weights * np.asarray(r, dtype=float)
    return (f * g) @ w


@dataclass
class EigenSystem:
    """Computed eigenvalues and grid-sampled orthonormal eigenfunctions.

    phis[n] is the n-th eigenfunction sampled on grid.x, normalized to unit
    r-weighted norm, with sign fixed by phi'(0) > 0 for a Dirichlet left end
    and phi(0) > 0 otherwise.  dphi0/dphi1 hold the one-sided fourth-order
    endpoint derivatives (the end rows of derivative_4th).
    """

    problem: SLProblem
    grid: Grid
    lambdas: np.ndarray            # (K,)
    phis: np.ndarray               # (K, n_points)
    dphi0: np.ndarray              # (K,)
    dphi1: np.ndarray              # (K,)
    r_samples: np.ndarray          # (n_points,)

    @classmethod
    def from_samples(cls, problem, grid, lambdas, phis):
        """The eigensystem of signed, normalized (K, n_points) samples phis."""
        dphi0 = derivative_4th(phis.T[:5], grid.h)[0]      # the end rows of derivative_4th
        dphi1 = derivative_4th(phis.T[-5:], grid.h)[-1]
        return cls(problem, grid, lambdas, phis, dphi0, dphi1, problem.r(grid.x))

    @property
    def K(self):
        return self.lambdas.size

    def inner(self, f, g):
        return inner_product(f, g, self.grid, self.r_samples)

    def norm_sq(self, f):
        return self.inner(f, f)

    def gram(self, n=None):
        """Quadrature Gram matrix of the first n eigenfunctions (all by default)."""
        phis = self.phis[:n]
        return (phis * (self.grid.weights * self.r_samples)) @ phis.T

    @cached_property
    def contracts(self):
        """eigen_contracts(self), evaluated once: the eigensolve guard and certify share it."""
        return eigen_contracts(self)


# -- finite-volume discretization -------------------------------------------

def _assemble_pencil(problem, x):
    """Symmetric tridiagonal pencil (M, D) of the self-adjoint discretization.

    Each row integrates -(p f')' + q f = lam r f over the node's control
    volume; Robin/Neumann ends use the boundary flux directly (half cells),
    Dirichlet ends are eliminated.  Returns active indices, the tridiagonal
    of M, and the diagonal of D.
    """
    n = x.size
    h = x[1] - x[0]
    p = problem.p(x)
    q = problem.q(x)
    r = problem.r(x)
    ph = problem.p(x[:-1] + h / 2)

    i0 = 1 if problem.left_dirichlet else 0
    i1 = n - 2 if problem.right_dirichlet else n - 1
    idx = np.arange(i0, i1 + 1)
    m = idx.size

    diag = np.empty(m)
    vol = np.full(m, h)
    inner = (idx > 0) & (idx < n - 1)
    ii = idx[inner]
    diag[inner] = (ph[ii - 1] + ph[ii]) / h + q[ii] * h
    if not problem.left_dirichlet:
        diag[0] = ph[0] / h - p[0] * (problem.b1 / problem.b2) + q[0] * h / 2
        vol[0] = h / 2
    if not problem.right_dirichlet:
        diag[-1] = ph[-1] / h + p[-1] * (problem.a1 / problem.a2) + q[-1] * h / 2
        vol[-1] = h / 2
    off = -ph[idx[:-1]] / h
    dvol = r[idx] * vol
    return idx, diag, off, dvol


def _tridiagonal_eigs(problem, x, K, vectors=True):
    """Lowest K eigenpairs of the pencil by bisection + inverse iteration.

    vectors=False returns the eigenvalues alone and skips inverse iteration.
    """
    idx, diag, off, dvol = _assemble_pencil(problem, x)
    if K > idx.size:
        raise GridTooCoarse(f"grid supports at most {idx.size} modes, requested {K}")
    s = np.sqrt(dvol)
    out = eigh_tridiagonal(diag / dvol, off / (s[:-1] * s[1:]), eigvals_only=not vectors,
                           select="i", select_range=(0, K - 1))
    if not vectors:
        return out
    lam, psi = out
    phi = np.zeros((x.size, K))
    phi[idx] = psi / s[:, None]
    return lam, phi


# -- fourth-order evaluation machinery ---------------------------------------

_FWD0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_FWD1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def derivative_4th(f, h):
    """Fourth-order first derivative on a uniform grid, one-sided at the ends.

    f may be (n,) or (n, K); the derivative acts along the first axis.
    """
    g = np.zeros_like(f)
    g[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    for row, st in ((0, _FWD0), (1, _FWD1)):
        g[row] = np.tensordot(st, f[:5], axes=(0, 0)) / h
        g[-1 - row] = -np.tensordot(st, f[-5:][::-1], axes=(0, 0)) / h
    return g


def sl_apply(problem, grid, f):
    """Apply -(p f')' + q f with fourth-order stencils (one-sided at ends)."""
    h = grid.h
    p = problem.p(grid.x)
    q = problem.q(grid.x)
    d = derivative_4th(f, h)
    pd = p[:, None] * d if f.ndim == 2 else p * d
    return -derivative_4th(pd, h) + (q[:, None] * f if f.ndim == 2 else q * f)


def operator_residuals(problem, grid, lambdas, phis):
    """r-weighted norms of A phi_n - lambda_n phi_n over interior nodes.

    The differential expression is evaluated with fourth-order stencils
    independent of the discretization that produced the eigenpairs; the
    norm excludes the four nodes nearest each end where the one-sided
    stencils interact.
    """
    r = problem.r(grid.x)
    lhs = sl_apply(problem, grid, phis.T)
    res = lhs - r[:, None] * phis.T * lambdas[None, :]
    sl = slice(4, grid.n_points - 4)
    w = (grid.weights * r)[sl, None]
    return np.sqrt(np.sum(w * res[sl] ** 2, axis=0))


def _onesided_d1_weights(offsets):
    """Exact first-derivative weights for the given node offsets."""
    offs = np.asarray(offsets, dtype=float)
    V = np.vander(offs, offs.size, increasing=True).T
    rhs = np.zeros(offs.size)
    rhs[1] = 1.0
    return np.linalg.solve(V, rhs)


# D1 rows of the refinement operator as width-7 windows.  The one-sided rows
# 0, 1, n-2, n-1 keep its boundary truncation from polluting the
# orthogonality of refined eigenvectors.
_REFINE_ENDS = np.array([_onesided_d1_weights(range(7)), _onesided_d1_weights(range(-1, 6))])
_REFINE_ENDS = np.vstack([_REFINE_ENDS, -_REFINE_ENDS[::-1, ::-1]])
_REFINE_INTERIOR = np.array([0.0, 1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12, 0.0])
_BAND = 7      # the refinement operator has 7 sub- and 7 superdiagonals


def _boundary_rows(problem, h):
    """Rows 0 and n-1 of the refinement operator: the boundary conditions on five end nodes."""
    bc0 = (0.0 if problem.left_dirichlet else problem.b2) * _FWD0 / h
    bcn = (0.0 if problem.right_dirichlet else problem.a2) * (-_FWD0[::-1]) / h
    bc0[0] += problem.b1
    bcn[-1] += problem.a1
    return bc0, bcn


def _refine_band(problem, grid):
    """-D1 p D1 + q in (7, 7) band storage, rows 0 and n-1 replaced by the boundary rows.

    Row i of D1 is the window w[i] on columns cols[i]; entry (i, j) of the
    operator sits at band[7 + i - j, j], the layout of solve_banded.
    """
    n, h = grid.n_points, grid.h
    start = np.arange(n) - 3
    start[:2] = 0
    start[-2:] = n - 7
    cols = np.clip(start[:, None] + np.arange(7), 0, n - 1)
    w = np.tile(_REFINE_INTERIOR / h, (n, 1))
    w[[0, 1, -2, -1]] = _REFINE_ENDS / h

    # rows 1..n-2: sum over k = cols[i, a] of -w[i, a] p[k] w[k, b] at column cols[k, b]
    i = np.arange(1, n - 1)[:, None, None]
    k = cols[1:-1]
    j = cols[k]
    vals = (-w[1:-1] * problem.p(grid.x)[k])[:, :, None] * w[k]
    keep = np.abs(i - j) <= _BAND          # drops only the zero padding of the windows
    flat = ((_BAND + i - j) * n + j)[keep]
    band = np.bincount(flat, vals[keep], minlength=(2 * _BAND + 1) * n).reshape(-1, n)
    band[_BAND, 1:-1] += problem.q(grid.x)[1:-1]

    m = np.arange(5)
    band[_BAND - m, m], band[_BAND + 4 - m, n - 5 + m] = _boundary_rows(problem, h)
    return band


def _refine_eigenvectors(problem, grid, lambdas, phis):
    """Two inverse-iteration steps against a fourth-order discretization.

    Boundary conditions are imposed as exact matrix rows, so refined
    vectors satisfy them to rounding; interior accuracy improves from the
    second-order solve to the fourth-order operator's eigenvectors.  Each
    shifted system is solved by banded LU with partial pivoting.
    """
    band = _refine_band(problem, grid)
    rmask = problem.r(grid.x)
    rmask[0] = rmask[-1] = 0.0

    def solve(shift, v):
        shifted = band.copy()
        shifted[_BAND] -= shift * rmask
        return solve_banded((_BAND, _BAND), shifted, rmask * v, overwrite_ab=True)

    out = np.empty_like(phis)
    for k in range(lambdas.size):
        shift = lambdas[k]
        v = phis[k]
        for _ in range(2):
            try:
                v = solve(shift, v)
            except np.linalg.LinAlgError:
                shift = lambdas[k] * (1.0 + 1e-11)
                v = solve(shift, v)
            norm = np.linalg.norm(v)
            if not np.isfinite(norm) or norm == 0.0:
                raise GridTooCoarse(f"eigenvector refinement diverged for mode {k + 1}")
            v /= norm
        out[k] = v
    return out


def _normalize(phis, grid, r):
    """Unit Simpson r-norm for every eigenvector (diagonal of the Gram matrix)."""
    wr = grid.weights * r
    norms = np.sqrt(np.sum(wr * phis ** 2, axis=1))
    return phis / norms[:, None]


def eigensolve(problem, grid, K, richardson=True):
    """Compute the lowest K eigenpairs of the Sturm-Liouville operator.

    Eigenvalues come from Sturm-sequence bisection + inverse iteration on the
    symmetric tridiagonal second-order discretization, with one Richardson
    extrapolation step across the grid and its 2h coarsening (fourth-order
    eigenvalues).

    Constant-coefficient problems with Dirichlet ends keep the raw tridiagonal
    eigenvectors (exact discrete modes, machine-exact orthonormality); all
    other problems get an inverse-iteration polish against a fourth-order
    operator whose boundary rows impose the boundary conditions exactly.

    The quantitative contracts of eigen_contracts (operator residual within
    1e-5 * (1 + |lambda|), quadrature orthonormality within 1e-8) are
    enforced; violations raise GridTooCoarse.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if grid.n_points < 8 * K:
        raise GridTooCoarse(f"need n_points >= {8 * K} for K={K}, got {grid.n_points}")
    problem.validate_on_grid(grid)

    lam_f, phi = _tridiagonal_eigs(problem, grid.x, K)
    lambdas = lam_f
    if richardson:
        lam_c = _tridiagonal_eigs(problem, grid.x[::2], K, vectors=False)
        lambdas = (4.0 * lam_f - lam_c) / 3.0

    phis = np.ascontiguousarray(phi.T)     # C order: reloaded artifacts are C order too
    if not (problem.constant_coefficients
            and problem.left_dirichlet and problem.right_dirichlet):
        phis = _refine_eigenvectors(problem, grid, lambdas, phis)

    phis = _normalize(phis, grid, problem.r(grid.x))

    # sign convention
    anchor = derivative_4th(phis.T[:5], grid.h)[0] if problem.left_dirichlet else phis[:, 0]
    flip = np.sign(anchor)
    flip[flip == 0.0] = 1.0
    phis *= flip[:, None]

    if np.any(np.diff(lambdas) <= 0.0):
        raise GridTooCoarse("computed eigenvalues are not strictly increasing")

    eig = EigenSystem.from_samples(problem, grid, lambdas, phis)
    defect, res, tol = eig.contracts
    if defect > ORTHONORMALITY_TOL:
        raise GridTooCoarse(
            f"quadrature orthonormality defect {defect:.3e} exceeds {ORTHONORMALITY_TOL:g}"
        )
    bad = np.nonzero(res > tol)[0]
    if bad.size:
        raise GridTooCoarse(
            f"operator residual {res[bad[0]]:.3e} exceeds {tol[bad[0]]:.3e} "
            f"for mode {bad[0] + 1}; refine the grid or reduce K"
        )
    return eig


def eigen_contracts(eigsys):
    """The quantitative eigensystem contracts, over the lower half of the modes.

    Returns (quadrature orthonormality defect max |Gram - I|, operator
    residuals, their tolerances OPERATOR_RESIDUAL_TOL (1 + |lambda_n|)).  The
    upper half of the computed modes serves as guard modes for tail estimates.
    """
    n = max(1, eigsys.K // 2)
    defect = float(np.max(np.abs(eigsys.gram(n) - np.eye(n))))
    lambdas = eigsys.lambdas[:n]
    res = operator_residuals(eigsys.problem, eigsys.grid, lambdas, eigsys.phis[:n])
    return defect, res, OPERATOR_RESIDUAL_TOL * (1.0 + np.abs(lambdas))


def boundary_residuals(eigsys):
    """Residuals of both boundary conditions, scaled by max |phi_n|."""
    pr = eigsys.problem
    amp = np.max(np.abs(eigsys.phis), axis=1)
    left = np.abs(pr.b1 * eigsys.phis[:, 0] + pr.b2 * eigsys.dphi0)
    right = np.abs(pr.a1 * eigsys.phis[:, -1] + pr.a2 * eigsys.dphi1)
    return left / amp, right / amp


def project(w, eigsys, N):
    """Modal coefficients against the first N eigenfunctions, plus remainder."""
    if N > eigsys.K:
        raise CutoffExceedsComputedModes(f"N={N} exceeds computed modes K={eigsys.K}")
    w = np.asarray(w, dtype=float)
    wr = eigsys.grid.weights * eigsys.r_samples
    coeffs = eigsys.phis[:N] @ (wr * w)
    remainder = w - coeffs @ eigsys.phis[:N]
    return coeffs, remainder


def check_assumption_h(eigsys, N):
    """Diagnostic for the tail assumption: (lambda_{N+1}, tail slope).

    lambda_{N+1} > 0 is the hard test.  The slope is numerical evidence, not
    a proof: the log-log decay slope of lambda_n^-1 max|phi_n| over the last
    half of the computed tail (slope < -1 indicates summability).
    """
    if eigsys.K < N + 20:
        raise ValueError(f"need at least N+20={N + 20} computed modes, have {eigsys.K}")
    tail = np.arange(N, eigsys.K)
    amps = np.max(np.abs(eigsys.phis[tail]), axis=1)
    increments = amps / np.abs(eigsys.lambdas[tail])
    half = tail.size // 2
    ns = np.arange(N + 1, eigsys.K + 1)[half:]
    slope = float(np.polyfit(np.log(ns), np.log(increments[half:]), 1)[0])
    return float(eigsys.lambdas[N]), slope
