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
    def left_bc(self):
        """(b1, b2) with a numerically Dirichlet b2 snapped to 0."""
        return self.b1, 0.0 if self.left_dirichlet else self.b2

    @property
    def right_bc(self):
        """(a1, a2) with a numerically Dirichlet a2 snapped to 0."""
        return self.a1, 0.0 if self.right_dirichlet else self.a2

    @property
    def closed_form(self):
        """Constant coefficients and Dirichlet ends: the eigenpairs have a closed form."""
        return all(c.is_constant for c in (self.p, self.q, self.r)) \
            and self.left_dirichlet and self.right_dirichlet

    @property
    def knots(self):
        """0, the interior breakpoints of table coefficients, 1: p, q and r are
        smooth between them (an order-1 table kinks, an order-3 one changes cubic)."""
        breaks = {x for c in (self.p, self.q, self.r) if c.kind == "table"
                  for x in c.table_x if 0.0 < x < 1.0}
        return np.array([0.0, *sorted(breaks), 1.0])

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
    return Grid(n_points, _read_only(x), _read_only(w * (h / 3.0)))


def _read_only(a):
    """a, marked read-only: one grid and eigensystem may serve several designs."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Computed eigenvalues and grid-sampled orthonormal eigenfunctions.

    phis[n] is the n-th eigenfunction sampled on grid.x, normalized to unit
    r-weighted norm, with sign fixed by phi'(0) > 0 for a Dirichlet left end
    and phi(0) > 0 otherwise.  dphi0/dphi1 hold the end derivatives the
    solver computed with them (closed form or collocation).  A collocated
    eigensystem also keeps its nodes and the node values, normalized and
    signed like phis, so at() evaluates the modes anywhere.

    The solver's own modes are lambdas, dphi0, dphi1 and the node values
    (none for a closed-form plant); from_modes() derives phis from them, so
    an eigensystem read back from eigen.csv equals the designed one.  It is
    frozen and its arrays are read-only: one eigensystem serves every design
    of its plant.

    It owns the grid's r-weighted inner product: wr holds the rule's
    weights (composite Simpson times r), and inner, norm_sq, gram and
    project apply it.
    """

    problem: SLProblem
    grid: Grid
    lambdas: np.ndarray            # (K,)
    phis: np.ndarray               # (K, n_points)
    dphi0: np.ndarray              # (K,)
    dphi1: np.ndarray              # (K,)
    r_samples: np.ndarray          # (n_points,)
    nodes: Collocation | None = None
    node_values: np.ndarray | None = None      # (K, n_nodes)

    @property
    def K(self):
        return self.lambdas.size

    @classmethod
    def from_modes(cls, problem, grid, lambdas, dphi0, dphi1, nodes, node_values, raw=False):
        """The eigensystem of the solver's modes, with phis derived on the grid.

        A closed-form plant (nodes None) samples the closed form and scales
        the samples by their _normalization; a collocated one interpolates
        its node values, phis = node_values @ nodes.interpolation(grid.x).T.
        Raw modes (eigensolve's) are normalized first: the node values and
        end derivatives take the _normalization of the raw grid samples.
        """
        if problem.closed_form:
            _, phis, raw_dphi0, _ = _closed_form(problem, lambdas.size, grid.x)
            scale = _normalization(problem, grid, phis, raw_dphi0)
            phis *= scale[:, None]
        else:
            E = nodes.interpolation(grid.x).T
            if raw:
                scale = _normalization(problem, grid, node_values @ E, dphi0)
                node_values = node_values * scale[:, None]
            phis = node_values @ E
        if raw:
            dphi0, dphi1 = dphi0 * scale, dphi1 * scale
        if nodes is not None:
            for a in (node_values, *vars(nodes).values()):
                _read_only(a)
        modes = (lambdas, phis, dphi0, dphi1, problem.r(grid.x))
        return cls(problem, grid, *map(_read_only, modes), nodes, node_values)

    def at(self, x):
        """The modes at the points x of [0, 1], (K, x.size), as phis samples them on the grid.

        Closed-form plants evaluate the closed form, collocated ones the
        interpolant through their node values.
        """
        if self.problem.closed_form:
            return _closed_form(self.problem, self.K, x)[1] * self._closed_form_scale[:, None]
        return self.node_values @ self.nodes.interpolation(x).T

    @cached_property
    def _closed_form_scale(self):
        """A closed-form plant's per-mode factor from the closed form to phis."""
        _, samples, dphi0, _ = _closed_form(self.problem, self.K, self.grid.x)
        return _read_only(_normalization(self.problem, self.grid, samples, dphi0))

    @cached_property
    def wr(self):
        """Composite-Simpson weights times r: the r-weighted inner product's rule."""
        return _read_only(self.grid.weights * self.r_samples)

    def _samples(self, f):
        """f as float grid samples; DimensionMismatch unless its last axis is the grid."""
        f = np.asarray(f, dtype=float)
        if f.shape[-1] != self.grid.n_points:
            raise DimensionMismatch(
                f"grid functions must have {self.grid.n_points} samples, got {f.shape[-1]}")
        return f

    def inner(self, F, G):
        """<f, g> for every row f of F and row g of G, (rows of F, rows of G).

        A 1-D F or G drops its axis, so two grid functions give a scalar.
        """
        return (self._samples(F) * self.wr) @ self._samples(G).T

    def norm_sq(self, f):
        """||f||^2 of one grid function, or per row of f."""
        f = self._samples(f)
        return (f * f) @ self.wr

    def gram(self, n=None):
        """Quadrature Gram matrix of the first n eigenfunctions (all by default)."""
        return self.inner(self.phis[:n], self.phis[:n])

    @cached_property
    def contracts(self):
        """eigen_contracts(self), evaluated once: the eigensolve guard and certify share it."""
        defect, res, tol = eigen_contracts(self)
        return defect, _read_only(res), _read_only(tol)


# -- Chebyshev collocation ---------------------------------------------------

# mode k of a Sturm-Liouville operator has exactly k - 1 sign changes; samples
# below this fraction of the mode's largest magnitude are rounding, not sign
STURM_FLOOR = 1e-8


def _chebyshev_piece(n, a, b):
    """n + 1 Chebyshev-Lobatto nodes on [a, b], d/dx, the integral from a, barycentric weights.

    Node i sits at xi_i = cos(pi i / n) of [-1, 1], so the nodes ascend in x.
    """
    k = np.arange(n + 1)
    x = a + 0.5 * (b - a) * (1.0 - np.sin(np.pi * (n - 2 * k) / (2 * n)))
    x[0], x[-1] = a, b
    half = np.where((k == 0) | (k == n), 0.5, 1.0)
    w = half * (-1.0) ** k
    # x_i - x_j = (b - a) (cos(pi j/n) - cos(pi i/n)) / 2, as a product of sines
    dx = (b - a) * np.sin(np.pi * (k[:, None] + k) / (2 * n)) \
        * np.sin(np.pi * (k[:, None] - k) / (2 * n))
    np.fill_diagonal(dx, 1.0)
    D = (w / w[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    # values -> Chebyshev coefficients c_j -> antiderivative coefficients
    # C_m = (c_{m-1} - c_{m+1}) / 2m, with 2 c_0 for m = 1 -> values less the
    # value at a, sum_m C_m (1 - T_m(xi_i)); T_m(xi_i) = cos(pi (m i mod 2n) / n)
    m = np.arange(1, n + 2)
    cos = np.cos(np.pi * np.arange(2 * n) / n)
    coef = (2.0 / n) * np.outer(half, half) * cos[np.outer(k, k) % (2 * n)]
    anti = coef[m - 1] * (np.where(m == 1, 1.0, 0.5) / m)[:, None]
    anti[:-2] -= coef[2:] * (0.5 / m[:-2])[:, None]
    S = 0.5 * (b - a) * (1.0 - cos[np.outer(k, m) % (2 * n)]) @ anti
    return x, D, S, w


def _barycentric(x, w, xg):
    """Matrix evaluating the interpolant through nodes x (weights w) at the points xg."""
    E = xg[:, None] - x
    hit = E == 0.0
    E[hit] = 1.0
    np.divide(w, E, out=E)
    E /= E.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    E[rows] = hit[rows]
    return E


@dataclass(frozen=True)
class Collocation:
    """Chebyshev-Lobatto nodes for one plant, one node set per piece.

    The pieces meet at problem.knots, where p, q or r may kink (order-1
    table) or change cubic (order 3); on each piece they are smooth, so the
    collocation converges spectrally.  x holds every piece's nodes (a knot
    twice), w their barycentric weights and ends the indices of the piece
    ends (start, end, start, ...).  D is the block-diagonal d/dx and S the
    block-diagonal integral from each piece's left end.
    """

    x: np.ndarray
    w: np.ndarray
    D: np.ndarray
    S: np.ndarray
    ends: np.ndarray
    knots: np.ndarray

    def interpolation(self, points):
        """Matrix evaluating node values at points of [0, 1], each by the interpolant
        of its piece (barycentric formula, Berrut & Trefethen, SIAM Rev. 46, 2004)."""
        E = np.zeros((points.size, self.x.size))
        at = np.clip(np.searchsorted(self.knots, points, side="right") - 1,
                     0, self.knots.size - 2)
        for i, (start, end) in enumerate(self.ends.reshape(-1, 2)):
            cols = slice(start, end + 1)
            E[at == i, cols] = _barycentric(self.x[cols], self.w[cols], points[at == i])
        return E


def collocation(problem, K):
    """The collocation for K modes: a piece of length L has degree ceil(max(2 K, 80) L) + 16.

    The floor of 80 resolves the boundary layer of a reverse-sign Robin end
    as thin as the grid's quadrature can certify (about 0.007); the 16 extra
    keep the top modes at about 1e-12 relative (with 8, the Robin modes of
    K = 6 were off by 2e-7).
    """
    knots = problem.knots
    pieces = [_chebyshev_piece(int(np.ceil(max(2 * K, 80) * (b - a))) + 16, a, b)
              for a, b in zip(knots[:-1], knots[1:])]
    x = np.concatenate([piece[0] for piece in pieces])
    size = np.cumsum([0] + [piece[0].size for piece in pieces])
    D, S = np.zeros((2, x.size, x.size))
    for i, (_, Dp, Sp, _) in enumerate(pieces):
        cols = slice(size[i], size[i + 1])
        D[cols, cols], S[cols, cols] = Dp, Sp
    ends = np.ravel(np.column_stack([size[:-1], size[1:] - 1]))
    return Collocation(x, np.concatenate([piece[3] for piece in pieces]), D, S, ends, knots)


def mode_nodes(problem, K):
    """The collocation eigensolve keeps K modes on; None for a closed-form plant."""
    return None if problem.closed_form else collocation(problem, K)


def gauss_rule(problem, Q):
    """Gauss-Legendre nodes and weights on [0, 1]: one rule per piece between
    problem.knots, of ceil(Q L) nodes on a piece of length L, so no rule
    straddles a kink of p, q or r."""
    knots = problem.knots
    x, w = [], []
    for a, b in zip(knots[:-1], knots[1:]):
        t, v = np.polynomial.legendre.leggauss(int(np.ceil(Q * (b - a))))
        x.append(a + 0.5 * (b - a) * (1.0 + t))
        w.append(0.5 * (b - a) * v)
    return np.concatenate(x), np.concatenate(w)


def _collocated_eigs(problem, K):
    """Lowest K eigenvalues, node values (n_nodes, K) and the collocation.

    Collocates the conservative form -D p D + q, so no p' is needed.  At the
    piece ends its equations give way to the boundary condition at x=0,
    continuity of u and p u' at each knot and the boundary condition at
    x=1.  These rows give the end values from the others, u[ends] =
    -elim u[inner]; that Schur complement leaves a dense eigenproblem on the
    inner nodes.
    """
    col = collocation(problem, K)
    ends = col.ends
    pD = problem.p(col.x)[:, None] * col.D
    op = -col.D @ pD + np.diag(problem.q(col.x))
    (b1, b2), (a1, a2) = problem.left_bc, problem.right_bc
    rows = np.zeros((ends.size, col.x.size))
    rows[0] = b2 * col.D[0]
    rows[0, 0] += b1
    rows[-1] = a2 * col.D[-1]
    rows[-1, -1] += a1
    for i in range(1, ends.size // 2):
        left, right = ends[2 * i - 1], ends[2 * i]
        rows[2 * i - 1, [left, right]] = 1.0, -1.0
        rows[2 * i] = pD[left] - pD[right]
    inner = np.setdiff1d(np.arange(col.x.size), ends)
    elim = np.linalg.solve(rows[:, ends], rows[:, inner])
    A = op[np.ix_(inner, inner)] - op[np.ix_(inner, ends)] @ elim
    lam, vec = np.linalg.eig(A / problem.r(col.x[inner])[:, None])
    real = np.flatnonzero(np.abs(lam.imag) <= 1e-8 * (1.0 + np.abs(lam.real)))
    keep = real[np.argsort(lam.real[real])][:K]
    if keep.size < K:
        raise GridTooCoarse(f"collocation gives {keep.size} real eigenvalues, requested {K}")
    U = np.empty((col.x.size, K))
    U[inner] = vec[:, keep].real
    U[ends] = -elim @ U[inner]
    return lam.real[keep], U, col


def _sign_changes(f):
    """Sign changes of f over its samples above STURM_FLOOR max |f|."""
    s = np.sign(f[np.abs(f) > STURM_FLOOR * np.max(np.abs(f))])
    return int(np.count_nonzero(s[1:] != s[:-1]))


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


RESIDUAL_NODES = slice(4, -4)


def residual_weights(problem, grid):
    """Simpson r-weights of the nodes RESIDUAL_NODES where sl_apply residuals are measured.

    The four nodes nearest each end, where the one-sided stencils interact,
    are not among them.  A node whose nine-point stencil has points strictly
    on both sides of an interior knot gets weight 0: p, q or r kink there,
    u'' jumps, and a polynomial stencil across the jump measures the
    stencil, not the function.
    """
    w = (grid.weights * problem.r(grid.x))[RESIDUAL_NODES]
    x = grid.x
    for knot in problem.knots[1:-1]:            # node i's stencil spans x[i-4]..x[i+4]
        w = np.where((x[:-8] < knot) & (knot < x[8:]), 0.0, w)
    return w


def operator_residuals(problem, grid, lambdas, phis):
    """r-weighted norms of A phi_n - lambda_n phi_n over the residual_weights nodes.

    The differential expression is evaluated with fourth-order stencils
    independent of the discretization that produced the eigenpairs.
    """
    r = problem.r(grid.x)
    lhs = sl_apply(problem, grid, phis.T)
    res = lhs - r[:, None] * phis.T * lambdas[None, :]
    w = residual_weights(problem, grid)
    return np.sqrt(np.sum(w[:, None] * res[RESIDUAL_NODES] ** 2, axis=0))


def _closed_form(problem, K, x=()):
    """lambda_n = (p n^2 pi^2 + q) / r, sqrt(2 / r) sin(n pi x) at the points x (none
    by default) and the end derivatives, n = 1..K, of a constant-coefficient
    Dirichlet plant."""
    p, q, r = (c.values[0] for c in (problem.p, problem.q, problem.r))
    n = np.arange(1, K + 1)
    amp = np.sqrt(2.0 / r)
    dphi0 = amp * n * np.pi
    return (p * (n * np.pi) ** 2 + q) / r, amp * np.sin(np.outer(n * np.pi, x)), \
        dphi0, dphi0 * (-1.0) ** n


def _normalization(problem, grid, phis, dphi0):
    """Per-mode factor to unit Simpson r-norm with the EigenSystem sign convention."""
    scale = 1.0 / np.sqrt(np.sum(grid.weights * problem.r(grid.x) * phis ** 2, axis=1))
    return scale * np.where((dphi0 if problem.left_dirichlet else phis[:, 0]) < 0.0, -1.0, 1.0)


def eigensolve(problem, grid, K):
    """Compute the lowest K eigenpairs of the Sturm-Liouville operator.

    Constant-coefficient plants with Dirichlet ends take the closed form
    lambda_n = (p n^2 pi^2 + q) / r, phi_n = sqrt(2 / r) sin(n pi x).  Every
    other plant is solved by Chebyshev collocation (collocation(),
    _collocated_eigs()) and interpolated to the grid; dphi0/dphi1 are d/dx
    of the node values at the ends, and the eigensystem keeps the node
    values.  Modes are normalized in the Simpson r-norm and signed by the
    EigenSystem convention; EigenSystem.from_modes does both and samples
    the grid, as it does for a loaded artifact.

    Guards, each raising GridTooCoarse: strictly increasing eigenvalues;
    Sturm oscillation (mode k has k - 1 sign changes), which catches a mode
    the collocation misses; and the quantitative contracts of
    eigen_contracts (operator residual within 1e-5 * (1 + |lambda|),
    quadrature orthonormality within 1e-8).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if grid.n_points < 8 * K:
        raise GridTooCoarse(f"need n_points >= {8 * K} for K={K}, got {grid.n_points}")
    problem.validate_on_grid(grid)

    if problem.closed_form:
        lambdas, _, dphi0, dphi1 = _closed_form(problem, K)
        col = node_values = None
    else:
        lambdas, U, col = _collocated_eigs(problem, K)
        dphi0, dphi1 = col.D[[0, -1]] @ U
        node_values = np.ascontiguousarray(U.T)
    eig = EigenSystem.from_modes(problem, grid, lambdas, dphi0, dphi1, col, node_values, raw=True)

    if np.any(np.diff(lambdas) <= 0.0):
        raise GridTooCoarse("computed eigenvalues are not strictly increasing")
    for k, phi in enumerate(eig.phis):
        if _sign_changes(phi) != k:
            raise GridTooCoarse(f"mode {k + 1} has {_sign_changes(phi)} sign changes, not {k}: "
                                "a mode is missed or unresolved; refine the grid or reduce K")
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
    """Modal coefficients (N,) of the grid state w against the first N eigenfunctions."""
    if N > eigsys.K:
        raise CutoffExceedsComputedModes(f"N={N} exceeds computed modes K={eigsys.K}")
    return eigsys.phis[:N] @ (eigsys.wr * eigsys._samples(w))


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
