"""Pipeline orchestration: design -> certify -> simulate -> report.

Certification re-checks every contract the design relies on, through the
same functions as the design's guards, and records a margin per check; the
artifact stores the verdict list so that re-loading and re-verifying must
reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import RunConfig
from .lyapunov import coupling_table  # noqa: F401  (perfbench/spans.py wraps this name)
from .lyapunov import (
    CLFParams,
    FeedbackLaw,
    build_feedback_law,
    coercivity_constants,
    linear_loop,
    modal_state,
    select_clf_params,
    weight_inequality_margins,
)
from .reduced import (
    B_ENTRY_MIN,
    GAIN_INEQUALITY_TOL,
    GAIN_INVERSE_TOL,
    GainDesign,
    ReducedModel,
    build_reduced_model,
    check_controllability,
    closed_form_B,
    design_gains,
    gain_inequality_residual,
    gain_inverse_error,
)
from .semilinear import (
    SemilinearDesign,
    build_semilinear_design,
    linear_admissibility_margins,
    max_growth_bound,
    nonlinear_admissibility_margins,
    nonlinear_coefficients,
    semilinear_loop,
)
from .shapes import (
    BOUNDARY_RESIDUAL_TOL as SHAPE_BC_TOL,
    BVP_RESIDUAL_TOL,
    ORTHOGONALITY_TOL,
    ShapeSet,
    build_shape_set,
    orthogonality_defect,
    shape_residuals,
    validate_mu_set,
)
from .sim import simulate_linear, simulate_semilinear
from .spectral import (
    BOUNDARY_RESIDUAL_TOL,
    ORTHONORMALITY_TOL,
    EigenSystem,
    Grid,
    boundary_residuals,
    check_assumption_h,
    eigensolve,
    make_grid,
)

SPOT_CHECK_STATES = 20
DUAL_PATH_TOL = 1e-8
RATE_TOL_REL = 1e-6
CLOSED_FORM_B_TOL = 1e-7


@dataclass
class Verdict:
    name: str
    passed: bool
    margin: float
    note: str = ""

    def __post_init__(self):
        self.margin = float(self.margin)      # numpy scalars would print as np.float64(...)

    def line(self):
        status = "pass" if self.passed else "fail"
        note = f" note={self.note}" if self.note else ""
        return f"{self.name} = {status} margin={self.margin!r}{note}"


@dataclass
class DesignBundle:
    """Everything needed to re-instantiate and re-verify a design."""

    config: RunConfig
    grid: Grid
    eigsys: EigenSystem
    shapes: ShapeSet
    model: ReducedModel
    gains: GainDesign
    params: CLFParams
    law: FeedbackLaw
    sl_design: SemilinearDesign | None = None
    verdicts: list = field(default_factory=list)
    version: str = __version__

    @property
    def certified(self):
        return all(v.passed for v in self.verdicts)


def design(cfg):
    """Run the full design chain for a validated configuration."""
    grid = make_grid(cfg.n_points)
    eigsys = eigensolve(cfg.problem, grid, cfg.modes)
    return design_from_eigensystem(cfg, eigsys)


def design_from_eigensystem(cfg, eigsys):
    """The design chain after the eigensolve: shapes, model, gains, CLF, law, semilinear."""
    shapes = build_shape_set(eigsys, cfg.mus)
    model = build_reduced_model(eigsys, shapes, cfg.N)
    sigmas = cfg.sigma if len(cfg.sigma) == cfg.N else [cfg.sigma[0]] * cfg.N
    gains = design_gains(model, sigmas, cfg.gain_mode)
    params = select_clf_params(gains, shapes, eigsys, cfg.Ls_array,
                               safety=cfg.safety, m_max=cfg.m_max)
    law = build_feedback_law(gains, params, shapes, eigsys)
    sl_design = None
    if cfg.semilinear is not None:
        sl_design = build_semilinear_design(
            model, shapes, cfg.semilinear.lbar, gains.sigma,
            cfg.semilinear.controller, kappa=cfg.semilinear.kappa)
    return DesignBundle(cfg, eigsys.grid, eigsys, shapes, model, gains, params, law, sl_design)


def random_states(eigsys, j, count, seed):
    """Seeded smooth random states within the computed modal span, as rows (W, Y).

    One (count, n + j) draw keeps each state's order: n mode amplitudes, then j boundary values.
    """
    n = min(eigsys.K, 40)
    draws = np.random.default_rng(seed).standard_normal((count, n + j))
    decay = 1.0 / np.arange(1, n + 1) ** 2
    return (draws[:, :n] * decay) @ eigsys.phis[:n], draws[:, n:]


def certify(bundle):
    """Compute the verdict list for a design bundle and store it."""
    cfg, eig, shapes, model = bundle.config, bundle.eigsys, bundle.shapes, bundle.model
    gains, params, law = bundle.gains, bundle.params, bundle.law
    verdicts = []

    gram_dev, res, tol = eig.contracts
    verdicts.append(Verdict("eigen_orthonormality", gram_dev <= ORTHONORMALITY_TOL,
                            ORTHONORMALITY_TOL - gram_dev))

    left, right = boundary_residuals(eig)
    bc_dev = float(max(np.max(left), np.max(right)))
    verdicts.append(Verdict("eigen_boundary_residual", bc_dev <= BOUNDARY_RESIDUAL_TOL,
                            BOUNDARY_RESIDUAL_TOL - bc_dev))

    op_margin = float(np.min(tol - res))
    verdicts.append(Verdict("eigen_operator_residual", op_margin >= 0.0, op_margin))

    lambda_next, tail_slope = check_assumption_h(eig, cfg.N)
    verdicts.append(Verdict("assumption_H", lambda_next > 0.0, lambda_next,
                            f"tail_slope={tail_slope:.3f}"))

    mu_verdicts = validate_mu_set(shapes.mus, eig.lambdas)
    verdicts.append(Verdict("mu_admissibility", all(v.passed for v in mu_verdicts),
                            min(v.margin for v in mu_verdicts)))

    worst_res, worst_bc = 0.0, 0.0
    for i in range(shapes.j):
        rnorm, lres, rres = shape_residuals(cfg.problem, bundle.grid,
                                            shapes.mus[i], shapes.varphis[i])
        worst_res = max(worst_res, rnorm)
        worst_bc = max(worst_bc, lres, rres)
    verdicts.append(Verdict("shape_bvp_residual", worst_res <= BVP_RESIDUAL_TOL,
                            BVP_RESIDUAL_TOL - worst_res))
    verdicts.append(Verdict("shape_boundary_residual", worst_bc <= SHAPE_BC_TOL,
                            SHAPE_BC_TOL - worst_bc))

    max_offdiag = orthogonality_defect(shapes, eig)
    verdicts.append(Verdict("shape_orthogonality", max_offdiag <= ORTHOGONALITY_TOL,
                            ORTHOGONALITY_TOL - max_offdiag))

    b_min = float(np.min(np.abs(model.B)))
    verdicts.append(Verdict("input_matrix_entries", b_min > B_ENTRY_MIN,
                            b_min - B_ENTRY_MIN))

    B_cf = closed_form_B(cfg.problem, eig, shapes.mus, model.N)
    rel = float(np.max(np.abs(model.B - B_cf) / np.maximum(np.abs(B_cf), 1e-300)))
    verdicts.append(Verdict("input_matrix_closed_form", rel <= CLOSED_FORM_B_TOL,
                            CLOSED_FORM_B_TOL - rel))

    ctrl = check_controllability(model)
    sv_margin = float(ctrl.singular_values[-1] / ctrl.singular_values[0]) \
        if ctrl.singular_values[0] > 0 else 0.0
    verdicts.append(Verdict("controllability", ctrl.passed, sv_margin,
                            f"rank={ctrl.rank} certificate={ctrl.structural_certificate}"))

    residual = gain_inequality_residual(model, gains.K, gains.R, gains.sigma)
    verdicts.append(Verdict("gain_inequality", residual <= GAIN_INEQUALITY_TOL,
                            GAIN_INEQUALITY_TOL - residual))
    verdicts.append(Verdict("gain_certificate_spd", gains.c1 > 0.0, gains.c1))

    loop = linear_loop(eig, shapes, gains, params, law, eig.K)
    y_m, tail_m, trunc_m = weight_inequality_margins(params, gains, shapes, eig, loop.T)
    verdicts.append(Verdict("clf_weight_inequalities", bool(np.all(y_m >= 0.0)),
                            float(np.min(y_m))))
    verdicts.append(Verdict("clf_tail_inequality", tail_m >= 0.0, tail_m))
    verdicts.append(Verdict("clf_kernel_truncation", trunc_m >= 0.0, trunc_m,
                            f"M={params.M}"))

    # exact forms: the kernels' modes against Kmat, W's least eigenvalue, dV/dt on the PDE
    gap = np.linalg.norm(eig.inner(law.kernels, eig.phis) - loop.Kmat, axis=1)
    dual_dev = float(np.max(gap / np.maximum(1.0, np.linalg.norm(loop.Kmat, axis=1))))
    verdicts.append(Verdict("kernel_dual_path", dual_dev <= DUAL_PATH_TOL,
                            DUAL_PATH_TOL - dual_dev))
    lo, _ = coercivity_constants(params, gains)
    verdicts.append(Verdict("coercivity", lo > 0.0, lo))
    diss_margin = loop.dissipation(shapes.norms_sq, RATE_TOL_REL)
    verdicts.append(Verdict("dissipation", diss_margin >= 0.0, diss_margin))

    if bundle.sl_design is not None:
        sl = bundle.sl_design
        gb_err = gain_inverse_error(model.B, sl.g)
        verdicts.append(Verdict("semilinear_gain_inverse", gb_err <= GAIN_INVERSE_TOL,
                                GAIN_INVERSE_TOL - gb_err))
        lbar_max = max_growth_bound(sl.mus, sl.norms_sq, sl.g, sl.lambda_next)
        verdicts.append(Verdict("semilinear_growth_bound", sl.lbar < lbar_max,
                                lbar_max - sl.lbar, f"lbar_max={lbar_max!r}"))
        if np.isfinite(sl.kappa):
            if sl.controller_kind == "nonlinear":
                margins = nonlinear_admissibility_margins(
                    sl.mus, sl.norms_sq, sl.g, sl.lambda_next, sl.lbar, sl.kappa)
            else:
                margins = linear_admissibility_margins(
                    sl.lambdas, sl.mus, sl.norms_sq, sl.g, sl.lambda_next,
                    sl.sigma, sl.lbar, sl.kappa)
            margin = min(float(np.min(m)) for m in margins)
            verdicts.append(Verdict("semilinear_admissibility", margin > 0.0, margin,
                                    f"kappa={sl.kappa!r}"))
        else:
            verdicts.append(Verdict("semilinear_admissibility", False, -1.0,
                                    "no feasible kappa on the search grid"))
        if sl.clf is not None:
            note = sl.clf.epsilon_convention_note
            verdicts.append(Verdict("semilinear_theta_positive", sl.clf.theta > 0.0,
                                    sl.clf.theta, note))
            # worst row over the seeded states of the bound, plus RATE_TOL_REL of it, minus dV/dt
            W, Y = random_states(eig, shapes.j, SPOT_CHECK_STATES, cfg.seed)
            C, norm_sq = modal_state(W, eig, eig.K)
            sl_loop = semilinear_loop(eig, shapes, sl, eig.K)
            f = nonlinear_coefficients(cfg.semilinear.nonlinearity(), W, Y, shapes, eig, eig.K)
            bound = sl_loop.bound(norm_sq, Y)
            sl_margin = float(np.min(bound + RATE_TOL_REL * (1.0 + np.abs(bound))
                                     - sl_loop.rate(C, Y, sl_loop.controls(C, Y, f), f)))
            verdicts.append(Verdict("semilinear_dissipation_spot_check",
                                    sl_margin >= 0.0, sl_margin))
        else:
            verdicts.append(Verdict("semilinear_theta_positive", False, -1.0,
                                    "no functional parameters"))

    bundle.verdicts = verdicts
    return verdicts


def initial_state(bundle):
    """Grid initial condition from the configured modal amplitudes."""
    amps = np.asarray(bundle.config.w0_modes, dtype=float)
    w0 = amps @ bundle.eigsys.phis[: amps.size]
    y0 = np.asarray(bundle.config.y0, dtype=float)
    return w0, y0


def simulate(bundle):
    """Run the configured closed-loop simulation for a designed bundle."""
    cfg = bundle.config
    w0, y0 = initial_state(bundle)
    if cfg.semilinear is not None:
        F = cfg.semilinear.nonlinearity()
        F.validate()
        return simulate_semilinear(bundle.eigsys, bundle.shapes, bundle.sl_design,
                                   F, w0, y0, cfg.sim)
    return simulate_linear(bundle.eigsys, bundle.shapes, bundle.gains, bundle.params,
                           bundle.law, w0, y0, cfg.sim)


def report_text(bundle):
    lines = [f"clfpde certification report (version {bundle.version})", ""]
    lines.append(f"problem: N={bundle.config.N} j={bundle.config.j} "
                 f"grid={bundle.config.n_points} modes={bundle.eigsys.K}")
    lines.append(f"gain mode: {bundle.gains.mode}  sigma={bundle.gains.sigma!r}")
    lines.append(f"clf: gamma={bundle.params.gamma!r} M={bundle.params.M} "
                 f"omegas={list(map(float, bundle.params.omegas))!r}")
    if bundle.sl_design is not None:
        sl = bundle.sl_design
        lines.append(f"semilinear: controller={sl.controller_kind} lbar={sl.lbar!r} "
                     f"kappa={sl.kappa!r} certified={sl.certified}")
        if sl.clf is not None and sl.clf.epsilon_convention_note:
            lines.append(f"  note: {sl.clf.epsilon_convention_note}")
    lines.append("")
    for v in bundle.verdicts:
        lines.append("  " + v.line())
    lines.append("")
    lines.append(f"overall: {'CERTIFIED' if bundle.certified else 'FAILED'}")
    return "\n".join(lines) + "\n"

