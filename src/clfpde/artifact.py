"""Design artifact: deterministic plain-text persistence of a certified design.

An artifact directory contains

    config.cfg     canonical run configuration (round-trips exactly)
    design.txt     all computed scalars, vectors, and matrices in full precision
    eigen.csv      rows (n, lambda, eigenfunction samples)
    shapes.csv     rows (i, mu, norm_sq, shape samples)
    kernels.csv    columns (x, k_1(x), ..., k_j(x))

All five files use the text format of clfpde.textio (shortest round-trip
floats), so re-loading an artifact reconstructs the design bit for bit and
re-certification reproduces every verdict margin.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import RunConfig, config_to_text, load_config
from .errors import ConfigError
from .lyapunov import CLFParams, FeedbackLaw
from .reduced import GainDesign, ReducedModel
from .semilinear import SemilinearCLF, SemilinearDesign
from .shapes import ShapeSet
from .spectral import EigenSystem, Grid, make_grid
from .textio import floats, parse_sections, read_csv, vec, write_csv


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


def _matrix_lines(name, M):
    return [f"{name}_row_{i + 1} = {vec(M[i])}" for i in range(M.shape[0])]


def save_artifact(bundle, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.cfg"), "w") as fh:
        fh.write(config_to_text(bundle.config))

    lines = ["[meta]", f"version = {bundle.version}"]
    eig = bundle.eigsys
    lines += ["", "[eigen]", f"K = {eig.K}",
              f"lambdas = {vec(eig.lambdas)}",
              f"dphi0 = {vec(eig.dphi0)}",
              f"dphi1 = {vec(eig.dphi1)}"]
    model = bundle.model
    lines += ["", "[reduced]", f"N = {model.N}", f"j = {model.j}",
              f"lambda_next = {model.lambda_next!r}",
              f"lambdas = {vec(model.lambdas)}",
              f"mus = {vec(model.mus)}"]
    lines += _matrix_lines("B", model.B)
    gains = bundle.gains
    lines += ["", "[gains]", f"mode = {gains.mode}", f"sigma = {gains.sigma!r}",
              f"c1 = {gains.c1!r}", f"c2 = {gains.c2!r}"]
    lines += _matrix_lines("K", gains.K)
    lines += _matrix_lines("R", gains.R)
    params = bundle.params
    lines += ["", "[clf]", f"omegas = {vec(params.omegas)}",
              f"gamma = {params.gamma!r}", f"sigma = {params.sigma!r}",
              f"M = {params.M}", f"Ls = {vec(params.Ls)}"]
    law = bundle.law
    lines += ["", "[law]", f"M = {law.M}", f"N = {law.N}",
              f"y_gains = {vec(law.y_gains)}", f"mus = {vec(law.mus)}"]
    lines += _matrix_lines("kernel_coeffs", law.kernel_coeffs)
    if bundle.sl_design is not None:
        sl = bundle.sl_design
        lines += ["", "[semilinear]", f"controller = {sl.controller_kind}",
                  f"sigma = {sl.sigma!r}", f"kappa = {sl.kappa!r}", f"lbar = {sl.lbar!r}",
                  f"lambda_next = {sl.lambda_next!r}",
                  f"lambdas = {vec(sl.lambdas)}", f"mus = {vec(sl.mus)}",
                  f"norms_sq = {vec(sl.norms_sq)}",
                  f"certified = {'true' if sl.certified else 'false'}"]
        lines += _matrix_lines("g", sl.g)
        if sl.clf is not None:
            clf = sl.clf
            lines += [f"clf_R = {clf.R!r}", f"clf_gamma = {clf.gamma!r}",
                      f"clf_omegas = {vec(clf.omegas)}", f"clf_theta = {clf.theta!r}",
                      f"clf_beta = {clf.beta!r}", f"clf_epsilon = {clf.epsilon!r}"]
            if clf.zeta is not None:
                lines.append(f"clf_zeta = {clf.zeta!r}")
            if clf.a is not None:
                lines.append(f"clf_a = {clf.a!r}")
            if clf.epsilon_convention_note:
                lines.append(f"clf_epsilon_note = {clf.epsilon_convention_note}")
    lines += ["", "[verdicts]"]
    lines += [v.line() for v in bundle.verdicts]
    with open(os.path.join(out_dir, "design.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    samples = [f"x{i}" for i in range(bundle.grid.n_points)]
    write_csv(os.path.join(out_dir, "eigen.csv"), ["n", "lambda"] + samples,
              ([n + 1, float(eig.lambdas[n])] + eig.phis[n].tolist() for n in range(eig.K)))
    sh = bundle.shapes
    write_csv(os.path.join(out_dir, "shapes.csv"), ["i", "mu", "norm_sq"] + samples,
              ([i + 1, float(sh.mus[i]), float(sh.norms_sq[i])] + sh.varphis[i].tolist()
               for i in range(sh.j)))
    write_csv(os.path.join(out_dir, "kernels.csv"),
              ["x"] + [f"k_{i + 1}" for i in range(law.kernels.shape[0])],
              (row.tolist() for row in np.column_stack([bundle.grid.x, law.kernels.T])))


def _parse_verdict_lines(section):
    out = []
    for name, value in section.items():
        parts = value.split()
        passed = parts[0] == "pass"
        margin = 0.0
        note = ""
        for part in parts[1:]:
            if part.startswith("margin="):
                margin = float(part[len("margin="):])
            elif part.startswith("note="):
                note = value.split("note=", 1)[1]
                break
        out.append(Verdict(name, passed, margin, note))
    return out


def load_artifact(out_dir):
    cfg = load_config(os.path.join(out_dir, "config.cfg"))
    grid = make_grid(cfg.n_points)
    design_path = os.path.join(out_dir, "design.txt")
    with open(design_path) as fh:
        sec = parse_sections(fh.read())

    def get(section, key, parse=float):
        """One design.txt value; a missing or unparsable one is a ConfigError."""
        try:
            return parse(sec[section][key])
        except KeyError as exc:
            raise ConfigError(f"{design_path}: no key {key!r} in [{section}]") from exc
        except ValueError as exc:
            raise ConfigError(f"{design_path}: [{section}] key {key!r}: {exc}") from exc

    def array(section, key):
        return np.array(get(section, key, floats))

    def matrix(section, name, rows):
        return np.array([get(section, f"{name}_row_{i + 1}", floats) for i in range(rows)])

    N, j = get("reduced", "N", int), get("reduced", "j", int)

    # C-ordered sample rows: BLAS then sums in the order the design did
    _, eigen = read_csv(os.path.join(out_dir, "eigen.csv"))
    _, shape_rows = read_csv(os.path.join(out_dir, "shapes.csv"))
    phis = np.ascontiguousarray(eigen[:, 2:])
    varphis = np.ascontiguousarray(shape_rows[:, 3:])
    for name, samples, rows in (("eigen.csv", phis, get("eigen", "K", int)),
                                ("shapes.csv", varphis, j)):
        if samples.shape != (rows, grid.n_points):
            raise ConfigError(f"{name}: {samples.shape[0]} x {samples.shape[1]} samples, "
                              f"design.txt and config.cfg need {rows} x {grid.n_points}")
    eigsys = EigenSystem(cfg.problem, grid, array("eigen", "lambdas"), phis,
                         array("eigen", "dphi0"), array("eigen", "dphi1"),
                         cfg.problem.r(grid.x))
    shapes = ShapeSet(shape_rows[:, 1].copy(), varphis, shape_rows[:, 2].copy(), grid,
                      eigsys.r_samples)

    model = ReducedModel(array("reduced", "lambdas"), matrix("reduced", "B", N),
                         array("reduced", "mus"), get("reduced", "lambda_next"))

    gains = GainDesign(matrix("gains", "K", j), matrix("gains", "R", N),
                       get("gains", "sigma"), get("gains", "c1"), get("gains", "c2"),
                       get("gains", "mode", str))

    params = CLFParams(array("clf", "omegas"), get("clf", "gamma"), get("clf", "sigma"),
                       get("clf", "M", int), array("clf", "Ls"))

    M = get("law", "M", int)
    kernel_coeffs = matrix("law", "kernel_coeffs", j)
    if not 1 <= M <= eigsys.K or kernel_coeffs.shape != (j, M):
        raise ConfigError(f"{design_path}: [law] M = {M} needs 1 <= M <= K = {eigsys.K} "
                          f"and {j} x M kernel_coeffs, got {kernel_coeffs.shape}")
    kernels = kernel_coeffs @ eigsys.phis[:M]
    law = FeedbackLaw(kernels, kernel_coeffs, array("law", "y_gains"),
                      array("law", "mus"), M, get("law", "N", int))

    sl_design = None
    if "semilinear" in sec:
        sl = sec["semilinear"]
        clf = None
        if "clf_R" in sl:
            clf = SemilinearCLF(
                R=get("semilinear", "clf_R"), gamma=get("semilinear", "clf_gamma"),
                omegas=array("semilinear", "clf_omegas"),
                theta=get("semilinear", "clf_theta"), beta=get("semilinear", "clf_beta"),
                epsilon=get("semilinear", "clf_epsilon"),
                zeta=get("semilinear", "clf_zeta") if "clf_zeta" in sl else None,
                a=get("semilinear", "clf_a") if "clf_a" in sl else None,
                epsilon_convention_note=sl.get("clf_epsilon_note", ""),
            )
        sl_design = SemilinearDesign(
            g=matrix("semilinear", "g", N), sigma=get("semilinear", "sigma"),
            kappa=get("semilinear", "kappa"), lbar=get("semilinear", "lbar"),
            controller_kind=get("semilinear", "controller", str),
            lambdas=array("semilinear", "lambdas"), mus=array("semilinear", "mus"),
            norms_sq=array("semilinear", "norms_sq"),
            lambda_next=get("semilinear", "lambda_next"), clf=clf,
            certified=sl["certified"] == "true",
        )

    verdicts = _parse_verdict_lines(sec.get("verdicts", {}))
    return DesignBundle(cfg, grid, eigsys, shapes, model, gains, params, law,
                        sl_design, verdicts, get("meta", "version", str))


def compare_verdicts(a, b, tol=1e-12):
    """True when two verdict lists agree in outcome and margin within tol."""
    if len(a) != len(b):
        return False
    for va, vb in zip(a, b):
        if va.name != vb.name or va.passed != vb.passed:
            return False
        scale = max(abs(va.margin), abs(vb.margin), 1.0)
        if abs(va.margin - vb.margin) > tol * scale:
            return False
    return True
