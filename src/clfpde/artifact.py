"""Design artifact: deterministic plain-text persistence of a certified design.

An artifact directory contains

    config.cfg     canonical run configuration (round-trips exactly)
    design.txt     all computed scalars, vectors, and matrices in full precision
    eigen.csv      rows (n, lambda, eigenfunction samples)
    shapes.csv     rows (i, mu, norm_sq, shape samples)
    kernels.csv    columns (x, k_1(x), ..., k_j(x))

Floats are serialized with shortest round-trip repr, so re-loading an
artifact reconstructs the design bit for bit and re-certification
reproduces every verdict margin.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import RunConfig, config_to_text, load_config
from .lyapunov import CLFParams, FeedbackLaw
from .reduced import GainDesign, ReducedModel
from .semilinear import SemilinearCLF, SemilinearDesign
from .shapes import ShapeSet
from .spectral import EigenSystem, Grid, make_grid


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


def _vec(v):
    return " ".join(repr(float(x)) for x in np.atleast_1d(v))


def _parse_vec(s):
    return np.array([float(x) for x in s.split()], dtype=float)


def _matrix_lines(name, M):
    return [f"{name}_row_{i + 1} = {_vec(M[i])}" for i in range(M.shape[0])]


def _parse_matrix(section, name, rows):
    return np.vstack([_parse_vec(section[f"{name}_row_{i + 1}"]) for i in range(rows)])


def save_artifact(bundle, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.cfg"), "w") as fh:
        fh.write(config_to_text(bundle.config))

    lines = ["[meta]", f"version = {bundle.version}"]
    eig = bundle.eigsys
    lines += ["", "[eigen]", f"K = {eig.K}",
              f"lambdas = {_vec(eig.lambdas)}",
              f"dphi0 = {_vec(eig.dphi0)}",
              f"dphi1 = {_vec(eig.dphi1)}"]
    model = bundle.model
    lines += ["", "[reduced]", f"N = {model.N}", f"j = {model.j}",
              f"lambda_next = {model.lambda_next!r}",
              f"lambdas = {_vec(model.lambdas)}",
              f"mus = {_vec(model.mus)}"]
    lines += _matrix_lines("B", model.B)
    gains = bundle.gains
    lines += ["", "[gains]", f"mode = {gains.mode}", f"sigma = {gains.sigma!r}",
              f"c1 = {gains.c1!r}", f"c2 = {gains.c2!r}"]
    lines += _matrix_lines("K", gains.K)
    lines += _matrix_lines("R", gains.R)
    params = bundle.params
    lines += ["", "[clf]", f"omegas = {_vec(params.omegas)}",
              f"gamma = {params.gamma!r}", f"sigma = {params.sigma!r}",
              f"M = {params.M}", f"Ls = {_vec(params.Ls)}"]
    law = bundle.law
    lines += ["", "[law]", f"M = {law.M}", f"N = {law.N}",
              f"y_gains = {_vec(law.y_gains)}", f"mus = {_vec(law.mus)}"]
    lines += _matrix_lines("kernel_coeffs", law.kernel_coeffs)
    if bundle.sl_design is not None:
        sl = bundle.sl_design
        lines += ["", "[semilinear]", f"controller = {sl.controller_kind}",
                  f"sigma = {sl.sigma!r}", f"kappa = {sl.kappa!r}", f"lbar = {sl.lbar!r}",
                  f"lambda_next = {sl.lambda_next!r}",
                  f"lambdas = {_vec(sl.lambdas)}", f"mus = {_vec(sl.mus)}",
                  f"norms_sq = {_vec(sl.norms_sq)}",
                  f"certified = {'true' if sl.certified else 'false'}"]
        lines += _matrix_lines("g", sl.g)
        if sl.clf is not None:
            clf = sl.clf
            lines += [f"clf_R = {clf.R!r}", f"clf_gamma = {clf.gamma!r}",
                      f"clf_omegas = {_vec(clf.omegas)}", f"clf_theta = {clf.theta!r}",
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

    _write_eigen_csv(bundle.eigsys, os.path.join(out_dir, "eigen.csv"))
    _write_shapes_csv(bundle.shapes, os.path.join(out_dir, "shapes.csv"))
    _write_kernels_csv(bundle.law, bundle.grid, os.path.join(out_dir, "kernels.csv"))


def _write_eigen_csv(eigsys, path):
    from .spectral import export_eigensystem_csv
    export_eigensystem_csv(eigsys, path)


def _write_shapes_csv(shapes, path):
    from .shapes import export_shapes_csv
    export_shapes_csv(shapes, path)


def _write_kernels_csv(law, grid, path):
    from .lyapunov import export_kernels_csv
    export_kernels_csv(law, grid, path)


def _parse_design_text(text):
    sections = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
            continue
        key, _, value = line.partition("=")
        sections[current][key.strip()] = value.strip()
    return sections


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
    with open(os.path.join(out_dir, "design.txt")) as fh:
        sec = _parse_design_text(fh.read())

    eig_sec = sec["eigen"]
    K = int(eig_sec["K"])
    lambdas = _parse_vec(eig_sec["lambdas"])
    dphi0 = _parse_vec(eig_sec["dphi0"])
    dphi1 = _parse_vec(eig_sec["dphi1"])
    phis = _read_samples_csv(os.path.join(out_dir, "eigen.csv"), skip=2)
    eigsys = EigenSystem(cfg.problem, grid, lambdas, phis, dphi0, dphi1,
                         cfg.problem.r(grid.x))
    assert eigsys.K == K

    rows = _read_csv_rows(os.path.join(out_dir, "shapes.csv"))
    mus = np.array([float(r[1]) for r in rows])
    norms = np.array([float(r[2]) for r in rows])
    varphis = np.array([[float(v) for v in r[3:]] for r in rows])
    shapes = ShapeSet(mus, varphis, norms, grid, eigsys.r_samples)

    red = sec["reduced"]
    N = int(red["N"])
    model = ReducedModel(_parse_vec(red["lambdas"]), _parse_matrix(red, "B", N),
                         _parse_vec(red["mus"]), float(red["lambda_next"]))

    gn = sec["gains"]
    j = model.j
    gains = GainDesign(_parse_matrix(gn, "K", j), _parse_matrix(gn, "R", N),
                       float(gn["sigma"]), float(gn["c1"]), float(gn["c2"]), gn["mode"])

    cl = sec["clf"]
    params = CLFParams(_parse_vec(cl["omegas"]), float(cl["gamma"]), float(cl["sigma"]),
                       int(cl["M"]), _parse_vec(cl["Ls"]))

    lw = sec["law"]
    kernel_coeffs = _parse_matrix(lw, "kernel_coeffs", j)
    kernels = kernel_coeffs @ eigsys.phis[: int(lw["M"])]
    law = FeedbackLaw(kernels, kernel_coeffs, _parse_vec(lw["y_gains"]),
                      _parse_vec(lw["mus"]), int(lw["M"]), int(lw["N"]))

    sl_design = None
    if "semilinear" in sec:
        sl = sec["semilinear"]
        clf = None
        if "clf_R" in sl:
            clf = SemilinearCLF(
                R=float(sl["clf_R"]), gamma=float(sl["clf_gamma"]),
                omegas=_parse_vec(sl["clf_omegas"]), theta=float(sl["clf_theta"]),
                beta=float(sl["clf_beta"]), epsilon=float(sl["clf_epsilon"]),
                zeta=float(sl["clf_zeta"]) if "clf_zeta" in sl else None,
                a=float(sl["clf_a"]) if "clf_a" in sl else None,
                epsilon_convention_note=sl.get("clf_epsilon_note", ""),
            )
        sl_design = SemilinearDesign(
            g=_parse_matrix(sl, "g", N), sigma=float(sl["sigma"]),
            kappa=float(sl["kappa"]), lbar=float(sl["lbar"]),
            controller_kind=sl["controller"], lambdas=_parse_vec(sl["lambdas"]),
            mus=_parse_vec(sl["mus"]), norms_sq=_parse_vec(sl["norms_sq"]),
            lambda_next=float(sl["lambda_next"]), clf=clf,
            certified=sl["certified"] == "true",
        )

    verdicts = _parse_verdict_lines(sec.get("verdicts", {}))
    return DesignBundle(cfg, grid, eigsys, shapes, model, gains, params, law,
                        sl_design, verdicts, sec["meta"]["version"])


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return list(reader)


def _read_samples_csv(path, skip):
    rows = _read_csv_rows(path)
    return np.array([[float(v) for v in r[skip:]] for r in rows])


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
