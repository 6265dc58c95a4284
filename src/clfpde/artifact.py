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
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import __version__
from .config import RunConfig, config_to_text, load_config
from .errors import ConfigError
from .lyapunov import CLFParams, FeedbackLaw
from .reduced import GainDesign, ReducedModel
from .semilinear import SemilinearCLF, SemilinearDesign
from .shapes import ShapeSet
from .spectral import EigenSystem, Grid, make_grid
from .textio import (
    BOOL,
    FLOAT,
    FLOATS,
    INT,
    STR,
    parse_sections,
    parse_value,
    read_csv,
    row_key,
    write_csv,
)

# design.txt, one row list per section: (key, attribute, kind, sizes).  An INT
# row reads a size symbol; its sizes bound it (1 <= M <= K), and a symbol read
# twice must agree.  The sizes of a vector row give its length; those of a
# matrix row its row count and width, one vec() row per key_row_<i> line.
META_ROWS = [("version", "version", STR, ())]
EIGEN_ROWS = [("K", "K", INT, ()),
              ("lambdas", "lambdas", FLOATS, ("K",)),
              ("dphi0", "dphi0", FLOATS, ("K",)),
              ("dphi1", "dphi1", FLOATS, ("K",))]
REDUCED_ROWS = [("N", "N", INT, ("K",)),
                ("j", "j", INT, ()),
                ("lambda_next", "lambda_next", FLOAT, ()),
                ("lambdas", "lambdas", FLOATS, ("N",)),
                ("mus", "mus", FLOATS, ("j",)),
                ("B", "B", FLOATS, ("N", "j"))]
GAINS_ROWS = [("mode", "mode", STR, ()),
              ("sigma", "sigma", FLOAT, ()),
              ("c1", "c1", FLOAT, ()),
              ("c2", "c2", FLOAT, ()),
              ("K", "K", FLOATS, ("j", "N")),
              ("R", "R", FLOATS, ("N", "N"))]
CLF_ROWS = [("omegas", "omegas", FLOATS, ("j",)),
            ("gamma", "gamma", FLOAT, ()),
            ("sigma", "sigma", FLOAT, ()),
            ("M", "M", INT, ("K",)),
            ("Ls", "Ls", FLOATS, ("j",))]
LAW_ROWS = [("M", "M", INT, ("K",)),
            ("N", "N", INT, ("K",)),
            ("y_gains", "y_gains", FLOATS, ("j",)),
            ("mus", "mus", FLOATS, ("j",)),
            ("kernel_coeffs", "kernel_coeffs", FLOATS, ("j", "M"))]
SEMILINEAR_ROWS = [("controller", "controller_kind", STR, ()),
                   ("sigma", "sigma", FLOAT, ()),
                   ("kappa", "kappa", FLOAT, ()),
                   ("lbar", "lbar", FLOAT, ()),
                   ("lambda_next", "lambda_next", FLOAT, ()),
                   ("lambdas", "lambdas", FLOATS, ("N",)),
                   ("mus", "mus", FLOATS, ("N",)),
                   ("norms_sq", "norms_sq", FLOATS, ("N",)),
                   ("certified", "certified", BOOL, ()),
                   ("g", "g", FLOATS, ("N", "N"))]
# the [semilinear] keys of its CLF; None or empty values are left out
SEMILINEAR_CLF_ROWS = [("clf_R", "R", FLOAT, ()),
                       ("clf_gamma", "gamma", FLOAT, ()),
                       ("clf_omegas", "omegas", FLOATS, ("N",)),
                       ("clf_theta", "theta", FLOAT, ()),
                       ("clf_beta", "beta", FLOAT, ()),
                       ("clf_epsilon", "epsilon", FLOAT, ()),
                       ("clf_zeta", "zeta", FLOAT, ()),
                       ("clf_a", "a", FLOAT, ()),
                       ("clf_epsilon_note", "epsilon_convention_note", STR, ())]


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


def _lines(rows, obj):
    lines = []
    for key, attr, kind, sizes in rows:
        value = getattr(obj, attr)
        if len(sizes) == 2:
            lines += [f"{row_key(key, i)} = {kind.format(row)}" for i, row in enumerate(value)]
        elif sizes or value not in (None, ""):        # a None or '' scalar is left out
            lines.append(f"{key} = {kind.format(value)}")
    return lines


def save_artifact(bundle, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.cfg"), "w") as fh:
        fh.write(config_to_text(bundle.config))

    sl = bundle.sl_design
    lines = []
    for name, rows, obj in (("meta", META_ROWS, bundle),
                            ("eigen", EIGEN_ROWS, bundle.eigsys),
                            ("reduced", REDUCED_ROWS, bundle.model),
                            ("gains", GAINS_ROWS, bundle.gains),
                            ("clf", CLF_ROWS, bundle.params),
                            ("law", LAW_ROWS, bundle.law),
                            ("semilinear", SEMILINEAR_ROWS, sl)):
        if obj is not None:
            lines += ["", f"[{name}]"] + _lines(rows, obj)
    if sl is not None and sl.clf is not None:
        lines += _lines(SEMILINEAR_CLF_ROWS, sl.clf)
    lines += ["", "[verdicts]"] + [v.line() for v in bundle.verdicts]
    with open(os.path.join(out_dir, "design.txt"), "w") as fh:
        fh.write("\n".join(lines[1:]) + "\n")

    eig, law = bundle.eigsys, bundle.law
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


def _parse_verdict(text):
    status, _, rest = text.partition(" margin=")
    margin, _, note = rest.partition(" note=")
    return status == "pass", float(margin), note


def _parse_verdict_lines(section, path="design.txt"):
    return [Verdict(name, *parse_value(_parse_verdict, text, f"{path}: [verdicts] {name}"))
            for name, text in section.items()]


def load_artifact(out_dir):
    cfg = load_config(os.path.join(out_dir, "config.cfg"))
    grid = make_grid(cfg.n_points)
    path = os.path.join(out_dir, "design.txt")
    with open(path) as fh:
        sections = parse_sections(fh.read())
    sizes = {"n_points": grid.n_points}
    read_keys = set()

    def check(where, shape, dims):
        """Every loaded shape is checked here, against the sizes read so far."""
        if tuple(shape) != tuple(sizes[d] for d in dims):
            raise ConfigError(f"{where}: {' x '.join(map(str, shape))} samples, needs "
                              + " x ".join(f"{d} = {sizes[d]}" for d in dims))

    def get(section, key, kind, dims):
        if len(dims) == 2:
            return np.array([get(section, row_key(key, i), kind, dims[1:])
                             for i in range(sizes[dims[0]])])
        text = sections.get(section, {}).get(key)
        if text is None:
            raise ConfigError(f"{path}: no key {key!r} in [{section}]")
        read_keys.add((section, key))
        where = f"{path}: [{section}] {key}"
        value = parse_value(kind.parse, text, f"{path}: [{section}] key {key!r}")
        if kind is INT:
            if not 1 <= value <= min([sizes[d] for d in dims], default=value):
                raise ConfigError(f"{where} = {value} needs 1 <= {key}"
                                  + "".join(f" <= {d} = {sizes[d]}" for d in dims))
            if sizes.setdefault(key, value) != value:
                raise ConfigError(f"{where} = {value} differs from {key} = {sizes[key]} above")
        elif dims:
            check(where, (len(value),), dims)
            value = np.array(value)
        return value

    def read(section, rows, cls, **values):
        """cls from one section; only a row written as None or '' may be absent."""
        defaults = {f.name: f.default for f in fields(cls)}
        for key, attr, kind, dims in rows:
            if key in sections.get(section, {}) or defaults.get(attr, MISSING) not in (None, ""):
                value = get(section, key, kind, dims)
                if attr in defaults:
                    values[attr] = value
        return cls(**values)

    # C-ordered sample rows: BLAS then sums in the order the design did
    _, eigen = read_csv(os.path.join(out_dir, "eigen.csv"))
    eigsys = read("eigen", EIGEN_ROWS, EigenSystem, problem=cfg.problem, grid=grid,
                  phis=np.ascontiguousarray(eigen[:, 2:]), r_samples=cfg.problem.r(grid.x))
    check(os.path.join(out_dir, "eigen.csv"), eigsys.phis.shape, ("K", "n_points"))
    model = read("reduced", REDUCED_ROWS, ReducedModel)
    _, shape_rows = read_csv(os.path.join(out_dir, "shapes.csv"))
    shapes = ShapeSet(shape_rows[:, 1].copy(), np.ascontiguousarray(shape_rows[:, 3:]),
                      shape_rows[:, 2].copy(), grid, eigsys.r_samples)
    check(os.path.join(out_dir, "shapes.csv"), shapes.varphis.shape, ("j", "n_points"))
    gains = read("gains", GAINS_ROWS, GainDesign)
    params = read("clf", CLF_ROWS, CLFParams)
    law = read("law", LAW_ROWS, FeedbackLaw, kernels=None)
    law.kernels = law.kernel_coeffs @ eigsys.phis[:law.M]
    sl = sections.get("semilinear")
    has_clf = sl and any(row[0] in sl for row in SEMILINEAR_CLF_ROWS)   # read() names a missing one
    clf = read("semilinear", SEMILINEAR_CLF_ROWS, SemilinearCLF) if has_clf else None
    sl_design = read("semilinear", SEMILINEAR_ROWS, SemilinearDesign, clf=clf) if sl else None
    verdicts = _parse_verdict_lines(sections.get("verdicts", {}), path)
    bundle = read("meta", META_ROWS, DesignBundle, config=cfg, grid=grid, eigsys=eigsys,
                  shapes=shapes, model=model, gains=gains, params=params, law=law,
                  sl_design=sl_design, verdicts=verdicts)
    for section, keys in sections.items():
        for key in keys:
            if section != "verdicts" and (section, key) not in read_keys:
                raise ConfigError(f"{path}: [{section}] undeclared key {key!r}")
    return bundle


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
