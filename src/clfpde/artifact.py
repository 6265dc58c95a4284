"""Design artifact: deterministic plain-text persistence of a certified design.

An artifact directory contains

    config.cfg     canonical run configuration (round-trips exactly)
    eigen.csv      rows (n, lambda, dphi0, dphi1, u0 .. u{m-1}): the solver's
                   own modes, with the m node values of a collocated mode
                   (m = 0 for a closed-form plant)
    design.txt     every computed scalar, vector and matrix, then the verdicts

in the text format of clfpde.textio (shortest round-trip floats).  Loading
rebuilds the eigensystem from config.cfg and eigen.csv with
EigenSystem.from_modes, which derives the grid samples as eigensolve does,
and re-derives the rest through the design chain
(pipeline.design_from_eigensystem).  design.txt is a checked record: each
key must be present and none extra; strings and ints must
equal the re-derivation, floats agree within 1e-12 max(1, |a|, |b|).  Only its
[meta] version and [verdicts] are read, so re-certification can be compared
with the stored verdicts.
"""

from __future__ import annotations

import os

import numpy as np

from .config import config_to_text, load_config
from .errors import ConfigError
from .pipeline import DesignBundle, Verdict, design_from_eigensystem  # noqa: F401
from .spectral import EigenSystem, make_grid, mode_nodes
from .textio import (
    BOOL,
    FLOAT,
    FLOATS,
    INT,
    STR,
    parse_sections,
    parse_value,
    read_csv,
    read_text,
    row_key,
    write_csv,
)

AGREE_TOL = 1e-12          # relative, as in compare_verdicts
EIGEN_COLUMNS = ["n", "lambda", "dphi0", "dphi1"]      # then one column per node value

# design.txt, one row list per section: (key, attribute, kind).  A 2-D value is
# written one vec() row per key_row_<i> line.
META_ROWS = [("version", "version", STR)]
EIGEN_ROWS = [("K", "K", INT),
              ("lambdas", "lambdas", FLOATS),
              ("dphi0", "dphi0", FLOATS),
              ("dphi1", "dphi1", FLOATS)]
REDUCED_ROWS = [("N", "N", INT),
                ("j", "j", INT),
                ("lambda_next", "lambda_next", FLOAT),
                ("lambdas", "lambdas", FLOATS),
                ("mus", "mus", FLOATS),
                ("B", "B", FLOATS)]
GAINS_ROWS = [("mode", "mode", STR),
              ("sigma", "sigma", FLOAT),
              ("c1", "c1", FLOAT),
              ("c2", "c2", FLOAT),
              ("K", "K", FLOATS),
              ("R", "R", FLOATS)]
CLF_ROWS = [("omegas", "omegas", FLOATS),
            ("gamma", "gamma", FLOAT),
            ("sigma", "sigma", FLOAT),
            ("M", "M", INT),
            ("Ls", "Ls", FLOATS)]
LAW_ROWS = [("M", "M", INT),
            ("N", "N", INT),
            ("y_gains", "y_gains", FLOATS),
            ("mus", "mus", FLOATS),
            ("kernel_coeffs", "kernel_coeffs", FLOATS)]
SEMILINEAR_ROWS = [("controller", "controller_kind", STR),
                   ("sigma", "sigma", FLOAT),
                   ("kappa", "kappa", FLOAT),
                   ("lbar", "lbar", FLOAT),
                   ("lambda_next", "lambda_next", FLOAT),
                   ("lambdas", "lambdas", FLOATS),
                   ("mus", "mus", FLOATS),
                   ("norms_sq", "norms_sq", FLOATS),
                   ("certified", "certified", BOOL),
                   ("g", "g", FLOATS)]
# the [semilinear] keys of its CLF; None or empty values are left out
SEMILINEAR_CLF_ROWS = [("clf_R", "R", FLOAT),
                       ("clf_gamma", "gamma", FLOAT),
                       ("clf_omegas", "omegas", FLOATS),
                       ("clf_theta", "theta", FLOAT),
                       ("clf_beta", "beta", FLOAT),
                       ("clf_epsilon", "epsilon", FLOAT),
                       ("clf_zeta", "zeta", FLOAT),
                       ("clf_a", "a", FLOAT),
                       ("clf_epsilon_note", "epsilon_convention_note", STR)]


def _entries(bundle):
    """(section, key, kind, text) of every design.txt line before [verdicts], in file order."""
    sl = bundle.sl_design
    parts = [("meta", META_ROWS, bundle),
             ("eigen", EIGEN_ROWS, bundle.eigsys),
             ("reduced", REDUCED_ROWS, bundle.model),
             ("gains", GAINS_ROWS, bundle.gains),
             ("clf", CLF_ROWS, bundle.params),
             ("law", LAW_ROWS, bundle.law),
             ("semilinear", SEMILINEAR_ROWS, sl),
             ("semilinear", SEMILINEAR_CLF_ROWS, sl and sl.clf)]
    for section, rows, obj in parts:
        if obj is None:
            continue
        for key, attr, kind in rows:
            value = getattr(obj, attr)
            if np.ndim(value) == 2:
                for i, row in enumerate(value):
                    yield section, row_key(key, i), kind, kind.format(row)
            elif np.ndim(value) == 1 or value not in (None, ""):    # None or '' is left out
                yield section, key, kind, kind.format(value)


def save_artifact(bundle, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.cfg"), "w") as fh:
        fh.write(config_to_text(bundle.config))
    lines, current = [], None
    for section, key, _, text in _entries(bundle):
        if section != current:
            lines += ["", f"[{section}]"]
            current = section
        lines.append(f"{key} = {text}")
    lines += ["", "[verdicts]"] + [v.line() for v in bundle.verdicts]
    with open(os.path.join(out_dir, "design.txt"), "w") as fh:
        fh.write("\n".join(lines[1:]) + "\n")
    eig = bundle.eigsys
    values = np.zeros((eig.K, 0)) if eig.node_values is None else eig.node_values
    write_csv(os.path.join(out_dir, "eigen.csv"),
              EIGEN_COLUMNS + [f"u{i}" for i in range(values.shape[1])],
              ([n + 1, float(eig.lambdas[n]), float(eig.dphi0[n]), float(eig.dphi1[n])]
               + values[n].tolist() for n in range(eig.K)))


def _parse_verdict(text):
    status, _, rest = text.partition(" margin=")
    margin, _, note = rest.partition(" note=")
    return status == "pass", float(margin), note


def _parse_verdict_lines(section, path="design.txt"):
    return [Verdict(name, *parse_value(_parse_verdict, text, f"{path}: [verdicts] {name}"))
            for name, text in section.items()]


def _check_value(path, section, key, kind, stored, derived):
    """A stored design.txt value against the re-derived text; a disagreement is a ConfigError."""
    if stored == derived:
        return
    where = f"{path}: [{section}] {key}"
    if kind not in (FLOAT, FLOATS):
        raise ConfigError(f"{where} = {stored} differs from the re-derived {derived}")
    a = np.atleast_1d(parse_value(kind.parse, stored, f"{path}: [{section}] key {key!r}"))
    b = np.atleast_1d(kind.parse(derived))
    if a.size != b.size:
        raise ConfigError(f"{where}: {a.size} values, the re-derived design has {b.size}")
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    off = ~((a == b) | (np.isfinite(scale) & (np.abs(a - b) <= AGREE_TOL * scale)))
    if np.any(off):
        i = int(np.argmax(off))
        at = f"[{i}]" if kind is FLOATS else ""
        raise ConfigError(f"{where}{at} = {float(a[i])!r} differs from "
                          f"the re-derived {float(b[i])!r}")


def load_artifact(out_dir):
    cfg = load_config(os.path.join(out_dir, "config.cfg"))
    design_path = os.path.join(out_dir, "design.txt")
    sections = parse_sections(read_text(design_path))
    verdicts = _parse_verdict_lines(sections.pop("verdicts", {}), design_path)
    grid = make_grid(cfg.n_points)
    cfg.problem.validate_on_grid(grid)
    path = os.path.join(out_dir, "eigen.csv")
    _, eigen = read_csv(path)
    nodes = mode_nodes(cfg.problem, cfg.modes)
    lead, m = len(EIGEN_COLUMNS), 0 if nodes is None else nodes.x.size
    if eigen.shape != (cfg.modes, lead + m):
        raise ConfigError(f"{path}: {eigen.shape[0]} rows x {eigen.shape[1]} columns, needs "
                          f"modes = {cfg.modes} rows x {lead + m} columns "
                          f"({', '.join(EIGEN_COLUMNS)} and {m} node values)")
    if not np.all(np.isfinite(eigen)) or np.any(eigen[:, 0] != np.arange(1, cfg.modes + 1)):
        raise ConfigError(f"{path}: needs finite values and the mode numbers 1..{cfg.modes}")
    # C-ordered node rows: BLAS then sums in the order the design did
    lambdas, dphi0, dphi1 = (eigen[:, i].copy() for i in range(1, lead))
    eigsys = EigenSystem.from_modes(cfg.problem, grid, lambdas, dphi0, dphi1, nodes,
                                    None if nodes is None else eigen[:, lead:].copy())
    bundle = design_from_eigensystem(cfg, eigsys)
    bundle.verdicts = verdicts
    bundle.version = sections.get("meta", {}).get("version", bundle.version)
    for section, key, kind, text in _entries(bundle):
        stored = sections.get(section, {}).pop(key, None)
        if stored is None:
            raise ConfigError(f"{design_path}: no key {key!r} in [{section}]")
        _check_value(design_path, section, key, kind, stored, text)
    for section, keys in sections.items():
        if keys:
            raise ConfigError(f"{design_path}: [{section}] undeclared key {next(iter(keys))!r}")
    return bundle


def compare_verdicts(a, b, tol=AGREE_TOL):
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
