"""Run configuration: a line-oriented key = value format with [sections].

Coefficients accept three spellings:

    p = 1.0                                  constant
    p = poly: 1.0 0.5                        1.0 + 0.5 x
    p = table(order=3): x1 x2 .. | y1 y2 ..  tabulated with spline order

The section syntax and the float format are those of clfpde.textio: floats
are written in full precision so that a round-trip through a config file
reproduces the run bit for bit.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .semilinear import NonlinearitySpec
from .sim import SimConfig
from .spectral import Coefficient, SLProblem
from .textio import (BOOL, FLOAT, FLOATS, INT, STR, Kind, floats, parse_sections, parse_value,
                     read_text, vec)


def _parse_coefficient(text):
    if text.startswith("poly:"):
        return Coefficient.polynomial(floats(text[5:]))
    if text.startswith("table"):
        head, _, body = text.partition(":")
        order = 3
        if "(" in head:
            option, _, value = head[head.index("(") + 1:head.rindex(")")].partition("=")
            if option.strip() != "order":
                raise ValueError(f"unknown table option {option.strip()!r}")
            order = int(value)
        xs_txt, _, ys_txt = body.partition("|")
        xs, ys = floats(xs_txt), floats(ys_txt)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("table needs matching x and y samples")
        return Coefficient.table(xs, ys, order)
    return Coefficient.constant(float(text))


def _format_coefficient(c):
    if c.kind == "constant":
        return repr(c.values[0])
    if c.kind == "polynomial":
        return "poly: " + vec(c.values)
    return f"table(order={c.order}): {vec(c.table_x)} | {vec(c.table_y)}"


def _finite(parse):
    """parse, then reject nan and inf: every float of a config is finite ('auto' aside)."""
    def parse_finite(text):
        value = parse(text)
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError("must be finite")
        return value
    return parse_finite


COEFFICIENT = Kind(_parse_coefficient, _format_coefficient)
REAL = Kind(_finite(FLOAT.parse), FLOAT.format)
REALS = Kind(_finite(FLOATS.parse), FLOATS.format)
AUTO = Kind(_finite(lambda text: None if text.lower() == "auto" else float(text)),
            lambda value: "auto" if value is None else repr(value))


@dataclass
class SemilinearSettings:
    kind: str
    lbar: float
    scale: float = 0.0
    controller: str = "nonlinear"   # 'nonlinear' | 'linear'
    kappa: float | None = None      # None: search the grid

    def nonlinearity(self):
        return NonlinearitySpec.make(self.kind, scale=self.scale, lbar=self.lbar)


@dataclass
class RunConfig:
    problem: SLProblem
    N: int
    j: int
    mus: list
    n_points: int = 2049
    modes: int = 96
    sigma: list = field(default_factory=lambda: [1.0])   # per-mode targets or one value
    gain_mode: str = "closed_form"
    Ls: list = field(default_factory=list)
    safety: float = 2.0
    m_max: int = 512
    semilinear: SemilinearSettings | None = None
    sim: SimConfig = field(default_factory=SimConfig)
    w0_modes: list = field(default_factory=lambda: [1.0])
    y0: list = field(default_factory=list)               # empty: j zeros
    out_dir: str | None = None

    def __post_init__(self):
        self.y0 = self.y0 or [0.0] * self.j

    def validate(self):
        if self.N < 1 or self.j < 1:
            raise ConfigError("N and j must both be >= 1")
        if len(self.mus) != self.j:
            raise ConfigError(f"need {self.j} mu values, got {len(self.mus)}")
        for mu in self.mus:
            if not mu > 0.0:
                raise ConfigError(f"mus must be > 0, got mu={float(mu)!r}")
        if self.Ls and len(self.Ls) != self.j:
            raise ConfigError(f"need {self.j} L values, got {len(self.Ls)}")
        if not all(L >= 0.0 for L in self.Ls):
            raise ConfigError("Ls values must be >= 0")
        if len(self.sigma) not in (1, self.N):
            raise ConfigError(f"sigma needs 1 or {self.N} values, got {len(self.sigma)}")
        if any(s <= 0.0 for s in self.sigma):
            raise ConfigError("sigma targets must be positive")
        if self.gain_mode not in ("closed_form", "pole_placement"):
            raise ConfigError(f"unknown gain_mode {self.gain_mode!r}")
        if self.semilinear is not None:
            if self.j != self.N:
                raise ConfigError("semilinear controllers require j == N")
            if self.semilinear.controller not in ("nonlinear", "linear"):
                raise ConfigError(f"unknown controller {self.semilinear.controller!r}")
            if not (self.semilinear.kappa is None or self.semilinear.kappa > 0.0):
                raise ConfigError(f"kappa must be auto or > 0, got {self.semilinear.kappa!r}")
            try:
                self.semilinear.nonlinearity().validate()
            except ValueError as exc:
                raise ConfigError(f"semilinear nonlinearity: {exc}") from exc
        if self.n_points < 129 or self.n_points % 2 == 0:
            raise ConfigError("grid n_points must be odd and >= 129")
        if self.modes < self.N + 20:
            raise ConfigError("spectral modes must be at least N + 20")
        if self.n_points < 8 * self.modes:
            raise ConfigError(f"grid n_points must be >= 8 x modes = {8 * self.modes}, "
                              f"got {self.n_points}")
        if self.sim.n_modes > self.modes:
            raise ConfigError("sim n_modes cannot exceed computed spectral modes")
        if len(self.w0_modes) > self.sim.n_modes:
            raise ConfigError(f"w0_modes has {len(self.w0_modes)} values; "
                              f"sim n_modes = {self.sim.n_modes}")
        if not 0.0 < self.safety < np.inf:
            raise ConfigError(f"safety must be positive and finite, got {self.safety!r}")
        if len(self.y0) != self.j:
            raise ConfigError(f"y0 needs {self.j} values, got {len(self.y0)}")
        if not self.sim.dt > 0.0:
            raise ConfigError("dt must be positive")
        return self

    @property
    def Ls_array(self):
        return np.asarray(self.Ls if self.Ls else [0.0] * self.j, dtype=float)


def load_config(path):
    return config_from_text(read_text(path))


# Every config key, in file order: (section, key, attribute, kind).  The
# attribute is on RunConfig or, dotted, on its problem, semilinear or sim part.
# A key left out of a file keeps its field's default; one whose field has no
# default is required.
CONFIG_ROWS = [("problem", "p", "problem.p", COEFFICIENT),
               ("problem", "q", "problem.q", COEFFICIENT),
               ("problem", "r", "problem.r", COEFFICIENT),
               ("problem", "b1", "problem.b1", REAL),
               ("problem", "b2", "problem.b2", REAL),
               ("problem", "a1", "problem.a1", REAL),
               ("problem", "a2", "problem.a2", REAL),
               ("grid", "n_points", "n_points", INT),
               ("spectral", "modes", "modes", INT),
               ("design", "N", "N", INT),
               ("design", "j", "j", INT),
               ("design", "mus", "mus", REALS),
               ("design", "sigma", "sigma", REALS),
               ("design", "gain_mode", "gain_mode", STR),
               ("design", "Ls", "Ls", REALS),
               ("clf", "safety", "safety", REAL),
               ("clf", "M_max", "m_max", INT),
               ("semilinear", "kind", "semilinear.kind", STR),
               ("semilinear", "scale", "semilinear.scale", REAL),
               ("semilinear", "lbar", "semilinear.lbar", REAL),
               ("semilinear", "controller", "semilinear.controller", STR),
               ("semilinear", "kappa", "semilinear.kappa", AUTO),
               ("sim", "n_modes", "sim.n_modes", INT),
               ("sim", "dt", "sim.dt", REAL),
               ("sim", "t_final", "sim.t_final", AUTO),
               ("sim", "record_stride", "sim.record_stride", INT),
               ("sim", "max_steps", "sim.max_steps", INT),
               ("sim", "w0_modes", "w0_modes", REALS),
               ("sim", "y0", "y0", REALS),
               ("output", "out_dir", "out_dir", STR)]

# Keys that steer nothing any more, each with the one value it accepts (None: any
# value of its kind).  Old artifacts and configs still load; the value is ignored
# and config_to_text does not write the key.
RETIRED_KEYS = {("spectral", "richardson"): (BOOL, True),
                ("sim", "integrator"): (STR, "exponential_midpoint"),
                ("output", "seed"): (INT, None)}


def _default(part, name):
    """The default of a dataclass field of part (a class or an instance), or MISSING."""
    f = next(f for f in fields(part) if f.name == name)
    return f.default if f.default_factory is MISSING else f.default_factory()


def _build(cls, part, sections, **values):
    """cls from one part's rows ("" for RunConfig itself); keys in the file override values."""
    for section, key, attr, kind in CONFIG_ROWS:
        owner, _, name = attr.rpartition(".")
        if owner != part:
            continue
        text = sections.get(section, {}).get(key)
        if text is not None:
            where = f"coefficient {key}" if kind is COEFFICIENT else f"key {key!r}"
            values[name] = parse_value(kind.parse, text, where)
        elif name not in values and _default(cls, name) is MISSING:
            raise ConfigError(f"missing required key {key!r}")
    return cls(**values)


def config_from_text(text):
    sections = parse_sections(text)
    if "problem" not in sections:
        raise ConfigError("missing [problem] section")
    for section, keys in sections.items():
        known = [key for row_section, key, _, _ in CONFIG_ROWS if row_section == section]
        retired = [key for row_section, key in RETIRED_KEYS if row_section == section]
        if not known + retired:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in keys.items():
            if key in retired:
                kind, only = RETIRED_KEYS[section, key]
                value = parse_value(kind.parse, text, f"key {key!r}")
                if only is not None and value != only:
                    show = repr if kind is STR else kind.format
                    raise ConfigError(f"key {key!r} accepts only {show(only)}, got {show(value)}")
            elif key not in known:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    try:
        # without coefficients the plant is u_t = u_xx
        problem = _build(SLProblem, "problem", sections, p=Coefficient.constant(1.0),
                         q=Coefficient.constant(0.0), r=Coefficient.constant(1.0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return _build(RunConfig, "", sections, problem=problem, sim=_build(SimConfig, "sim", sections),
                  semilinear=_build(SemilinearSettings, "semilinear", sections)
                  if "semilinear" in sections else None).validate()


def config_to_text(cfg):
    """Canonical full-precision serialization (round-trips through load)."""
    lines = []
    for section, key, attr, kind in CONFIG_ROWS:
        owner, _, name = attr.rpartition(".")
        part = getattr(cfg, owner) if owner else cfg
        if part is None:
            continue                        # no [semilinear] section
        value = getattr(part, name)
        if value in (None, []) and kind is not AUTO and value == _default(part, name):
            continue                        # left at an empty default: no Ls, no out_dir
        if f"[{section}]" not in lines:
            lines += ["", f"[{section}]"]
        lines.append(f"{key} = {kind.format(value)}")
    return "\n".join(lines[1:]) + "\n"
