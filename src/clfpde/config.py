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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .semilinear import NonlinearitySpec
from .sim import SimConfig
from .spectral import Coefficient, SLProblem
from .textio import floats, parse_sections, vec


def _parse_coefficient(text, name):
    text = text.strip()
    try:
        if text.startswith("poly:"):
            return Coefficient.polynomial([float(v) for v in text[5:].split()])
        if text.startswith("table"):
            head, _, body = text.partition(":")
            order = 3
            if "(" in head:
                inner = head[head.index("(") + 1:head.rindex(")")]
                for part in inner.split(","):
                    k, _, v = part.partition("=")
                    if k.strip() == "order":
                        order = int(v)
            xs_txt, _, ys_txt = body.partition("|")
            xs = [float(v) for v in xs_txt.split()]
            ys = [float(v) for v in ys_txt.split()]
            if len(xs) != len(ys) or len(xs) < 2:
                raise ValueError("table needs matching x and y samples")
            return Coefficient.table(xs, ys, order)
        return Coefficient.constant(float(text))
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"coefficient {name}: cannot parse {text!r} ({exc})") from exc


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} ({exc})") from exc


def _float_or_auto(raw):
    return None if raw.strip().lower() == "auto" else float(raw)


def _bool(raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


@dataclass
class SemilinearSettings:
    kind: str
    scale: float
    lbar: float
    controller: str             # 'nonlinear' | 'linear'
    kappa: float | None         # None: search the grid

    def nonlinearity(self):
        return NonlinearitySpec.make(self.kind, scale=self.scale, lbar=self.lbar)


@dataclass
class RunConfig:
    problem: SLProblem
    n_points: int = 2049
    modes: int = 96
    richardson: bool = True
    N: int = 1
    j: int = 1
    mus: list = field(default_factory=list)
    sigma: list = field(default_factory=lambda: [1.0])   # per-mode targets or one value
    gain_mode: str = "closed_form"
    Ls: list = field(default_factory=list)
    safety: float = 2.0
    m_max: int = 512
    semilinear: SemilinearSettings | None = None
    sim: SimConfig = field(default_factory=SimConfig)
    w0_modes: list = field(default_factory=lambda: [1.0])
    y0: list = field(default_factory=lambda: [0.0])
    out_dir: str | None = None
    seed: int = 0

    def validate(self):
        if self.N < 1 or self.j < 1:
            raise ConfigError("N and j must both be >= 1")
        if len(self.mus) != self.j:
            raise ConfigError(f"need {self.j} mu values, got {len(self.mus)}")
        if self.Ls and len(self.Ls) != self.j:
            raise ConfigError(f"need {self.j} L values, got {len(self.Ls)}")
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
            try:
                self.semilinear.nonlinearity().validate()
            except ValueError as exc:
                raise ConfigError(f"semilinear nonlinearity: {exc}") from exc
        if self.n_points < 129 or self.n_points % 2 == 0:
            raise ConfigError("grid n_points must be odd and >= 129")
        if self.modes < self.N + 20:
            raise ConfigError("spectral modes must be at least N + 20")
        if self.sim.n_modes > self.modes:
            raise ConfigError("sim n_modes cannot exceed computed spectral modes")
        if len(self.y0) != self.j:
            raise ConfigError(f"y0 needs {self.j} values, got {len(self.y0)}")
        if not self.sim.dt > 0.0:
            raise ConfigError("dt must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self

    @property
    def Ls_array(self):
        return np.asarray(self.Ls if self.Ls else [0.0] * self.j, dtype=float)


def load_config(path):
    with open(path) as fh:
        text = fh.read()
    return config_from_text(text)


def config_from_text(text):
    sections = parse_sections(text)
    if "problem" not in sections:
        raise ConfigError("missing [problem] section")
    prob = sections["problem"]
    try:
        problem = SLProblem(
            p=_parse_coefficient(prob.get("p", "1.0"), "p"),
            q=_parse_coefficient(prob.get("q", "0.0"), "q"),
            r=_parse_coefficient(prob.get("r", "1.0"), "r"),
            b1=_get(prob, "b1", float, required=True),
            b2=_get(prob, "b2", float, required=True),
            a1=_get(prob, "a1", float, required=True),
            a2=_get(prob, "a2", float, required=True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    grid = sections.get("grid", {})
    spectral = sections.get("spectral", {})
    design = sections.get("design", {})
    clf = sections.get("clf", {})
    out = sections.get("output", {})
    simsec = sections.get("sim", {})

    sim = SimConfig(
        n_modes=_get(simsec, "n_modes", int, 64),
        dt=_get(simsec, "dt", float, 1e-4),
        t_final=_get(simsec, "t_final", _float_or_auto),
        integrator=_get(simsec, "integrator", str, "exponential_midpoint"),
        record_stride=_get(simsec, "record_stride", int, 10),
        max_steps=_get(simsec, "max_steps", int, 2_000_000),
    )

    semilinear = None
    if "semilinear" in sections:
        sl = sections["semilinear"]
        semilinear = SemilinearSettings(
            kind=_get(sl, "kind", str, required=True),
            scale=_get(sl, "scale", float, 0.0),
            lbar=_get(sl, "lbar", float, required=True),
            controller=_get(sl, "controller", str, "nonlinear"),
            kappa=_get(sl, "kappa", _float_or_auto),
        )

    cfg = RunConfig(
        problem=problem,
        n_points=_get(grid, "n_points", int, 2049),
        modes=_get(spectral, "modes", int, 96),
        richardson=_get(spectral, "richardson", _bool, True),
        N=_get(design, "N", int, required=True),
        j=_get(design, "j", int, required=True),
        mus=_get(design, "mus", floats, required=True),
        sigma=_get(design, "sigma", floats, [1.0]),
        gain_mode=_get(design, "gain_mode", str, "closed_form"),
        Ls=_get(design, "Ls", floats, []),
        safety=_get(clf, "safety", float, 2.0),
        m_max=_get(clf, "M_max", int, 512),
        semilinear=semilinear,
        sim=sim,
        w0_modes=_get(simsec, "w0_modes", floats, [1.0]),
        y0=_get(simsec, "y0", floats, None) or [0.0] * _get(design, "j", int, required=True),
        out_dir=out.get("out_dir"),
        seed=_get(out, "seed", int, 0),
    )
    return cfg.validate()


def _coef_text(coef):
    return coef.spec_string()


def config_to_text(cfg):
    """Canonical full-precision serialization (round-trips through load)."""
    lines = ["[problem]"]
    pr = cfg.problem
    lines += [f"p = {_coef_text(pr.p)}", f"q = {_coef_text(pr.q)}", f"r = {_coef_text(pr.r)}",
              f"b1 = {pr.b1!r}", f"b2 = {pr.b2!r}", f"a1 = {pr.a1!r}", f"a2 = {pr.a2!r}"]
    lines += ["", "[grid]", f"n_points = {cfg.n_points}"]
    lines += ["", "[spectral]", f"modes = {cfg.modes}",
              f"richardson = {'true' if cfg.richardson else 'false'}"]
    lines += ["", "[design]", f"N = {cfg.N}", f"j = {cfg.j}",
              f"mus = {vec(cfg.mus)}",
              f"sigma = {vec(cfg.sigma)}",
              f"gain_mode = {cfg.gain_mode}"]
    if cfg.Ls:
        lines.append(f"Ls = {vec(cfg.Ls)}")
    lines += ["", "[clf]", f"safety = {cfg.safety!r}", f"M_max = {cfg.m_max}"]
    if cfg.semilinear is not None:
        sl = cfg.semilinear
        lines += ["", "[semilinear]", f"kind = {sl.kind}", f"scale = {sl.scale!r}",
                  f"lbar = {sl.lbar!r}", f"controller = {sl.controller}",
                  f"kappa = {'auto' if sl.kappa is None else repr(sl.kappa)}"]
    sim = cfg.sim
    lines += ["", "[sim]", f"n_modes = {sim.n_modes}", f"dt = {sim.dt!r}",
              f"t_final = {'auto' if sim.t_final is None else repr(sim.t_final)}",
              f"integrator = {sim.integrator}", f"record_stride = {sim.record_stride}",
              f"max_steps = {sim.max_steps}",
              f"w0_modes = {vec(cfg.w0_modes)}",
              f"y0 = {vec(cfg.y0)}"]
    lines += ["", "[output]"]
    if cfg.out_dir is not None:
        lines.append(f"out_dir = {cfg.out_dir}")
    lines.append(f"seed = {cfg.seed}")
    return "\n".join(lines) + "\n"
