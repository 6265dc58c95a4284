"""Benchmark reproduction: computed values against closed-form references.

Each bundled benchmark has analytic eigendata, input-matrix entries, gains,
kernel expressions, and (for the two-mode plant) a growth-bound quote; the
reproduce op runs the design pipeline and tabulates relative errors.
Mismatches are reported, never raised.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import pipeline
from .errors import ConfigError
from .presets import (
    PRESET_IDS,
    preset_config,
    single_mode_kernel_closed_form,
    single_mode_reference,
    single_mode_tail_sum,
    two_mode_reference,
)
from .reduced import closed_form_B
from .semilinear import max_growth_bound
from .textio import write_csv


@dataclass
class ReproduceRow:
    name: str
    computed: float
    reference: float

    @property
    def rel_err(self):
        if self.reference == 0.0:
            return abs(self.computed)     # absolute deviation for zero references
        return abs(self.computed - self.reference) / abs(self.reference)


@dataclass
class ReproduceReport:
    preset_id: str
    rows: list = field(default_factory=list)

    def add(self, name, computed, reference):
        self.rows.append(ReproduceRow(name, float(computed), float(reference)))

    def text(self):
        w = max(len(r.name) for r in self.rows) + 2
        lines = [f"benchmark {self.preset_id}: computed vs reference",
                 f"{'quantity'.ljust(w)}{'computed':>24}{'reference':>24}{'rel_err':>12}"]
        for r in self.rows:
            lines.append(f"{r.name.ljust(w)}{r.computed:>24.16g}{r.reference:>24.16g}"
                         f"{r.rel_err:>12.3e}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        write_csv(path, ["quantity", "computed", "reference", "rel_err"],
                  ([r.name, r.computed, r.reference, r.rel_err] for r in self.rows))


def reproduce(preset_id, out_dir=None):
    if preset_id not in PRESET_IDS:
        raise ConfigError(f"unknown benchmark id {preset_id!r}; known: {PRESET_IDS}")
    report = _reproduce_two_mode() if preset_id == "3.3" else _reproduce_single_mode()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        report.write_csv(os.path.join(out_dir, f"reproduce_{preset_id}.csv"))
        with open(os.path.join(out_dir, f"reproduce_{preset_id}.txt"), "w") as fh:
            fh.write(report.text())
    return report


def _reproduce_two_mode():
    cfg = preset_config("3.3")
    bundle = pipeline.design(cfg)
    ref = two_mode_reference()
    report = ReproduceReport("3.3")

    for n in range(1, 9):
        report.add(f"lambda_{n}", bundle.eigsys.lambdas[n - 1], ref["lambda"](n))
    for i in range(2):
        report.add(f"shape_norm_sq_{i + 1}", bundle.shapes.norms_sq[i], 0.5)
    for n in range(2):
        for i in range(2):
            report.add(f"B_{n + 1}{i + 1}", bundle.model.B[n, i], ref["B"][n, i])
    B_cf = closed_form_B(cfg.problem, bundle.eigsys, bundle.shapes.mus, 2)
    report.add("B_route_agreement", float(np.max(np.abs(bundle.model.B - B_cf))), 0.0)

    g = bundle.sl_design.g
    for i in range(2):
        for m in range(2):
            report.add(f"g_{i + 1}{m + 1}", g[i, m], ref["g"][i, m])
    # controller coefficients in the plain-sine convention
    coef = np.sqrt(2.0) * g
    paper_coef = np.array([[63.0 * np.pi / 256.0 * 30.0, 63.0 * np.pi / 256.0 * 11.0],
                           [-495.0 * np.pi / 256.0 * 14.0, -495.0 * np.pi / 256.0 * 3.0]])
    for i in range(2):
        for m in range(2):
            report.add(f"controls_coef_{i + 1}{m + 1}", coef[i, m], paper_coef[i, m])

    lbar_max = max_growth_bound(bundle.sl_design.mus, bundle.sl_design.norms_sq,
                                g, bundle.sl_design.lambda_next)
    report.add("lbar_max", lbar_max, ref["lbar_quote"])
    return report


def _reproduce_single_mode():
    p, q, sigma, L = 1.0, -2.0 * np.pi ** 2, 1.0, 1.0
    cfg = preset_config("2.4", p=p, q=q, sigma=sigma, L=L)
    bundle = pipeline.design(cfg)
    ref = single_mode_reference(p, q, sigma)
    report = ReproduceReport("2.4")

    for n in range(1, 9):
        report.add(f"lambda_{n}", bundle.eigsys.lambdas[n - 1], ref["lambda"](n))
    report.add("shape_norm_sq", bundle.shapes.norms_sq[0], ref["shape_norm_sq"])
    report.add("B_11", bundle.model.B[0, 0], ref["B11"])
    report.add("gain_K", bundle.gains.K[0, 0], ref["K"])

    # quoted inequality instances for the chosen (omega, gamma)
    omega = float(bundle.params.omegas[0])
    gamma = bundle.params.gamma
    s = sigma - p * np.pi ** 2 - q
    lhs1 = 4.0 * sigma * (25.0 * p * np.pi ** 2 + 4.0 * q)
    rhs1 = 441.0 * np.pi ** 2 * s ** 2 * omega
    report.add("weight_ineq_ratio", lhs1 / rhs1, 2.0)  # saturated at the safety factor
    lhs2 = 128.0 * p * np.pi ** 2 * sigma
    rhs2 = 441.0 * np.pi ** 2 * gamma * s ** 2
    report.add("tail_ineq_holds", float(lhs2 >= rhs2), 1.0)

    # kernel samples against the closed form at the selected (gamma, M),
    # evaluated on the nearest grid abscissae
    M = bundle.params.M
    idx = np.searchsorted(bundle.grid.x, np.linspace(0.1, 0.9, 9))
    xs = bundle.grid.x[idx]
    k_ref = single_mode_kernel_closed_form(xs, p, q, sigma, gamma, L, M)
    for xv, ki, kr in zip(xs, bundle.law.kernels[0][idx], k_ref):
        report.add(f"kernel_at_{xv:.4f}", ki, kr)

    # truncation condition in its closed form
    tail = single_mode_tail_sum(M)
    lhs = p * np.pi ** 4 * ((M + 1) ** 2 - 4.0)
    rhs = 8.0 * gamma * L * tail
    report.add("truncation_closed_form_holds", float(lhs >= rhs), 1.0)
    return report
