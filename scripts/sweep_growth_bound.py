#!/usr/bin/env python3
"""Sweep the nonlinearity growth constant across the certification boundary.

For each lbar on a grid the script reports whether the cancellation and
domination controllers certify, and (optionally) simulates a few runs just
above the bound to probe how sharp the certificate is in practice; those
runs are flagged as uncertified.
"""

import argparse

import numpy as np

from clfpde import pipeline
from clfpde.presets import preset_config
from clfpde.semilinear import (
    NonlinearitySpec,
    build_semilinear_design,
    max_growth_bound,
)
from clfpde.sim import fit_decay_rate, simulate_semilinear


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--points", type=int, default=12)
    ap.add_argument("--max-lbar", type=float, default=0.35)
    ap.add_argument("--simulate-above", action="store_true",
                    help="also run two uncertified simulations beyond the bound")
    args = ap.parse_args()

    bundle = pipeline.design(preset_config("3.3"))
    sl = bundle.sl_design
    bound = max_growth_bound(sl.mus, sl.norms_sq, sl.g, sl.lambda_next)
    print(f"growth bound (cancellation controller): {bound:.6f}\n")
    print(f"{'lbar':>8} {'cancellation':>14} {'domination':>12}")
    for lbar in np.linspace(args.max_lbar / args.points, args.max_lbar, args.points):
        nl = build_semilinear_design(bundle.model, bundle.shapes, lbar,
                                     sigma=1.0, controller_kind="nonlinear")
        lin = build_semilinear_design(bundle.model, bundle.shapes, lbar,
                                      sigma=50.0, controller_kind="linear")
        print(f"{lbar:8.4f} {str(nl.certified):>14} {str(lin.certified):>12}")

    if args.simulate_above:
        print("\nuncertified probes beyond the bound (sine nonlinearity):")
        w0, y0 = pipeline.initial_state(bundle)
        for lbar in (1.02 * bound, 1.2 * bound):
            design = build_semilinear_design(bundle.model, bundle.shapes, lbar,
                                             sigma=1.0, controller_kind="nonlinear")
            F = NonlinearitySpec.make("sine_type", scale=lbar)
            traj = simulate_semilinear(bundle.eigsys, bundle.shapes, design, F,
                                       w0, y0, bundle.config.sim)
            fit = fit_decay_rate(traj)
            print(f"  lbar={lbar:.4f} certified={traj.certified} "
                  f"fitted rate={fit.rate:.4f} r2={fit.r_squared:.4f}")


if __name__ == "__main__":
    main()
