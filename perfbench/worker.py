"""One workload in one fresh process: set up, run whole rounds, check every output.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Prints
one JSON line with the raw measurements.  With --setup-only it stops once
clfpde is imported and the configurations are parsed.
"""

from time import perf_counter

T_START = perf_counter()

import argparse          # noqa: E402
import json              # noqa: E402
import os                # noqa: E402
import resource          # noqa: E402
import statistics        # noqa: E402
import sys               # noqa: E402
import traceback         # noqa: E402

STEPS = ("design_s", "certify_s", "simulate_s", "write_s", "recheck_s")
EIG_TOL = 1e-5                  # eigensolver accuracy over the lower half of the modes
TRAJ_TOL = {"linear_closed_loop": 1e-4, "semilinear_closed_loop": 3e-2, "design_sweep": 1e-4}
CONTRACTION_TOL = 1e-3          # of max |c_n(0)|: time-step error of the midpoint rule
ROUND_TRIP_TOL = 1e-12
CLOSED_FORM_TOL = 1e-6
GROWTH_BOUND_QUOTE = 0.299      # Section 3.3 quotes the bound to three digits

# per-layer metric -> (span name, field): 0 self time, 1 calls, 2 amount
LAYERS = {
    "spectral.eigensolve_s": ("spectral.eigensolve", 0),
    "spectral.eigensolve_calls": ("spectral.eigensolve", 1),
    "shapes.build_s": ("shapes.build", 0),
    "reduced.gains_s": ("reduced.gains", 0),
    "lyapunov.clf_s": ("lyapunov.clf", 0),
    "lyapunov.coupling_table_calls": ("lyapunov.coupling_table", 1),
    "semilinear.design_s": ("semilinear.design", 0),
    "semilinear.f_evals": ("semilinear.f", 1),
    "semilinear.f_points": ("semilinear.f", 2),
    "pipeline.certify_s": ("pipeline.certify", 0),
    "sim.simulate_s": ("sim.simulate", 0),
    "sim.csv_write_s": ("sim.csv_write", 0),
    "sim.csv_bytes": ("sim.csv_write", 2),
    "artifact.save_s": ("artifact.save", 0),
    "artifact.bytes": ("artifact.save", 2),
    "artifact.load_s": ("artifact.load", 0),
}


def setup(spec, tracer):
    t0 = perf_counter()
    import clfpde  # noqa: F401
    from clfpde import config, spectral
    t1 = perf_counter()
    if tracer is not None:
        import spans
        tracer.record("clfpde.import", t0, t1)
        spans.install(tracer)
        t1 = perf_counter()
    cfgs = [config.load_config(path) for path in spec["configs"]]
    if tracer is not None:
        tracer.record("config.load", t1, perf_counter())
    spectral.make_grid(cfgs[0].n_points)
    return cfgs, perf_counter() - T_START


def run_op(cfg, out):
    """What `clfpde simulate` and `clfpde check --artifact` do, one step per timer."""
    from clfpde import artifact, pipeline, semilinear, sim
    t = [perf_counter()]
    bundle = pipeline.design(cfg)
    t.append(perf_counter())
    pipeline.certify(bundle)
    t.append(perf_counter())
    traj = pipeline.simulate(bundle)
    t.append(perf_counter())
    artifact.save_artifact(bundle, os.path.join(out, "artifact"))
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(pipeline.report_text(bundle))
    sim.write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"))
    if bundle.sl_design is not None:
        semilinear.export_controller_coefficients_csv(
            bundle.sl_design, os.path.join(out, "controller_coefficients.csv"))
    t.append(perf_counter())
    loaded = artifact.load_artifact(os.path.join(out, "artifact"))
    stored = list(loaded.verdicts)
    pipeline.certify(loaded)
    reproduced = artifact.compare_verdicts(stored, loaded.verdicts)
    t.append(perf_counter())
    times = dict(zip(STEPS, (b - a for a, b in zip(t, t[1:]))))
    return bundle, traj, loaded, reproduced, times


class Checker:
    """Compares each operation's outputs with references made apart from clfpde."""

    def __init__(self, spec):
        self.workload = spec["workload"]
        self.eig_ref = spec["eig_ref"]
        self.references = {}
        self.problems = []

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)

    def check(self, idx, cfg, out, bundle, traj, loaded, reproduced):
        """Run every check on one operation; return (traj_err, eig_err)."""
        import numpy as np
        import refs
        from clfpde import lyapunov
        tag = f"op {idx}"
        failed = [v.name for v in bundle.verdicts if not v.passed]
        self.expect(not failed, f"{tag}: design does not certify: {failed}")
        self._check_round_trip(tag, bundle.verdicts, loaded.verdicts, reproduced)

        eig_err = refs.eigenvalue_error(bundle.eigsys.lambdas, self.eig_ref)
        self.expect(eig_err <= EIG_TOL, f"{tag}: eigenvalue error {eig_err:.3e} > {EIG_TOL:g}")

        s = cfg.sim
        times = s.dt * s.record_stride * np.arange(traj.samples)
        self.expect(np.allclose(traj.times, times, rtol=1e-12, atol=1e-12),
                    f"{tag}: recorded times are not the configured grid")
        if idx not in self.references:
            if cfg.semilinear is None:
                self.references[idx] = refs.linear_reference(bundle, times)
            else:
                self.expect(cfg.semilinear.kind == "sine_type",
                            f"{tag}: reference models only sine_type nonlinearities")
                self.references[idx] = refs.semilinear_reference(bundle, times,
                                                                 cfg.semilinear.scale)
        Z = self.references[idx]
        n = s.n_modes
        traj_err = float(max(np.max(np.abs(Z[:, :n] - traj.coeffs)),
                             np.max(np.abs(Z[:, n:] - traj.y))))
        tol = TRAJ_TOL[self.workload]
        self.expect(traj_err <= tol, f"{tag}: trajectory error {traj_err:.3e} > {tol:g}")

        if cfg.semilinear is None:
            r = lyapunov.guaranteed_decay_rate(bundle.params, bundle.gains,
                                               bundle.shapes, bundle.eigsys)
            V = refs.lyapunov_values(traj.coeffs, traj.y, bundle.gains.R,
                                     bundle.params.gamma, bundle.params.omegas)
            envelope = V[0] * np.exp(-2.0 * r * times)
            self.expect(r > 0.0 and bool(np.all(V <= envelope * (1.0 + 1e-9) + 1e-300)),
                        f"{tag}: V exceeds V(0) exp(-2 r t) with r = {r!r}")
        else:
            self._check_semilinear(tag, cfg, bundle, traj, times)
        self._check_csv(tag, os.path.join(out, "trajectory.csv"), traj, times)
        return traj_err, eig_err

    def _check_round_trip(self, tag, before, after, reproduced):
        self.expect(reproduced, f"{tag}: compare_verdicts reports a changed verdict")
        same = len(before) == len(after) and all(
            a.name == b.name and a.passed == b.passed
            and abs(a.margin - b.margin) <= ROUND_TRIP_TOL * max(1.0, abs(a.margin), abs(b.margin))
            for a, b in zip(before, after))
        self.expect(same, f"{tag}: verdicts differ after the artifact round trip")

    def _check_semilinear(self, tag, cfg, bundle, traj, times):
        """Cancellation identity c_n(t) = c_n(0) exp(-sigma t), n <= N, and the 3.3 closed forms."""
        import numpy as np
        import refs
        sl = bundle.sl_design
        N = sl.N
        c0 = refs.initial_state(cfg)[:N]
        dev = np.max(np.abs(traj.coeffs[:, :N] - np.exp(-sl.sigma * times)[:, None] * c0))
        self.expect(dev <= CONTRACTION_TOL * np.max(np.abs(c0)),
                    f"{tag}: retained modes deviate {dev:.3e} from exp(-sigma t)")

        q = float(cfg.problem.q(np.zeros(1))[0])
        mus = np.asarray(cfg.mus)
        B = refs.dirichlet_input_matrix(q, mus, N)
        g = -np.linalg.inv(B)
        k = np.sqrt(mus - q)                  # varphi_i = sin(k x) / sin(k)
        norms_sq = (0.5 - np.sin(2.0 * k) / (4.0 * k)) / np.sin(k) ** 2
        lam_next = refs.dirichlet_constant_eigenvalues(q, N + 1)[N]
        bound = refs.growth_bound(mus, norms_sq, g, lam_next)
        note = next(v.note for v in bundle.verdicts if v.name == "semilinear_growth_bound")
        computed = float(note.split("lbar_max=", 1)[1].split()[0])
        for name, got, want in (("B", bundle.model.B, B), ("g", sl.g, g),
                                ("lbar_max", computed, bound)):
            rel = float(np.max(np.abs(got - want) / np.abs(want)))
            self.expect(rel <= CLOSED_FORM_TOL, f"{tag}: {name} off its closed form by {rel:.3e}")
        self.expect(abs(bound - GROWTH_BOUND_QUOTE) < 1e-3,
                    f"{tag}: closed-form growth bound {bound!r} is not the quoted 0.299")

    def _check_csv(self, tag, path, traj, times):
        import csv
        import numpy as np
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], np.array(rows[1:], dtype=float)
        ok = header[:5] == ["t", "norm_w", "norm_y", "V", "U"] and body.shape[0] == times.size \
            and np.allclose(body[:, 0], times, rtol=1e-12, atol=1e-12) \
            and np.array_equal(body[:, header.index("c_1")], traj.coeffs[:, 0])
        self.expect(ok, f"{tag}: trajectory.csv does not hold the recorded trajectory")


def layer_metrics(tracer, ops, simulated):
    table, design_margins = tracer.per_op()
    setup = table[-1]

    def median(values):
        return float(statistics.median(values))

    out = {"clfpde.import_s": setup["clfpde.import"][3],
           "config.load_s": setup["config.load"][3]}
    for metric, (name, field) in LAYERS.items():
        out[metric] = median(table[op][name][field] if name in table[op] else 0 for op in ops)
    out["semilinear.margin_evals"] = median(design_margins[op] for op in ops)
    out["sim.simtime_per_s"] = median(simulated[op] / table[op]["pipeline.simulate"][3]
                                      for op in ops)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(args.inputs) as fh:
        spec = json.load(fh)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    cfgs, setup_s = setup(spec, tracer)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = os.path.join(os.path.dirname(args.inputs), "op")
    os.makedirs(out, exist_ok=True)
    checker = Checker(spec)
    steps = {k: [] for k in STEPS}
    errs = {"traj_err": [], "eig_err": []}
    rounds, done, simulated = [], [], {}
    attempted = failed = 0
    # whole rounds only; stop before a round that would likely end past --seconds
    while not rounds or sum(rounds) + statistics.mean(rounds) <= args.seconds:
        wall = 0.0
        for idx, cfg in enumerate(cfgs):
            op = attempted
            attempted += 1
            if tracer is not None:
                tracer.op = op
            t0 = perf_counter()
            try:
                bundle, traj, loaded, reproduced, times = run_op(cfg, out)
            except Exception:        # a failed operation is counted, the run goes on
                failed += 1
                traceback.print_exc()
                continue
            finally:
                wall += perf_counter() - t0
            for k, v in times.items():
                steps[k].append(v)
            done.append(op)
            simulated[op] = float(traj.times[-1])
            for k, v in zip(errs, checker.check(idx, cfg, out, bundle, traj, loaded, reproduced)):
                errs[k].append(v)
        rounds.append(wall)

    result = {
        "setup_s": setup_s, "rounds": rounds, "attempted": attempted, "failed": failed,
        "problems": checker.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **steps, **errs,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, done, simulated)
        tracer.write_csv(os.path.join(os.path.dirname(args.inputs), "trace.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
