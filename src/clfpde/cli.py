"""Command-line interface.

Subcommands: design, check, simulate, reproduce, export.
Exit codes: 0 success, 2 invalid configuration, usage or input/output path,
3 certification failed, 4 simulation instability.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline
from .artifact import compare_verdicts, load_artifact, save_artifact
from .config import load_config
from .errors import ConfigError, Instability, NonPositiveCoefficient, ToolkitError
from .reproduce import reproduce
from .semilinear import export_controller_coefficients_csv
from .sim import FIT_MIN_SAMPLES, fit_decay_rate, write_trajectory_csv
from .textio import read_csv, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_INSTABILITY = 4


def _say(args, *msg):
    if not args.quiet:
        print(*msg)


def _out_dir(args, cfg=None):
    if args.out:
        return args.out
    if cfg is not None and cfg.out_dir:
        return cfg.out_dir
    env = os.environ.get("CLF_OUT_DIR")
    if env:
        return env
    return "clfpde_out"


def _load_cfg(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.modes is not None:
        cfg.sim.n_modes = args.modes
    if args.dt is not None:
        cfg.sim.dt = args.dt
    return cfg.validate()


def _design_and_certify(args, cfg):
    out = _out_dir(args, cfg)
    os.makedirs(out, exist_ok=True)
    try:
        bundle = pipeline.design(cfg)
        pipeline.certify(bundle)
    except ToolkitError as exc:
        with open(os.path.join(out, "report.txt"), "w") as fh:
            fh.write(f"design failed: {type(exc).__name__}: {exc}\n")
        raise
    save_artifact(bundle, os.path.join(out, "artifact"))
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(pipeline.report_text(bundle))
    return bundle, out


def cmd_design(args):
    bundle, out = _design_and_certify(args, _load_cfg(args))
    _say(args, pipeline.report_text(bundle))
    _say(args, f"artifact written to {os.path.join(out, 'artifact')}")
    return EXIT_OK if bundle.certified else EXIT_CERTIFICATION


def cmd_check(args):
    if args.artifact:
        bundle = load_artifact(args.artifact)
        stored = list(bundle.verdicts)
        pipeline.certify(bundle)
        reproduced = compare_verdicts(stored, bundle.verdicts)
        _say(args, pipeline.report_text(bundle))
        _say(args, f"verdicts reproduced: {reproduced}")
        return EXIT_OK if (bundle.certified and reproduced) else EXIT_CERTIFICATION
    cfg = _load_cfg(args)
    bundle = pipeline.design(cfg)
    pipeline.certify(bundle)
    _say(args, pipeline.report_text(bundle))
    return EXIT_OK if bundle.certified else EXIT_CERTIFICATION


def cmd_simulate(args):
    cfg = _load_cfg(args)
    # both gain modes design sigma = min(cfg.sigma), so the counts need no design
    sigma = min(cfg.sigma)
    samples = cfg.sim.samples(sigma)
    if samples < FIT_MIN_SAMPLES:
        raise ConfigError(f"the run records {samples} samples; fitting the decay rate "
                          f"needs at least {FIT_MIN_SAMPLES}")
    if cfg.semilinear is not None:
        cfg.sim.check_quadrature_budget(cfg.semilinear.nonlinearity(), sigma)
    bundle, out = _design_and_certify(args, cfg)
    _say(args, pipeline.report_text(bundle))
    if not bundle.certified and not args.uncertified:
        _say(args, "certification failed; pass --uncertified to simulate anyway")
        return EXIT_CERTIFICATION
    traj = pipeline.simulate(bundle)
    if not bundle.certified:
        traj.certified = False
    path = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(traj, path)
    if bundle.sl_design is not None:
        export_controller_coefficients_csv(
            bundle.sl_design, os.path.join(out, "controller_coefficients.csv"))
    fit = fit_decay_rate(traj)
    _say(args, f"trajectory written to {path} ({traj.samples} samples, "
               f"certified={traj.certified})")
    _say(args, f"fitted decay: rate={fit.rate:.6g} amplitude={fit.amplitude:.6g} "
               f"r2={fit.r_squared:.6f}")
    return EXIT_OK


def cmd_reproduce(args):
    report = reproduce(args.id, _out_dir(args) if args.out else None)
    _say(args, report.text())
    return EXIT_OK


def cmd_export(args):
    header, rows = read_csv(args.traj)
    rows = rows[::args.stride]          # keeps the first row; time stays monotone
    dest = args.out or (os.path.splitext(args.traj)[0] + f".stride{args.stride}.csv")
    write_csv(dest, header, (row.tolist() for row in rows))
    _say(args, f"wrote {dest} ({len(rows)} rows)")
    return EXIT_OK


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="clfpde",
        description="Design and verify boundary feedback for 1-D parabolic plants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="run configuration file")
        p.add_argument("--out", help="output directory (falls back to CLF_OUT_DIR)")
        p.add_argument("--seed", type=int, help="seed of the semilinear spot-check states")
        p.add_argument("--modes", type=int, help="override simulation mode count")
        p.add_argument("--dt", type=float, help="override simulation time step")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")

    p = sub.add_parser("design", help="run the design chain and certify it")
    common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("check", help="re-verify an artifact or certify a config")
    common(p, config_required=False)
    p.add_argument("--artifact", help="artifact directory to re-verify")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="full pipeline: design, certify, simulate")
    common(p)
    p.add_argument("--uncertified", action="store_true",
                   help="simulate even if certification failed (flagged in output)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="compare a bundled benchmark against references")
    p.add_argument("id", help="benchmark id: 2.4 or 3.3")
    p.add_argument("--out", help="also write the comparison table here")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("export", help="downsample a trajectory CSV for plotting")
    p.add_argument("--traj", required=True, help="trajectory CSV to downsample")
    p.add_argument("--stride", type=_positive_int, default=10)
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and not args.artifact and not args.config:
        parser.error("check needs --artifact or --config")
    try:
        return args.func(args)
    except (ConfigError, NonPositiveCoefficient, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Instability as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except ToolkitError as exc:
        print(f"certification failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
