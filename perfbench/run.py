"""Benchmark of clfpde's design -> certify -> simulate chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh processes:
a few that only set up (import clfpde, parse the configurations) and one
that also runs whole rounds of the workload's operations for S seconds of
operation time and checks every output.  The last line of standard output
is one JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics and the tracing overhead (--trace 1).  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
NEEDED = ("BENCHMARK.json", "src/clfpde/__init__.py",
          "configs/single_mode.cfg", "configs/two_mode_semilinear.cfg")
# One BLAS/OpenMP thread for every process (at most nproc anywhere): the
# chain's matrices are small, and small shared machines have few cores.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 4          # fresh set-up-only processes, besides the measuring one
RUN_LIMIT_S = 170.0


def child_env():
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline):
    proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return float(statistics.median(values))


def end_to_end(setups, run):
    out = {"setup_s": median(setups), "wall_s": median(run["rounds"])}
    for name in ("design_s", "certify_s", "simulate_s", "write_s", "recheck_s",
                 "traj_err", "eig_err"):
        out[name] = median(run[name])
    out["peak_rss_mb"] = run["peak_rss_mb"]
    return out


def print_table(values, units):
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"{name:<{width}}  {values[name]:>14.6g}  {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a clfpde checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    os.environ.update({var: THREADS for var in THREAD_VARS})
    import inputs

    out = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    spec_path = os.path.join(out, "inputs.json")
    with open(spec_path, "w") as fh:
        json.dump(inputs.make_inputs(args.workload, args.seed, ROOT, out), fh)
    common = ["--inputs", spec_path, "--seconds", str(args.seconds)]

    if args.trace:
        base = run_worker(common, deadline)
        run = run_worker(common + ["--trace", "1"], deadline)
        values = dict(run["layers"])
        values["trace.overhead_s"] = median(run["rounds"]) - median(base["rounds"])
        runs = [base, run]
        print_table(values, units)
    else:
        setups = [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        run = run_worker(common, deadline)
        values = end_to_end(setups + [run["setup_s"]], run)
        runs = [run]

    problems = [p for r in runs for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
