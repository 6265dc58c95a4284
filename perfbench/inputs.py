"""Workload inputs drawn from the seed: configuration files plus references.

The program receives only the configuration files written here.  The
reference eigenvalues come from refs.py and never from clfpde.
"""

import os

import numpy as np

import refs

# workload -> (shipped config, whether --seed replaces its spot-check seed).  The
# semilinear config keeps its shipped seed: for most other seeds the margin of
# its kernel_dual_path verdict moves by more than 1e-12 across the artifact
# round trip, so `clfpde check --artifact` would fail on some seeds only.
SHIPPED = {
    "linear_closed_loop": ("configs/single_mode.cfg", True),
    "semilinear_closed_loop": ("configs/two_mode_semilinear.cfg", False),
}

# design_sweep plant: p = 1 + 0.3x - 0.2x^2, q = -20 + 5x, r = 1 + 0.2x, Dirichlet ends
SWEEP_P = (1.0, 0.3, -0.2)
SWEEP_Q = (-20.0, 5.0)
SWEEP_R = (1.0, 0.2)
SWEEP_MODES = 48
SWEEP_SETTINGS = 10
SWEEP_SIGMA = (0.5, 3.0)
SWEEP_L = (0.0, 5.0)
SWEEP_MU_GAPS = (2, 3)          # mu lies between lambda_k and lambda_{k+1}
SWEEP_MU_FRACTION = (0.2, 0.8)  # ... at this fraction of the gap

SWEEP_TEMPLATE = """\
[problem]
p = poly: {p}
q = poly: {q}
r = poly: {r}
b1 = 1.0
b2 = 0.0
a1 = 1.0
a2 = 0.0

[grid]
n_points = 2049

[spectral]
modes = {modes}
richardson = true

[design]
N = 2
j = 1
mus = {mu!r}
sigma = {s1!r} {s2!r}
gain_mode = pole_placement
Ls = {L!r}

[clf]
safety = 2.0
M_max = 512

[sim]
n_modes = 32
dt = 0.0001
t_final = 1.0
integrator = exponential_midpoint
record_stride = 10
w0_modes = 1.0 0.5
y0 = 0.3

[output]
seed = {seed}
"""


def _sections(text):
    out, current = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = out.setdefault(line[1:-1], {})
        elif "=" in line:
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
    return out


def _with_seed(text, seed):
    lines = [ln for ln in text.splitlines() if not ln.strip().startswith("seed")]
    i = lines.index("[output]")
    return "\n".join(lines[: i + 1] + [f"seed = {seed}"] + lines[i + 1:]) + "\n"


def _latin_hypercube(rng, n, lo, hi):
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def sweep_settings(seed, lambdas):
    """The seed's list of (sigma_1, sigma_2, L, mu), Latin-hypercube stratified."""
    rng = np.random.default_rng(seed)
    n = SWEEP_SETTINGS
    s1 = _latin_hypercube(rng, n, *SWEEP_SIGMA)
    s2 = _latin_hypercube(rng, n, *SWEEP_SIGMA)
    L = _latin_hypercube(rng, n, *SWEEP_L)
    u = _latin_hypercube(rng, n, 0.0, len(SWEEP_MU_GAPS))
    settings = []
    for i in range(n):
        k = SWEEP_MU_GAPS[int(u[i])]
        lo, hi = SWEEP_MU_FRACTION
        frac = lo + (hi - lo) * (u[i] % 1.0)
        mu = lambdas[k - 1] + frac * (lambdas[k] - lambdas[k - 1])
        settings.append((float(s1[i]), float(s2[i]), float(L[i]), float(mu)))
    return settings


def make_inputs(workload, seed, root, out_dir):
    """Write the workload's configuration files; return the inputs description."""
    if workload in SHIPPED:
        path, seeded = SHIPPED[workload]
        with open(os.path.join(root, path)) as fh:
            text = fh.read()
        prob = _sections(text)["problem"]
        if any(prob.get(k) != v for k, v in (("p", "1.0"), ("r", "1.0"), ("b2", "0.0"), ("a2", "0.0"))):
            raise ValueError(f"{path} is no longer a constant-coefficient Dirichlet plant")
        modes = int(_sections(text)["spectral"]["modes"])
        eig_ref = refs.dirichlet_constant_eigenvalues(float(prob["q"]), modes // 2)
        texts = [_with_seed(text, seed) if seeded else text]
    else:
        lambdas = refs.chebyshev_eigenvalues(SWEEP_P, SWEEP_Q, SWEEP_R, SWEEP_MODES)
        eig_ref = lambdas[: SWEEP_MODES // 2]
        fmt = lambda c: " ".join(repr(v) for v in c)      # noqa: E731
        texts = [SWEEP_TEMPLATE.format(p=fmt(SWEEP_P), q=fmt(SWEEP_Q), r=fmt(SWEEP_R),
                                       modes=SWEEP_MODES, mu=mu, s1=s1, s2=s2, L=L, seed=seed)
                 for s1, s2, L, mu in sweep_settings(seed, lambdas)]
    cfg_paths = [os.path.join(out_dir, f"op{i}.cfg") for i in range(len(texts))]
    for cfg_path, text in zip(cfg_paths, texts):
        with open(cfg_path, "w") as fh:
            fh.write(text)
    return {"workload": workload, "configs": cfg_paths, "eig_ref": [float(v) for v in eig_ref]}
