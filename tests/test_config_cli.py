import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clfpde import pipeline, spectral
from clfpde.artifact import (
    Verdict,
    _parse_verdict_lines,
    compare_verdicts,
    load_artifact,
    save_artifact,
)
from clfpde.cli import main as cli_main
from clfpde.config import config_from_text, config_to_text, load_config
from clfpde.errors import ConfigError
from clfpde.presets import preset_config
from clfpde.reproduce import reproduce
from clfpde.textio import read_csv, write_csv

PI = np.pi
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# -- config parsing ------------------------------------------------------------

def test_config_roundtrip_exact():
    cfg = preset_config("3.3")
    text = config_to_text(cfg)
    back = config_from_text(text)
    assert config_to_text(back) == text
    assert back.mus == cfg.mus
    assert back.problem.q.values == cfg.problem.q.values
    assert back.semilinear.lbar == cfg.semilinear.lbar


def test_config_coefficient_spellings():
    text = """
[problem]
p = poly: 1.0 0.5
q = table(order=1): 0.0 0.5 1.0 | -1.0 -2.0 -1.0
r = 1.0
b1 = 1.0
b2 = 0.0
a1 = 1.0
a2 = 0.0
[design]
N = 1
j = 1
mus = 5.0
"""
    cfg = config_from_text(text)
    assert cfg.problem.p.kind == "polynomial"
    assert cfg.problem.q.kind == "table"
    assert abs(cfg.problem.q(np.array([0.25]))[0] + 1.5) < 1e-12


@pytest.mark.parametrize("mutation, message_part", [
    ("b2 = 0.5", "unit vector"),
    ("N = 0", "N and j"),
    ("n_points = 2048", "odd"),
    ("mus = 1.0 2.0", "mu values"),
    ("Ls = -1.0", "Ls values must be >= 0"),
    ("p = table(foo=1): 0.0 1.0 | 1.0 1.0", "unknown table option 'foo'"),
    pytest.param("[sim]\nw0_modes = " + " ".join(["0.5"] * 97), "w0_modes has 97 values",
                 id="w0_modes_beyond_modes"),
    pytest.param("[clf]\nsafety = 0.0", "safety must be positive", id="safety_zero"),
    pytest.param("[clf]\nsafety = -2.0", "safety must be positive", id="safety_negative"),
    pytest.param("[clf]\nsafty = 0.5", "unknown key 'safty' in [clf]", id="key_unknown"),
    pytest.param("[simm]\nt_final = 8.0", "unknown section [simm]", id="section_unknown"),
    pytest.param("sigma = nan", "key 'sigma': cannot parse 'nan' (must be finite)",
                 id="sigma_nan"),
    pytest.param("[sim]\ny0 = nan", "key 'y0': cannot parse 'nan'", id="y0_nan"),
    pytest.param("[semilinear]\nkind = sine_type\nlbar = 0.1\nscale = nan",
                 "key 'scale': cannot parse 'nan'", id="scale_nan"),
    pytest.param("[semilinear]\nkind = sine_type\nlbar = 0.1\nkappa = -1.0",
                 "kappa must be auto or > 0", id="kappa_negative"),
    pytest.param("mus = 0.0", "mus must be > 0, got mu=0.0", id="mus_zero"),
    pytest.param("[sim]\nintegrator = rk4",
                 "key 'integrator' accepts only 'exponential_midpoint', got 'rk4'",
                 id="integrator_rk4"),
])
def test_config_validation_errors(mutation, message_part):
    base = """
[problem]
p = 1.0
q = -19.7
r = 1.0
b1 = 1.0
b2 = 0.0
a1 = 1.0
a2 = 0.0
[grid]
n_points = 2049
[design]
N = 1
j = 1
mus = 41.9
"""
    key = mutation.split("=")[0].strip()
    lines = []
    replaced = False
    for line in base.splitlines():
        if line.split("=")[0].strip() == key and not replaced:
            lines.extend(mutation.splitlines())
            replaced = True
        else:
            lines.append(line)
    if not replaced:
        lines.extend(mutation.splitlines())
    with pytest.raises(ConfigError) as err:
        config_from_text("\n".join(lines))
    assert message_part in str(err.value)


def test_semilinear_requires_square(tmp_path):
    cfg_text = config_to_text(preset_config("3.3")).replace("N = 2", "N = 1")
    with pytest.raises(ConfigError):
        config_from_text(cfg_text)


# -- artifact round trip ----------------------------------------------------------

def test_artifact_roundtrip_reverifies(tmp_path, two_mode_bundle):
    out = tmp_path / "artifact"
    save_artifact(two_mode_bundle, out)
    loaded = load_artifact(out)
    stored = list(loaded.verdicts)
    assert len(stored) == len(two_mode_bundle.verdicts)
    again = tmp_path / "again"
    save_artifact(loaded, again)
    assert _tree(again) == _tree(out)
    pipeline.certify(loaded)
    assert compare_verdicts(stored, loaded.verdicts, tol=1e-12)
    assert loaded.certified
    assert np.array_equal(loaded.model.B, two_mode_bundle.model.B)
    assert np.array_equal(loaded.eigsys.lambdas, two_mode_bundle.eigsys.lambdas)
    assert np.array_equal(loaded.law.kernel_coeffs, two_mode_bundle.law.kernel_coeffs)
    assert loaded.sl_design.kappa == two_mode_bundle.sl_design.kappa


def _tree(root):
    """{relative path: bytes} of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


ROUND_TRIP_DESIGNS = {
    "two_mode_semilinear": lambda: load_config(CONFIGS / "two_mode_semilinear.cfg"),
    "cancellation-sigma0.5-lbar0.1": lambda: preset_config("3.3", sigma=0.5, lbar=0.1),
    "cancellation-sigma2-lbar0.2": lambda: preset_config("3.3", sigma=2.0, lbar=0.2),
    "domination-sigma20-lbar0.1": lambda: preset_config("3.3", sigma=20.0, lbar=0.1,
                                                        controller="linear"),
    "domination-sigma100-lbar0.005": lambda: preset_config("3.3", sigma=100.0, lbar=0.005,
                                                           controller="linear"),
}


@pytest.mark.parametrize("name", list(ROUND_TRIP_DESIGNS))
def test_artifact_roundtrip_reproduces_semilinear_verdicts(tmp_path, name):
    # the reloaded eigenfunctions are C-ordered; the designed ones must be
    # too, or BLAS sums the kernel products in another order and the
    # kernel_dual_path margin moves by more than 1e-12.  The S-lemma search
    # reads the design alone, so its margin comes back bit for bit
    bundle = pipeline.design(ROUND_TRIP_DESIGNS[name]())
    pipeline.certify(bundle)
    assert bundle.certified
    out = tmp_path / "artifact"
    save_artifact(bundle, out)
    loaded = load_artifact(out)
    stored = list(loaded.verdicts)
    pipeline.certify(loaded)
    assert compare_verdicts(stored, loaded.verdicts)
    margins = [{v.name: v.margin for v in verdicts} for verdicts in (stored, loaded.verdicts)]
    assert margins[0]["semilinear_dissipation"] == margins[1]["semilinear_dissipation"]


def test_retired_keys_load_and_are_not_written():
    # [spectral] richardson, [sim] integrator and [output] seed steer nothing:
    # a file may still set them, seed to any integer and the others to their
    # one value, and the canonical text leaves them out
    text = (CONFIGS / "two_mode_semilinear.cfg").read_text()
    for line in ("richardson = true", "integrator = exponential_midpoint", "seed = 0"):
        assert line in text
    canonical = config_to_text(config_from_text(text))
    assert not re.search(r"^(richardson|integrator|seed) =", canonical, re.M)
    assert config_to_text(config_from_text(text.replace("seed = 0", "seed = -7"))) == canonical
    with pytest.raises(ConfigError, match="key 'seed': cannot parse 'abc'"):
        config_from_text(text.replace("seed = 0", "seed = abc"))


def test_benchmark_sweep_template_loads():
    # perfbench writes its design_sweep configs with all three retired keys
    sys.path.insert(0, str(CONFIGS.parent / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.remove(str(CONFIGS.parent / "perfbench"))
    text = inputs.SWEEP_TEMPLATE.format(p="1.0 0.3 -0.2", q="-20.0 5.0", r="1.0 0.2", modes=48,
                                        mu=99.8, s1=2.7, s2=0.6, L=0.2, seed=-3)
    cfg = config_from_text(text)
    assert (cfg.modes, cfg.N, cfg.sim.n_modes) == (48, 2, 32)


def test_eigen_contracts_evaluated_once_per_eigensystem(tmp_path, monkeypatch):
    # the eigensolve guard and certify share one evaluation; a loaded
    # eigensystem evaluates its own when certify first needs it.  An earlier test
    # may have designed this plant: clearing the memo makes this design solve it
    pipeline.plant_eigensystem.cache_clear()
    calls = []
    evaluate = spectral.eigen_contracts
    monkeypatch.setattr(spectral, "eigen_contracts",
                        lambda eig: calls.append(eig) or evaluate(eig))
    bundle = pipeline.design(preset_config("2.4"))
    pipeline.certify(bundle)
    assert calls == [bundle.eigsys]
    save_artifact(bundle, tmp_path)
    loaded = load_artifact(tmp_path)
    assert len(calls) == 1
    pipeline.certify(loaded)
    assert len(calls) == 2 and calls[1] is loaded.eigsys


def robin_config(tmp_path, end):
    """The shipped single-mode plant with q = -12 and a Robin end at x=0 (b) or x=1 (a)."""
    text = (CONFIGS / "single_mode.cfg").read_text()
    for old, new in (("q = -19.739208802178716", "q = -12.0"), ("\nmodes = 96", "\nmodes = 48"),
                     ("n_modes = 64", "n_modes = 32"),
                     (f"{end}1 = 1.0", f"{end}1 = 0.8253356149096783"),
                     (f"{end}2 = 0.0", f"{end}2 = 0.5646424733950354")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / f"robin_{end}.cfg"
    path.write_text(text)
    return path


def test_artifacts_load_under_another_blas_kernel(tmp_path):
    # eigen.csv carries lambda, dphi0, dphi1 and a collocated plant's node
    # values: a reload under the writing kernel reproduces every verdict margin
    # exactly, and one under another OpenBLAS kernel, whose interpolation to
    # the grid runs there too, re-derives design.txt within its 1e-12 rule
    paths = []
    for cfg in (CONFIGS / "single_mode.cfg", CONFIGS / "two_mode_semilinear.cfg",
                robin_config(tmp_path, "b")):
        bundle = pipeline.design(load_config(cfg))
        pipeline.certify(bundle)
        paths.append(str(tmp_path / cfg.stem))
        save_artifact(bundle, paths[-1])
        loaded = load_artifact(paths[-1])
        pipeline.certify(loaded)
        assert loaded.certified and compare_verdicts(bundle.verdicts, loaded.verdicts, tol=0.0)
    assert bundle.eigsys.node_values is not None        # the Robin plant is collocated
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys; from clfpde.artifact import load_artifact; [load_artifact(p) for p in sys.argv[1:]]"
    proc = subprocess.run([sys.executable, "-c", code, *paths], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("end", ["b", "a"])
def test_robin_end_certifies(tmp_path, end):
    assert cli_main(["check", "--config", str(robin_config(tmp_path, end)), "--quiet"]) == 0


def test_verdict_line_roundtrip_numpy_margin():
    verdict = Verdict("shape_boundary_residual", False, np.float64(-4.639314577532417e-06),
                      "worst=1e-3")
    assert type(verdict.margin) is float
    name, value = verdict.line().split(" = ", 1)
    (back,) = _parse_verdict_lines({name: value})
    assert back == verdict


# -- CLI ----------------------------------------------------------------------------

def quick_config(tmp_path, name="quick.cfg"):
    cfg = preset_config("2.4")
    cfg.sim.t_final = 1.0
    cfg.sim.n_modes = 32
    path = tmp_path / name
    path.write_text(config_to_text(cfg))
    return path


def test_cli_design_and_check(tmp_path):
    cfgpath = quick_config(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["design", "--config", str(cfgpath), "--out", str(out),
                     "--quiet"]) == 0
    assert (out / "artifact" / "design.txt").exists()
    assert (out / "report.txt").read_text().strip().endswith("CERTIFIED")
    assert cli_main(["check", "--artifact", str(out / "artifact"), "--quiet"]) == 0


def test_cli_simulate_writes_trajectory(tmp_path):
    cfgpath = quick_config(tmp_path)
    out = tmp_path / "sim"
    assert cli_main(["simulate", "--config", str(cfgpath), "--out", str(out),
                     "--quiet"]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,norm_w,norm_y,V,U,v_1,vbar_1,c_1"


def test_cli_rejects_malformed_boundary(tmp_path):
    cfgpath = quick_config(tmp_path)
    text = cfgpath.read_text().replace("a1 = 1.0", "a1 = 0.9")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert cli_main(["design", "--config", str(bad), "--quiet"]) == 2


def test_cli_unstable_cutoff_fails_certification(tmp_path):
    # q below -4 p pi^2 leaves lambda_2 < 0: the cutoff premise fails
    cfgpath = quick_config(tmp_path)
    text = cfgpath.read_text().replace(
        "q = -19.739208802178716", f"q = {-4.5 * PI ** 2!r}").replace(
        "mus = 41.94581870462977", f"mus = {(25.0 / 4.0 - 4.5) * PI ** 2!r}")
    bad = tmp_path / "unstable.cfg"
    bad.write_text(text)
    out = tmp_path / "unstable_out"
    assert cli_main(["design", "--config", str(bad), "--out", str(out),
                     "--quiet"]) == 3
    assert "failed" in (out / "report.txt").read_text().lower()


def test_cli_instability_exit_code(tmp_path):
    # f(s) = 60 s is far beyond the certified growth bound (0.2996): modes past
    # the two retained ones grow, and a run forced with --uncertified blows up
    # under any step size; the pipeline reports it as instability, not failure
    cfg = preset_config("3.3", lbar=60.0, kind="linear_gain")
    cfg.sim.t_final = 5.0
    cfg.sim.n_modes = 24
    cfg.sim.dt = 1e-3
    cfgpath = tmp_path / "linear_gain_60.cfg"
    cfgpath.write_text(config_to_text(cfg))
    assert cli_main(["simulate", "--config", str(cfgpath), "--uncertified",
                     "--out", str(tmp_path / "blow"), "--quiet"]) == 4


def test_cli_semilinear_exports_controller_table(tmp_path):
    cfg = preset_config("3.3")
    cfg.sim.t_final = 0.5
    cfg.sim.n_modes = 24
    cfg.sim.dt = 5e-4
    cfgpath = tmp_path / "semi.cfg"
    cfgpath.write_text(config_to_text(cfg))
    out = tmp_path / "semi_out"
    assert cli_main(["simulate", "--config", str(cfgpath), "--out", str(out),
                     "--quiet"]) == 0
    table = (out / "controller_coefficients.csv").read_text().splitlines()
    assert table[0] == "i,m,g,sigma_minus_lambda"
    assert len(table) == 5
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,norm_w,norm_y,V,U,v_1,v_2,vbar_1,vbar_2,c_1,c_2"


def test_single_input_multi_mode_design(tmp_path):
    # two retained modes driven through one boundary input via pole placement
    cfg = preset_config("3.3")
    base = config_to_text(cfg)
    text = base.replace("j = 2", "j = 1")
    text = text.replace("mus = " + " ".join(repr(v) for v in cfg.mus),
                        f"mus = {cfg.mus[0]!r}")
    text = text.replace("gain_mode = closed_form", "gain_mode = pole_placement")
    text = text.replace("Ls = 0.0 0.0", "Ls = 0.0")
    text = text.replace("y0 = 0.2 -0.1", "y0 = 0.2")
    # the single-input loop is strongly non-normal (gains ~650): the norm
    # peaks by orders of magnitude before decaying, so give it a long
    # horizon; the exact propagator keeps V monotone through the peak at
    # the preset's step
    text = text.replace("t_final = 6.0", "t_final = 12.0")
    # drop the semilinear section (requires j == N)
    lines = text.splitlines()
    start = lines.index("[semilinear]")
    del lines[start:start + 6]
    cfgpath = tmp_path / "single_input.cfg"
    cfgpath.write_text("\n".join(lines) + "\n")
    out = tmp_path / "si_out"
    assert cli_main(["simulate", "--config", str(cfgpath), "--out", str(out),
                     "--quiet"]) == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert header[:5] == ["t", "norm_w", "norm_y", "V", "U"]
    V = rows[:, 3]
    assert np.all(np.diff(V) <= 1e-6 * np.maximum(V[:-1], 1e-300))
    norms = rows[:, 1] + rows[:, 2]
    assert norms[-1] < 0.05 * norms[0]    # decayed well below the start


def test_cli_reproduce_unknown_id(capsys):
    assert cli_main(["reproduce", "9.9", "--quiet"]) == 2
    assert capsys.readouterr().err == "error: unknown benchmark id '9.9'; known: ('2.4', '3.3')\n"


def test_cli_export_downsample(tmp_path):
    cfgpath = quick_config(tmp_path)
    out = tmp_path / "exp"
    assert cli_main(["simulate", "--config", str(cfgpath), "--out", str(out),
                     "--quiet"]) == 0
    traj = out / "trajectory.csv"
    dest = out / "plot.csv"
    assert cli_main(["export", "--traj", str(traj), "--stride", "10",
                     "--out", str(dest), "--quiet"]) == 0
    full = traj.read_text().splitlines()
    down = dest.read_text().splitlines()
    assert full[0] == down[0]
    n_full, n_down = len(full) - 1, len(down) - 1
    assert abs(n_down - n_full / 10) <= 1
    t = np.array([float(r.split(",")[0]) for r in down[1:]])
    V = np.array([float(r.split(",")[3]) for r in down[1:]])
    assert np.all(np.diff(t) > 0)
    assert np.all(np.diff(V) <= 1e-6 * np.maximum(V[:-1], 1e-300))
    # stride 1 is the identity
    same = out / "same.csv"
    assert cli_main(["export", "--traj", str(traj), "--stride", "1",
                     "--out", str(same), "--quiet"]) == 0
    assert len(same.read_text().splitlines()) == len(full)


def _table(text):
    def prepare(tmp_path, request):
        (tmp_path / "traj.csv").write_text(text)
    return prepare


def _damaged_artifact(table, damage, bundle="single_mode_bundle"):
    def prepare(tmp_path, request):
        save_artifact(request.getfixturevalue(bundle), tmp_path / "artifact")
        path = tmp_path / "artifact" / table
        path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
    return prepare


def _design_key(section, key, value, bundle="single_mode_bundle"):
    """design.txt with one key of one section set to value (None deletes it).

    A callable value maps the written value to the damaged one.
    """
    def damage(lines):
        start = lines.index(f"[{section}]")
        i = next(n for n in range(start, len(lines)) if lines[n].startswith(f"{key} ="))
        new = value(lines[i].split(" = ", 1)[1]) if callable(value) else value
        return lines[:i] + ([] if new is None else [f"{key} = {new}"]) + lines[i + 1:]
    return _damaged_artifact("design.txt", damage, bundle)


def _added_design_line(section, line, bundle="single_mode_bundle"):
    """design.txt with line added at the top of section."""
    def damage(lines):
        start = lines.index(f"[{section}]") + 1
        return lines[:start] + [line] + lines[start:]
    return _damaged_artifact("design.txt", damage, bundle)


def _extra_value(text):
    return text + " 1.0"


def _nan_lambda(lines):
    """eigen.csv lines with the second mode's eigenvalue set to nan."""
    return [*lines[:2], "2,nan," + lines[2].split(",", 2)[2], *lines[3:]]


def _grid_sample_eigen_csv(tmp_path, request):
    """An artifact whose eigen.csv has the older layout: one column per grid sample."""
    bundle = request.getfixturevalue("single_mode_bundle")
    save_artifact(bundle, tmp_path / "artifact")
    eig = bundle.eigsys
    write_csv(tmp_path / "artifact" / "eigen.csv",
              ["n", "lambda", "dphi0", "dphi1"] + [f"x{i}" for i in range(eig.grid.n_points)],
              ([n + 1, float(eig.lambdas[n]), float(eig.dphi0[n]), float(eig.dphi1[n])]
               + eig.phis[n].tolist() for n in range(eig.K)))


def _edited_config(name, old, new):
    def prepare(tmp_path, request):
        text = (CONFIGS / name).read_text()
        assert old in text
        (tmp_path / "bad.cfg").write_text(text.replace(old, new))
    return prepare


@pytest.mark.parametrize("args, message, prepare", [
    (["simulate", "--config", str(CONFIGS / "single_mode.cfg"), "--dt", "1.0"],
     "at least 100 steps", None),
    (["simulate", "--config", str(CONFIGS / "single_mode.cfg"), "--modes", "2"],
     "must exceed the kernel truncation M=2", None),
    (["simulate", "--config", str(CONFIGS / "single_mode.cfg"), "--dt", "0.05"],
     "needs at least 20", None),
    (["simulate", "--config", str(CONFIGS / "single_mode.cfg"), "--dt", "nan"],
     "dt must be positive", None),
    (["check", "--config", str(CONFIGS / "single_mode.cfg"), "--seed", "-1"],
     "unrecognized arguments: --seed", None),
    (["export", "--traj", "trajectory.csv", "--stride", "0"], "must be >= 1", None),
    (["export", "--traj", "traj.csv"], "traj.csv: needs a header row", _table("")),
    (["export", "--traj", "traj.csv"], "traj.csv", _table("t,a\r\n1,2\r\n3\r\n")),
    (["export", "--traj", "traj.csv"], "traj.csv", _table("t,a\r\n1,2\r\n3,abc\r\n")),
    (["check", "--artifact", "artifact"],
     "eigen.csv: 49 rows x 4 columns, needs modes = 96 rows x 4 columns "
     "(n, lambda, dphi0, dphi1 and 0 node values)",
     _damaged_artifact("eigen.csv", lambda lines: lines[:50])),
    (["check", "--artifact", "artifact"], "eigen.csv: needs finite values",
     _damaged_artifact("eigen.csv", _nan_lambda)),
    (["check", "--artifact", "artifact"],
     "eigen.csv: 96 rows x 2053 columns, needs modes = 96 rows x 4 columns",
     _grid_sample_eigen_csv),
    (["check", "--config", "bad.cfg"], "key 't_final'",
     _edited_config("single_mode.cfg", "t_final = 8.0", "t_final = abc")),
    (["check", "--config", "bad.cfg"], "key 'kappa'",
     _edited_config("two_mode_semilinear.cfg", "kappa = auto", "kappa = abc")),
    (["check", "--config", "bad.cfg"], "unknown nonlinearity kind 'cubic'",
     _edited_config("two_mode_semilinear.cfg", "kind = sine_type", "kind = cubic")),
    (["simulate", "--config", "bad.cfg"], "exceeds lbar",
     _edited_config("two_mode_semilinear.cfg", "scale = 0.29", "scale = 0.5")),
    (["check", "--artifact", "artifact"], "design.txt: [gains] key 'sigma'",
     _design_key("gains", "sigma", "abc")),
    (["check", "--artifact", "artifact"], "design.txt: [law] M = 9999",
     _design_key("law", "M", "9999")),
    (["check", "--artifact", "artifact"], "design.txt: no key 'K_row_1' in [gains]",
     _design_key("gains", "K_row_1", None)),
    (["check", "--artifact", "artifact"],
     "design.txt: [semilinear] g_row_1: 3 values, the re-derived design has 2",
     _design_key("semilinear", "g_row_1", _extra_value, "two_mode_bundle")),
    (["check", "--artifact", "artifact"],
     "design.txt: [eigen] lambdas: 97 values, the re-derived design has 96",
     _design_key("eigen", "lambdas", _extra_value)),
    (["check", "--artifact", "artifact"],
     "design.txt: [reduced] mus: 3 values, the re-derived design has 2",
     _design_key("reduced", "mus", _extra_value, "two_mode_bundle")),
    (["check", "--artifact", "artifact"], "design.txt: [verdicts] eigen_orthonormality",
     _design_key("verdicts", "eigen_orthonormality",
                 lambda text: text.split(" margin=")[0] + " margin=abc")),
    (["check", "--artifact", "artifact"], "design.txt: [semilinear] undeclared key 'bogus_key'",
     _added_design_line("semilinear", "bogus_key = 7", "two_mode_bundle")),
    (["check", "--artifact", "artifact"], "design.txt: [semilinear] undeclared key 'g_row_3'",
     _added_design_line("semilinear", "g_row_3 = 1.0 2.0", "two_mode_bundle")),
    (["check", "--artifact", "artifact"], "design.txt: no key 'clf_R' in [semilinear]",
     _design_key("semilinear", "clf_R", None, "two_mode_bundle")),
    (["check", "--artifact", "artifact"],
     "design.txt: [semilinear] certified = false differs from the re-derived true",
     _design_key("semilinear", "certified", "false", "two_mode_bundle")),
    (["check", "--config", "bad.cfg"], "q(x) is not finite",
     _edited_config("single_mode.cfg", "q = -19.739208802178716", "q = nan")),
    (["check", "--config", "bad.cfg"], "q(x) is not finite",
     _edited_config("single_mode.cfg", "q = -19.739208802178716", "q = inf")),
    (["check", "--config", "bad.cfg"], "p(x) is not finite",
     _edited_config("single_mode.cfg", "p = 1.0", "p = poly: 1.0 nan")),
    (["check", "--config", "bad.cfg"], "mus must be > 0, got mu=-1.0",
     _edited_config("single_mode.cfg", "mus = 41.94581870462977", "mus = -1.0")),
    (["check", "--config", "bad.cfg"], "n_points must be >= 8 x modes = 768, got 129",
     _edited_config("single_mode.cfg", "n_points = 2049", "n_points = 129")),
    (["check", "--config", "bad.cfg"], "key 'richardson' accepts only true, got false",
     _edited_config("single_mode.cfg", "richardson = true", "richardson = false")),
], ids=["too_few_steps", "modes_below_M", "too_few_samples", "dt_nan", "seed_negative",
        "stride_0", "traj_empty", "traj_ragged", "traj_not_numeric", "eigen_rows_missing",
        "eigen_lambda_nan", "eigen_grid_samples", "t_final_abc", "kappa_abc", "kind_cubic",
        "scale_above_lbar",
        "design_sigma_abc", "design_M_9999", "design_K_row_missing", "design_g_row_long",
        "design_lambdas_long", "design_mus_long", "design_margin_abc", "design_bogus_key",
        "design_g_row_3", "design_clf_R_missing", "design_certified_false", "q_nan", "q_inf",
        "p_poly_nan", "mus_negative", "n_points_below_8_modes", "richardson_false"])
def test_cli_invalid_input_exits_2(tmp_path, capsys, monkeypatch, request, args, message,
                                   prepare):
    monkeypatch.chdir(tmp_path)
    if prepare is not None:
        prepare(tmp_path, request)
    out = tmp_path / "out"
    try:
        code = cli_main(args + ["--out", str(out), "--quiet"])
    except SystemExit as exc:        # argparse rejects the option value
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("nudge, code", [
    (lambda x: np.nextafter(x, np.inf), 0),          # 1 ulp: another BLAS may round so
    (lambda x: x * (1.0 + 1e-9), 2),                 # far beyond the 1e-12 agreement
], ids=["1ulp", "1e-9"])
def test_check_artifact_float_tolerance(tmp_path, capsys, request, nudge, code):
    """design.txt floats must agree with the re-derived design within 1e-12 max(1, |x|)."""
    _design_key("reduced", "lambda_next", lambda text: repr(float(nudge(float(text)))))(
        tmp_path, request)
    assert cli_main(["check", "--artifact", str(tmp_path / "artifact"), "--quiet"]) == code
    if code:
        assert "design.txt: [reduced] lambda_next = " in capsys.readouterr().err
    else:      # the loaded design is the re-derived one, not the stored value
        save_artifact(load_artifact(tmp_path / "artifact"), tmp_path / "again")
        save_artifact(request.getfixturevalue("single_mode_bundle"), tmp_path / "fresh")
        assert _tree(tmp_path / "again") == _tree(tmp_path / "fresh")


@pytest.mark.parametrize("t_final", ["8.0", "auto"])
@pytest.mark.parametrize("name, edit, dt, message", [
    pytest.param("single_mode.cfg", "", "1.0", "at least 100 steps",
                 id="1.0-at least 100 steps"),
    pytest.param("single_mode.cfg", "", "0.05", "needs at least 20",
                 id="0.05-needs at least 20"),
    # t_final 8.0: 4000 ETDRK4 steps, 16001 quadratures of F; auto (5 / sigma): 10001
    pytest.param("two_mode_semilinear.cfg", ("max_steps = 2000000", "max_steps = 1000"),
                 "0.0002", "evaluations of F exceed max_steps=1000", id="max_steps"),
])
def test_cli_rejects_step_counts_before_writing(tmp_path, capsys, t_final, name, edit,
                                               dt, message):
    text = (CONFIGS / name).read_text()
    text = text.replace(*edit) if edit else text
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text(re.sub(r"t_final = \S+", f"t_final = {t_final}", text))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfgpath), "--dt", dt,
                     "--out", str(out), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "report.txt").exists()
    assert not (out / "artifact").exists()


def test_cli_env_out_dir(tmp_path, monkeypatch):
    cfgpath = quick_config(tmp_path)
    env_out = tmp_path / "envout"
    monkeypatch.setenv("CLF_OUT_DIR", str(env_out))
    monkeypatch.chdir(tmp_path)
    assert cli_main(["design", "--config", str(cfgpath), "--quiet"]) == 0
    assert (env_out / "artifact" / "design.txt").exists()


def test_cli_overrides(tmp_path):
    cfgpath = quick_config(tmp_path)
    out = tmp_path / "ovr"
    assert cli_main(["simulate", "--config", str(cfgpath), "--out", str(out),
                     "--modes", "24", "--dt", "2e-4", "--quiet"]) == 0
    # overrides land in the artifact's canonical config echo, which writes no retired key
    echo = (out / "artifact" / "config.cfg").read_text()
    assert "seed" not in echo
    assert "n_modes = 24" in echo
    assert "dt = 0.0002" in echo


def test_reproduce_reports(tmp_path):
    rep = reproduce("3.3", out_dir=str(tmp_path))
    assert (tmp_path / "reproduce_3.3.csv").exists()
    assert max(r.rel_err for r in rep.rows if r.name.startswith("lambda_")) <= 1e-6
    assert max(r.rel_err for r in rep.rows if r.name.startswith("B_1")) <= 1e-6
    rep2 = reproduce("2.4")
    assert max(r.rel_err for r in rep2.rows if r.name.startswith("kernel_at")) <= 1e-6
    with pytest.raises(ConfigError):
        reproduce("1.1")


SHIPPED = ("single_mode", "two_mode_semilinear")
# sha256 of the files `clfpde simulate` writes on each shipped config under BLAS_PIN.
# The last bits follow the BLAS kernel and thread count, so the pin fixes both;
# Prescott (SSE3) is an OpenBLAS kernel every x86-64 processor runs.
SIMULATE_SHA256 = {
    "single_mode": {
        "trajectory.csv": "28c9f8fd87ff521c7c4b3844161f2d6204e437dce335bdbdb9828bc30309b787",
        "artifact/design.txt": "bc3f41012f849ed45c976e0fe2c45f2d30fb514ba18f92533a4cbf1f15466f49",
        "report.txt": "479e9eaf9899770318d646b7bfea480d650940c3acfd0bfafb92d4b0d448ef5c",
    },
    "two_mode_semilinear": {
        "trajectory.csv": "979bda648a8207d1e8990ef9e6360b2506067c8b144844677c679e7d395daa0c",
        "artifact/design.txt": "45c06ed85a088cd6df653ebfe4c2005050e1561e0e9cfedf201da9afa0cb07c4",
        "report.txt": "d1832088d97c378299c6ccaa23689fa86a3970c057dd5e210ea33502ab00dd87",
    },
}
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Prescott"}


def run_python(args, **env):
    """A fresh interpreter on clfpde's source tree; its CompletedProcess."""
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


@pytest.mark.parametrize("args", [
    ["design", "--config", "{dir}"],
    ["design", "--config", str(CONFIGS / "single_mode.cfg"), "--out", "{file}"],
    ["check", "--artifact", "{file}"],
    ["export", "--traj", "{dir}"],
    ["design", "--config", "{not_utf8}"],
    ["export", "--traj", "{not_utf8}"],
], ids=["config_is_a_directory", "out_is_a_file", "artifact_is_a_file",
        "traj_is_a_directory", "config_not_utf8", "traj_not_utf8"])
def test_cli_unusable_path_or_bytes_exits_2(tmp_path, args):
    # an OS error on a path, or a file that is not UTF-8, is one error line that
    # names the path, not a traceback
    (tmp_path / "file").write_text("x\n")
    (tmp_path / "bytes.cfg").write_bytes(b"\xff\xfe")
    paths = {"dir": tmp_path, "file": tmp_path / "file", "not_utf8": tmp_path / "bytes.cfg"}
    proc = run_python(["-m", "clfpde.cli"] + [a.format(**paths) for a in args] + ["--quiet"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert next(a for a in args if a.startswith("{")).format(**paths) in proc.stderr


def test_cli_without_simulation_loads_no_scipy(tmp_path):
    # scipy is imported only by simulation and order-3 tables: it is slow to import
    code = ("import json, sys\n"
            "from clfpde.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules\n"
            "                                if m == 'scipy' or m.startswith('scipy.'))]))\n")
    runs = []
    for name in SHIPPED:
        cfg, out = str(CONFIGS / f"{name}.cfg"), str(tmp_path / name)
        runs += [["design", "--config", cfg, "--out", out, "--quiet"],
                 ["check", "--artifact", os.path.join(out, "artifact"), "--quiet"],
                 ["check", "--config", cfg, "--quiet"]]
    traj = tmp_path / "traj.csv"
    write_csv(traj, ["t", "norm_w"], ([0.1 * k, 1.0 / (k + 1)] for k in range(30)))
    runs += [["export", "--traj", str(traj), "--quiet"],
             ["reproduce", "2.4", "--quiet"], ["reproduce", "3.3", "--quiet"]]
    proc = run_python(["-c", code, json.dumps(runs)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * len(runs), []]


def blas_is_x86_openblas():
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    import scipy

    try:
        names = [m.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
                 for m in (np, scipy)]
    except (TypeError, KeyError):
        return False
    return all("openblas" in name for name in names)


@pytest.mark.parametrize("name", SHIPPED)
def test_cli_simulate_trajectory_bytes(tmp_path, name):
    if not blas_is_x86_openblas():
        pytest.skip("the recorded bytes are those of OpenBLAS's Prescott kernel on x86-64")
    out = tmp_path / name
    proc = run_python(["-m", "clfpde.cli", "simulate", "--config", str(CONFIGS / f"{name}.cfg"),
                       "--out", str(out), "--quiet"], **BLAS_PIN)
    assert proc.returncode == 0, proc.stderr
    digests = {path: hashlib.sha256((out / path).read_bytes()).hexdigest()
               for path in SIMULATE_SHA256[name]}
    assert digests == SIMULATE_SHA256[name]


def test_console_entry_point(tmp_path):
    cfgpath = quick_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "clfpde.cli", "design", "--config", str(cfgpath),
         "--out", str(tmp_path / "proc"), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
