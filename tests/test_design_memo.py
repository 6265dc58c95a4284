"""pipeline.design solves each (plant, n_points, modes) once and shares its read-only eigensystem."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from clfpde import pipeline
from clfpde.artifact import load_artifact, save_artifact
from clfpde.config import config_from_text
from clfpde.errors import GridTooCoarse

from conftest import PLANTS, shipped_text


@pytest.fixture
def solves(monkeypatch):
    """The eigensolves pipeline.design makes from here on, on an empty memo."""
    pipeline.plant_eigensystem.cache_clear()
    calls = []
    solve = pipeline.eigensolve
    monkeypatch.setattr(pipeline, "eigensolve",
                        lambda *args: calls.append(args) or solve(*args))
    yield calls
    pipeline.plant_eigensystem.cache_clear()


def sweep_config(*edits):
    """The benchmark's design_sweep plant with the conftest setting, edited."""
    text = PLANTS["design_sweep"]()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return config_from_text(text)


# a second setting of the sweep: other sigma targets, L and a mu in the next gap
OTHER_SETTING = (("sigma = 2.7069256484551105 0.6212977436079088", "sigma = 1.5 0.9"),
                 ("Ls = 0.22966794144270186", "Ls = 3.0"),
                 ("mus = 99.80827166366575", "mus = 120.0"))


def outputs(bundle, path):
    """design.txt and report.txt of a certified bundle, as bytes."""
    pipeline.certify(bundle)
    save_artifact(bundle, path)
    return (path / "design.txt").read_bytes(), pipeline.report_text(bundle).encode()


def test_designs_of_one_plant_solve_it_once(solves, tmp_path):
    first = pipeline.design(sweep_config())
    second = pipeline.design(sweep_config(*OTHER_SETTING))
    assert len(solves) == 1
    assert second.eigsys is first.eigsys
    assert second.params.omegas.tolist() != first.params.omegas.tolist()
    pipeline.plant_eigensystem.cache_clear()
    fresh = pipeline.design(sweep_config(*OTHER_SETTING))
    assert len(solves) == 2 and fresh.eigsys is not second.eigsys
    assert outputs(second, tmp_path / "memo") == outputs(fresh, tmp_path / "fresh")


@pytest.mark.parametrize("edit", [
    ("\nmodes = 48", "\nmodes = 40"),
    ("n_points = 2049", "n_points = 1025"),
    ("\nq = poly: -20.0 5.0", "\nq = poly: -19.0 5.0"),
])
def test_another_grid_mode_count_or_plant_is_solved_again(solves, edit):
    first = pipeline.design(sweep_config())
    other = pipeline.design(sweep_config(edit))
    assert len(solves) == 2 and other.eigsys is not first.eigsys


def test_a_failed_solve_is_not_kept(solves):
    # 192 closed-form modes: the grid's fourth-order residual of mode 73 is beyond its bound
    cfg = config_from_text(shipped_text("single_mode.cfg", ("\nmodes = 96", "\nmodes = 192")))
    for _ in range(2):
        with pytest.raises(GridTooCoarse, match="operator residual"):
            pipeline.design(cfg)
    assert len(solves) == 2


def test_a_shared_eigensystem_is_read_only(solves):
    eig = pipeline.design(sweep_config()).eigsys
    for a in (eig.lambdas, eig.phis, eig.dphi0, eig.dphi1, eig.node_values, eig.wr,
              eig.grid.x, eig.nodes.D):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        eig.phis *= 2.0
    with pytest.raises(FrozenInstanceError):
        eig.phis = eig.phis * 2.0


def test_a_loaded_artifact_solves_nothing_and_shares_nothing(solves, tmp_path):
    bundle = pipeline.design(sweep_config())
    pipeline.certify(bundle)
    save_artifact(bundle, tmp_path)
    loaded = load_artifact(tmp_path)
    assert len(solves) == 1
    assert loaded.eigsys is not bundle.eigsys
    np.testing.assert_array_equal(loaded.eigsys.phis, bundle.eigsys.phis)
