"""The text format: byte-equal to the csv-module writers it replaced, bit-exact on read."""

import csv
import re
from pathlib import Path

import numpy as np
import pytest

from clfpde.artifact import save_artifact
from clfpde.errors import ConfigError
from clfpde.textio import floats, parse_sections, read_csv, vec, write_csv

SRC = Path(__file__).resolve().parents[1] / "src" / "clfpde"
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1.7976931348623157e308,
            1.7976931348623157e308, float("inf"), float("-inf"), float("nan"), 0.1, 1.0 / 3.0,
            -1.5e-7, 123456789.125]


def reference_csv(path, header, rows):
    """The writer every table used before textio: csv.writer with repr(float(x))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, (int, str)) else repr(float(c)) for c in row])


def random_doubles(n, seed=0):
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, size=n, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def test_write_csv_matches_csv_writer(tmp_path):
    header = ["name", "n", "value", "other"]
    rows = [["kernel_at_0.1000", 1, x, -x] for x in SPECIALS]
    rows += [["lbar_max", 10 ** 20, 0.5, 7]]
    write_csv(tmp_path / "new.csv", header, rows)
    reference_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes().count(b"\r\n") == len(rows) + 1


def test_read_csv_is_bit_exact(tmp_path):
    values = np.concatenate([SPECIALS, random_doubles(4000)])
    values = values[: values.size // 4 * 4].reshape(-1, 4)
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b", "c", "d"], (row.tolist() for row in values))
    header, back = read_csv(path)
    assert header == ["a", "b", "c", "d"]
    assert back.shape == values.shape
    nan = np.isnan(values)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back[~nan].view(np.uint64), values[~nan].view(np.uint64))
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[~nan], back[~nan])


def test_read_csv_rejects_header_width_mismatch(tmp_path):
    path = tmp_path / "wide.csv"
    write_csv(path, ["a", "b"], [[1.0, 2.0, 3.0]])
    with pytest.raises(ConfigError, match="wide.csv: 2 columns in the header, 3"):
        read_csv(path)


def test_vec_roundtrip():
    values = [x for x in SPECIALS if x == x] + random_doubles(200, seed=1).tolist()
    back = floats(vec(values))
    assert np.array_equal(np.array(back).view(np.uint64), np.array(values).view(np.uint64))
    assert vec(np.float64(0.25)) == "0.25"
    assert floats("1.0, 2.5 3") == [1.0, 2.5, 3.0]


def test_parse_sections_reports_line_numbers():
    assert parse_sections("# c\n[a]\nk = v = w\n\n[b]\n") == {"a": {"k": "v = w"}, "b": {}}
    with pytest.raises(ConfigError, match="line 2: key outside"):
        parse_sections("\nk = v\n")
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        parse_sections("[a]\nnot a pair\n")


def reference_artifact_tables(bundle, out):
    """The eigen.csv writer spelled out with the csv module: the solver's modes,
    a collocated mode's node values after its end derivatives."""
    eig = bundle.eigsys
    values = np.zeros((eig.K, 0)) if eig.node_values is None else eig.node_values
    with open(out / "eigen.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lambda", "dphi0", "dphi1"]
                        + [f"u{i}" for i in range(values.shape[1])])
        for n in range(eig.K):
            writer.writerow([n + 1] + [repr(float(v)) for v in
                                       (eig.lambdas[n], eig.dphi0[n], eig.dphi1[n], *values[n])])


def test_artifact_tables_match_reference_writers(tmp_path, single_mode_bundle,
                                                 collocated_semilinear_bundle):
    for i, bundle in enumerate((single_mode_bundle, collocated_semilinear_bundle)):
        new, ref = tmp_path / f"new{i}", tmp_path / f"ref{i}"
        ref.mkdir()
        save_artifact(bundle, new)
        reference_artifact_tables(bundle, ref)
        assert (new / "eigen.csv").read_bytes() == (ref / "eigen.csv").read_bytes()


def test_format_lives_in_textio_only():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "textio.py":
            continue
        text = path.read_text()
        if re.search(r"^\s*(import csv\b|from csv import)", text, re.M) \
                or re.search(r"newline\s*=\s*(\"\"|'')", text):
            offenders.append(path.name)
    assert offenders == []
