"""The one text format clfpde writes and reads.

Two kinds of file:

    [section] / key = value text      run configurations and design.txt
    CSV tables                         a header row, then one row per record

Floats are written as their shortest round-trip repr, so every value reads
back bit for bit.  A Kind reads and writes one kind of value; a matrix is one
vec() row per row_key(key, i) line.  Table lines end in CRLF; a table loads
with np.loadtxt(path, delimiter=",", skiprows=1).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import ConfigError


def parse_sections(text):
    """Parse into {section: {key: value-string}} preserving order."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        sections[current][key.strip()] = value.strip()
    return sections


def vec(values):
    """Space-separated full-precision floats."""
    return " ".join(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def floats(text):
    """Parse a vec() string (commas are accepted as separators) into a float list."""
    return [float(v) for v in text.replace(",", " ").split()]


def parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# how one kind of value reads from (parse) and writes to (format) its text
Kind = namedtuple("Kind", "parse format")
INT = Kind(int, str)
FLOAT = Kind(float, repr)
STR = Kind(str, str)
BOOL = Kind(parse_bool, lambda value: "true" if value else "false")
FLOATS = Kind(floats, vec)


def parse_value(parse, text, where):
    """parse(text); text that does not parse is a ConfigError naming where."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {text!r} ({exc})") from exc


def row_key(key, i):
    """The key of row i (from 0) of a matrix written one vec() per line."""
    return f"{key}_row_{i + 1}"


def write_csv(path, header, rows):
    """Write a table; each cell of each row is a Python int, float or name.

    Build rows with ndarray.tolist(), one row at a time for large tables:
    a Python float prints as its shortest round-trip repr.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\r\n")


def read_text(path):
    """The UTF-8 text of a file; bytes that do not decode are a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not utf-8 text ({exc.reason} at byte {exc.start})") from exc


def read_csv(path):
    """Load a table into (header names, float matrix with one row per record)."""
    lines = read_text(path).splitlines(keepends=True)
    try:
        if len(lines) < 2:
            raise ValueError("needs a header row and at least one data row")
        header = lines[0].rstrip("\n").split(",")
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"{len(header)} columns in the header, "
                             f"{data.shape[1]} in the rows")
    except ValueError as exc:
        raise ConfigError(f"table {path}: {exc}") from exc
    return header, data
