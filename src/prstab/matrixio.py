"""Matrix file format: a header line plus comma-separated decimal rows.

    # field: real, m: 3, d: 2
    1.0,0.0
    ...

Complex matrices interleave (re, im) per column, giving 2d columns.  Values
are written with shortest round-trip decimal formatting, so write -> read
reproduces every entry bit-exactly.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .linalg import Field, as_matrix

_HEADER_RE = re.compile(
    r"^#\s*field:\s*(real|complex)\s*,\s*m:\s*(\d+)\s*,\s*d:\s*(\d+)\s*$"
)


class MatrixFormatError(ValueError):
    """Malformed matrix file; `line` is 1-based."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def format_float(x: float) -> str:
    """Shortest decimal that round-trips to the same float64."""
    return repr(float(x))


def write_matrix(path, A: np.ndarray) -> None:
    A = np.asarray(A)
    m, d = A.shape
    cplx = np.iscomplexobj(A)
    lines = [f"# field: {'complex' if cplx else 'real'}, m: {m}, d: {d}"]
    for row in A:
        if cplx:
            cells = []
            for z in row:
                cells.append(format_float(z.real))
                cells.append(format_float(z.imag))
        else:
            cells = [format_float(v) for v in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise MatrixFormatError(path, line, f"not UTF-8 text: {exc.reason}") from None
    lines = text.splitlines()
    if not lines:
        raise MatrixFormatError(path, 1, "empty file")
    header = _HEADER_RE.match(lines[0])
    if not header:
        raise MatrixFormatError(
            path, 1, 'expected header "# field: real|complex, m: <int>, d: <int>"'
        )
    field = Field.REAL if header.group(1) == "real" else Field.COMPLEX
    m, d = int(header.group(2)), int(header.group(3))
    if m < 1 or d < 1:
        raise MatrixFormatError(path, 1, f"m and d must be >= 1, got m={m}, d={d}")
    width = 2 * d if field is Field.COMPLEX else d
    data_lines = [(i + 1, ln) for i, ln in enumerate(lines) if i > 0 and ln.strip()]
    if len(data_lines) != m:
        raise MatrixFormatError(
            path, len(lines), f"header declares m={m} rows, found {len(data_lines)}"
        )
    out = np.empty((m, d), dtype=np.complex128 if field is Field.COMPLEX else np.float64)
    for r, (lineno, ln) in enumerate(data_lines):
        cells = ln.split(",")
        if len(cells) != width:
            raise MatrixFormatError(
                path, lineno, f"expected {width} columns, found {len(cells)}"
            )
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise MatrixFormatError(path, lineno, f"bad number: {exc}") from None
        if not all(np.isfinite(vals)):
            raise MatrixFormatError(path, lineno, "non-finite value (nan or inf)")
        if field is Field.COMPLEX:
            out[r] = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
        else:
            out[r] = vals
    try:
        return as_matrix(out, field)
    except ValueError as exc:
        raise MatrixFormatError(path, data_lines[-1][0], str(exc)) from None
