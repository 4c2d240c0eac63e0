"""Matrix Market IO for scipy sparse and block CSR matrices.

Files use the standard coordinate format. Block matrices additionally carry a
comment line

    %%block-sizes rows=<s0,s1,...> cols=<s0,s1,...>

immediately after the banner, so any Matrix Market reader still parses the file
as a point matrix while this package recovers the block layout. Every stored
entry is written, zeros included, so a block pattern survives the round trip.
Values are printed with 17 significant digits, which round-trips IEEE doubles
exactly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .blocklinalg import BlockCsrMatrix, BlockPattern, block_to_scipy, canonical_csr
from .errors import ManifestError

__all__ = ["write_matrix", "read_matrix", "write_vector", "read_vector"]

_BANNER = "%%MatrixMarket matrix coordinate real general"
_BANNER_ARRAY = "%%MatrixMarket matrix array real general"
_BLOCK_TAG = "%%block-sizes"
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("val", float)])
_VALUE = np.dtype([("val", float)])


def write_matrix(path, A) -> None:
    """Write a scipy sparse matrix or a BlockCsrMatrix in coordinate format,
    entries sorted by (row, col); repeated entries of a scipy matrix are summed."""
    lines = [_BANNER]
    if isinstance(A, BlockCsrMatrix):
        pat = A.pattern
        row_sizes = ",".join(map(str, pat.row_block_sizes.tolist()))
        col_sizes = ",".join(map(str, pat.col_block_sizes.tolist()))
        lines.append(f"{_BLOCK_TAG} rows={row_sizes} cols={col_sizes}")
        S = block_to_scipy(A)
    else:
        S = canonical_csr(A)
    rows = np.repeat(np.arange(1, S.shape[0] + 1), np.diff(S.indptr))
    lines.append(f"{S.shape[0]} {S.shape[1]} {S.nnz}")
    lines.extend(map("{} {} {:.17g}".format, rows.tolist(), (S.indices + 1).tolist(), S.data.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_block_tag(path, line: str):
    """Row and column block sizes: two nonempty lists of positive integers."""
    sizes = {}
    for field in line[len(_BLOCK_TAG) :].split():
        key, _, val = field.partition("=")
        words = val.split(",")
        if key not in ("rows", "cols") or not all(w.isdecimal() and int(w) > 0 for w in words):
            raise ManifestError(f"{path}: malformed block-sizes field {field!r}")
        sizes[key] = np.array([int(w) for w in words])
    if sizes.keys() != {"rows", "cols"}:
        raise ManifestError(f"{path}: malformed block-sizes line, rows= and cols= required: {line!r}")
    return sizes["rows"], sizes["cols"]


def _parse(path, lines: list[str], dtype: np.dtype, what: str) -> np.ndarray:
    """Parse whitespace-separated lines, one record of dtype each, in one
    pass; a missing or extra field or a non-numeric token is a ManifestError."""
    if not any(line.strip() for line in lines):
        return np.zeros(0, dtype)
    try:
        return np.loadtxt(lines, dtype=dtype, ndmin=1, comments=None)
    except ValueError as exc:
        raise ManifestError(f"{path}: malformed {what} ({exc})") from exc


def _size_line(path, lines: list[str], k: int, n_fields: int) -> list[int]:
    """The n_fields nonnegative integers on line k."""
    dtype = np.dtype([(f"f{i}", np.int64) for i in range(n_fields)])
    size = _parse(path, lines[k : k + 1], dtype, "size line")
    if len(size) != 1 or min(size[0].tolist()) < 0:
        raise ManifestError(f"{path}: missing or negative size line")
    return list(size[0].tolist())


def read_matrix(path):
    """Read a coordinate file as a canonical scipy CSR matrix, or as a
    BlockCsrMatrix if the file carries a block-sizes line. Of repeated
    (row, col) entries the last in the file wins."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ManifestError(f"{path}: missing MatrixMarket banner")
    if "coordinate" not in lines[0]:
        raise ManifestError(f"{path}: expected coordinate format")
    block_sizes = None
    k = 1
    while k < len(lines) and lines[k].startswith("%"):
        if lines[k].startswith(_BLOCK_TAG):
            block_sizes = _parse_block_tag(path, lines[k])
        k += 1
    n_rows, n_cols, nnz = _size_line(path, lines, k, 3)
    entries = _parse(path, lines[k + 1 : k + 1 + nnz], _ENTRY, "entry")
    if len(entries) != nnz:
        raise ManifestError(f"{path}: header declares {nnz} entries, file holds {len(entries)}")
    rows, cols, vals = entries["row"] - 1, entries["col"] - 1, entries["val"]
    if nnz and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols):
        raise ManifestError(f"{path}: entry outside the declared {n_rows} x {n_cols} shape")
    # Sort by (row, col); lexsort is stable, so the last of repeated entries
    # is the last in file order, and it is the one kept.
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    last = np.ones(len(rows), dtype=bool)
    last[:-1] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    rows, cols, vals = rows[last], cols[last], vals[last]
    if block_sizes is None:
        row_ptr = np.searchsorted(rows, np.arange(n_rows + 1))
        return scipy.sparse.csr_matrix((vals, cols, row_ptr), shape=(n_rows, n_cols))
    return _entries_to_block(path, n_rows, n_cols, rows, cols, vals, *block_sizes)


def _entries_to_block(path, n_rows, n_cols, rows, cols, vals, rbs, cbs):
    """Block matrix from unique entries sorted by (row, col)."""
    if rbs.sum() != n_rows or cbs.sum() != n_cols:
        raise ManifestError(f"{path}: block sizes inconsistent with matrix dimensions")
    roff = np.concatenate([[0], np.cumsum(rbs)])
    coff = np.concatenate([[0], np.cumsum(cbs)])
    brow = np.searchsorted(roff, rows, side="right") - 1
    bcol = np.searchsorted(coff, cols, side="right") - 1
    # Stored blocks in block-CSR order, and the block of each entry.
    keys, block_of = np.unique(brow * len(cbs) + bcol, return_inverse=True)
    bi, bj = np.divmod(keys, len(cbs))
    sizes = rbs[bi] * cbs[bj]
    starts = np.cumsum(sizes) - sizes
    flat = np.zeros(sizes.sum())
    flat[starts[block_of] + (rows - roff[brow]) * cbs[bcol] + (cols - coff[bcol])] = vals
    blocks = [flat[s : s + n].reshape(rbs[i], cbs[j]) for s, n, i, j in zip(starts, sizes, bi, bj)]
    row_ptr = np.searchsorted(bi, np.arange(len(rbs) + 1))
    pat = BlockPattern(rbs, cbs, row_ptr, bj)
    return BlockCsrMatrix(pat, blocks)


def write_vector(path, v: np.ndarray) -> None:
    """Write a dense vector in array format (n x 1)."""
    v = np.asarray(v, dtype=float).ravel()
    lines = [_BANNER_ARRAY, f"{len(v)} 1"]
    lines.extend(map("{:.17g}".format, v.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_vector(path) -> np.ndarray:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("%")]
    n, m = _size_line(path, lines, 0, 2)
    if m != 1:
        raise ManifestError(f"{path}: expected a single-column vector, got {m} columns")
    vals = _parse(path, lines[1 : 1 + n], _VALUE, "value")["val"]
    if len(vals) != n:
        raise ManifestError(f"{path}: expected {n} entries, found {len(vals)}")
    return vals
