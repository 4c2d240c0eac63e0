"""Matrix Market IO for point and block CSR matrices.

Files use the standard coordinate format. Block matrices additionally carry a
comment line

    %%block-sizes rows=<s0,s1,...> cols=<s0,s1,...>

immediately after the banner, so any Matrix Market reader still parses the file
as a point matrix while this package recovers the block layout. Every entry of
a stored block is written, zeros included, so the block pattern survives the
round trip. Values are printed with 17 significant digits, which round-trips
IEEE doubles exactly.
"""

from __future__ import annotations

import numpy as np

from .blocklinalg import BlockCsrMatrix, BlockPattern, PointCsrMatrix, _iter_blocks
from .errors import ManifestError, PatternViolation

__all__ = ["write_matrix", "read_matrix", "write_vector", "read_vector"]

_BANNER = "%%MatrixMarket matrix coordinate real general"
_BANNER_ARRAY = "%%MatrixMarket matrix array real general"
_BLOCK_TAG = "%%block-sizes"
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("val", float)])
_VALUE = np.dtype([("val", float)])


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_matrix(path, A) -> None:
    """Write a PointCsrMatrix or BlockCsrMatrix in coordinate format."""
    lines = [_BANNER]
    entries = []
    if isinstance(A, BlockCsrMatrix):
        pat = A.pattern
        rows = ",".join(str(s) for s in pat.row_block_sizes)
        cols = ",".join(str(s) for s in pat.col_block_sizes)
        lines.append(f"{_BLOCK_TAG} rows={rows} cols={cols}")
        roff, coff = pat.row_offsets, pat.col_offsets
        for i, j, blk in _iter_blocks(A):
            r0, c0 = roff[i], coff[j]
            for bi in range(blk.shape[0]):
                for bj in range(blk.shape[1]):
                    entries.append((r0 + bi, c0 + bj, blk[bi, bj]))
        n_rows, n_cols = pat.n_rows, pat.n_cols
    elif isinstance(A, PointCsrMatrix):
        for i in range(A.n_rows):
            for k in range(A.row_ptr[i], A.row_ptr[i + 1]):
                entries.append((i, int(A.col_idx[k]), float(A.values[k])))
        n_rows, n_cols = A.n_rows, A.n_cols
    else:
        raise TypeError(f"unsupported matrix type {type(A).__name__}")
    entries.sort(key=lambda t: (t[0], t[1]))
    lines.append(f"{n_rows} {n_cols} {len(entries)}")
    for r, c, v in entries:
        lines.append(f"{r + 1} {c + 1} {_fmt(v)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_block_tag(line: str):
    fields = line[len(_BLOCK_TAG) :].split()
    sizes = {}
    for field in fields:
        key, _, val = field.partition("=")
        if key not in ("rows", "cols") or not val:
            raise PatternViolation(f"malformed block-sizes line: {line!r}")
        sizes[key] = np.array([int(s) for s in val.split(",")])
    if "rows" not in sizes or "cols" not in sizes:
        raise PatternViolation(f"block-sizes line missing rows= or cols=: {line!r}")
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
    """Read a coordinate file; returns BlockCsrMatrix if a block sidecar is present."""
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
            block_sizes = _parse_block_tag(lines[k])
        k += 1
    n_rows, n_cols, nnz = _size_line(path, lines, k, 3)
    entries = _parse(path, lines[k + 1 : k + 1 + nnz], _ENTRY, "entry")
    if len(entries) != nnz:
        raise ManifestError(f"{path}: header declares {nnz} entries, file holds {len(entries)}")
    rows, cols, vals = entries["row"] - 1, entries["col"] - 1, entries["val"]
    if nnz and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols):
        raise ManifestError(f"{path}: entry outside the declared {n_rows} x {n_cols} shape")
    if block_sizes is None:
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        row_ptr = np.searchsorted(rows, np.arange(n_rows + 1))
        return PointCsrMatrix(n_rows, n_cols, row_ptr, cols, vals)
    return _entries_to_block(n_rows, n_cols, rows, cols, vals, *block_sizes)


def _entries_to_block(n_rows, n_cols, rows, cols, vals, rbs, cbs):
    if rbs.sum() != n_rows or cbs.sum() != n_cols:
        raise ManifestError("block sizes inconsistent with matrix dimensions")
    # Sort by (row, col); lexsort is stable, so the last of repeated entries
    # is the last in file order, and it wins.
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    last = np.ones(len(rows), dtype=bool)
    last[:-1] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    rows, cols, vals = rows[last], cols[last], vals[last]

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
    lines.extend(_fmt(x) for x in v)
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
