"""Matrix Market IO for scipy CSR and BSR matrices.

Files use the standard coordinate format. BSR matrices additionally carry a
comment line

    %%block-sizes rows=<r,r,...> cols=<c,c,...>

immediately after the banner, one size per block row and per block column, so
any Matrix Market reader still parses the file as a point matrix while this
package recovers the block layout. BSR holds one block shape per matrix, so a
line listing unequal sizes is rejected. Every stored entry is written, zeros
included, so a block pattern survives the round trip.
Values are printed with 17 significant digits, which round-trips IEEE doubles
exactly. The readers reject nan and infinite values with a ManifestError
that names the file.

read_matrix parses the entry lines with one np.loadtxt call and orders them
with one stable sort by (row, col), which also keeps the last of repeated
entries.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .blocklinalg import canonical_csr
from .errors import ManifestError, shown

__all__ = ["write_matrix", "read_matrix", "write_vector", "read_vector"]

_BANNER = "%%MatrixMarket matrix coordinate real general"
_BANNER_ARRAY = "%%MatrixMarket matrix array real general"
_BLOCK_TAG = "%%block-sizes"
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("val", float)])
_VALUE = np.dtype([("val", float)])


def write_matrix(path, A) -> None:
    """Write a scipy sparse matrix in coordinate format, entries sorted by
    (row, col) and repeated entries summed; a BSR matrix also gets its
    block-sizes line."""
    lines = [_BANNER]
    if getattr(A, "format", None) == "bsr":
        (r, c), (m, n) = A.blocksize, A.shape
        lines.append(f"{_BLOCK_TAG} rows={','.join([str(r)] * (m // r))} cols={','.join([str(c)] * (n // c))}")
    S = canonical_csr(A)
    lines.append(f"{S.shape[0]} {S.shape[1]} {S.nnz}")
    # One %-format call over the entries' (row, col, value) fields, interleaved.
    fields = [None] * (3 * S.nnz)
    fields[0::3] = np.repeat(np.arange(1, S.shape[0] + 1), np.diff(S.indptr)).tolist()
    fields[1::3] = (S.indices + 1).tolist()
    fields[2::3] = S.data.tolist()
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n" + "%d %d %.17g\n" * S.nnz % tuple(fields))


def _parse_block_tag(path, line: str):
    """Row and column block sizes: two nonempty lists of positive integers,
    each list one size repeated. Each distinct word is checked once."""
    sizes = {}
    for field in line[len(_BLOCK_TAG) :].split():
        key, _, val = field.partition("=")
        words = val.split(",")
        distinct = set(words)
        if key not in ("rows", "cols") or not all(map(str.isdecimal, distinct)) or not all(map(int, distinct)):
            raise ManifestError(f"{path}: malformed block-sizes field {field!r}")
        if len(set(map(int, distinct))) > 1:
            raise ManifestError(f"{path}: mixed block sizes in {key}=, one size per matrix is supported")
        sizes[key] = np.full(len(words), int(words[0]))
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


def _check_end(path, lines: list[str]) -> None:
    """The lines after the declared records must all be blank."""
    if any(line.strip() for line in lines):
        raise ManifestError(f"{path}: a non-blank line follows the declared records")


def _check_finite(path, vals: np.ndarray, what: str) -> None:
    """Every value must be finite: nan and inf are not data."""
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        raise ManifestError(f"{path}: {what} {bad[0] + 1} is {vals[bad[0]]}, not a finite number")


def _check_banner(path, lines: list[str], banner: str) -> None:
    """The first line must be banner (its words compared case-insensitively)."""
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ManifestError(f"{path}: missing MatrixMarket banner")
    if lines[0].lower().split() != banner.lower().split():
        raise ManifestError(f"{path}: unsupported banner {lines[0]!r}, expected {banner!r}")


def _size_line(path, lines: list[str], k: int, n_fields: int) -> list[int]:
    """The n_fields nonnegative integers on line k."""
    words = lines[k].split() if k < len(lines) else []
    if len(words) != n_fields or not all(w.isdecimal() for w in words):
        raise ManifestError(f"{path}: missing or malformed size line")
    return [int(w) for w in words]


def read_matrix(path, shape=None):
    """Read a coordinate real general file as a canonical scipy CSR matrix, or
    as a canonical BSR matrix if the file carries a block-sizes line. Of
    repeated (row, col) entries the last in the file wins. A size line other
    than the expected shape, if one is given, is rejected before anything is
    allocated for it, and so is a size-line integer of 2**31 or more: the
    index arrays are int32. A non-blank line after the declared entries and
    a value that is nan or infinite are errors."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    _check_banner(path, lines, _BANNER)
    block_sizes = None
    k = 1
    while k < len(lines) and lines[k].startswith("%"):
        if lines[k].startswith(_BLOCK_TAG):
            block_sizes = _parse_block_tag(path, lines[k])
        k += 1
    n_rows, n_cols, nnz = _size_line(path, lines, k, 3)
    if shape is not None and (n_rows, n_cols) != tuple(shape):
        want = " x ".join(shown(int(n)) for n in shape)
        raise ManifestError(f"{path}: size line declares {shown(n_rows)} x {shown(n_cols)}, expected {want}")
    entries = _parse(path, lines[k + 1 : k + 1 + nnz], _ENTRY, "entry")
    if len(entries) != nnz:
        raise ManifestError(f"{path}: header declares {shown(nnz)} entries, file holds {len(entries)}")
    _check_end(path, lines[k + 1 + nnz :])
    _check_finite(path, entries["val"], "entry")
    rows, cols, vals = entries["row"] - 1, entries["col"] - 1, entries["val"]
    if nnz and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols):
        raise ManifestError(f"{path}: entry outside the declared {shown(n_rows)} x {shown(n_cols)} shape")
    if max(n_rows, n_cols, nnz) >= 2**31:
        sizes = " ".join(shown(n) for n in (n_rows, n_cols, nnz))
        raise ManifestError(f"{path}: size line {sizes} is past the int32 index range")
    # Sort by (row, col); the sort is stable, so the last of repeated entries
    # is the last in file order, and it is the one kept.
    key = rows * n_cols + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    last = np.ones(len(key), dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    order = order[last]
    rows, cols, vals = rows[order], cols[order], vals[order]
    # scipy keeps int32 index arrays as given and scans int64 ones to
    # narrow them.
    if block_sizes is None:
        row_ptr = np.searchsorted(rows, np.arange(n_rows + 1))
        return scipy.sparse.csr_matrix((vals, cols.astype(np.int32), row_ptr.astype(np.int32)), shape=(n_rows, n_cols))
    return _entries_to_block(path, n_rows, n_cols, rows, cols, vals, *block_sizes)


def _entries_to_block(path, n_rows, n_cols, rows, cols, vals, rbs, cbs):
    """BSR matrix from unique entries sorted by (row, col), its blocks filled
    as one (count, r, c) array. One stable sort by block orders the entries
    block by block; the stored blocks are where the block changes."""
    r, c = int(rbs[0]), int(cbs[0])
    if len(rbs) * r != n_rows or len(cbs) * c != n_cols:
        raise ManifestError(f"{path}: block sizes inconsistent with matrix dimensions")
    block = rows // r * len(cbs) + cols // c
    order = np.argsort(block, kind="stable")
    block = block[order]
    first = np.ones(len(block), dtype=bool)
    first[1:] = block[1:] != block[:-1]
    bi, bj = np.divmod(block[first], len(cbs))
    blocks = np.zeros((len(bi), r, c))
    blocks.reshape(-1)[(np.cumsum(first) - 1) * (r * c) + (rows % r * c + cols % c)[order]] = vals[order]
    indptr = np.searchsorted(bi, np.arange(len(rbs) + 1))
    return scipy.sparse.bsr_matrix((blocks, bj.astype(np.int32), indptr.astype(np.int32)), shape=(n_rows, n_cols))


def write_vector(path, v: np.ndarray) -> None:
    """Write a dense vector in array format (n x 1)."""
    v = np.asarray(v, dtype=float).ravel()
    with open(path, "w") as fh:
        fh.write(f"{_BANNER_ARRAY}\n{len(v)} 1\n" + "%.17g\n" * len(v) % tuple(v.tolist()))


def read_vector(path) -> np.ndarray:
    """Read an array real general file with one column of finite values,
    only blank lines after them."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    _check_banner(path, lines, _BANNER_ARRAY)
    lines = [ln for ln in lines[1:] if ln and ln[0] != "%"]
    n, m = _size_line(path, lines, 0, 2)
    if m != 1:
        raise ManifestError(f"{path}: expected a single-column vector, got {m} columns")
    vals = _parse(path, lines[1 : 1 + n], _VALUE, "value")["val"]
    if len(vals) != n:
        raise ManifestError(f"{path}: expected {n} entries, found {len(vals)}")
    _check_end(path, lines[1 + n :])
    _check_finite(path, vals, "value")
    return vals
