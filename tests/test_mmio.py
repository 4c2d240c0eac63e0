"""Matrix Market IO: exact round trips and the block-sizes sidecar."""

import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from kktprecond.errors import ManifestError
from kktprecond.mmio import read_matrix, read_vector, write_matrix, write_vector


def awkward_values(n, rng):
    """Floats that expose any formatting loss: irrationals, tiny, huge, negatives."""
    base = np.array([0.1, 1 / 3, np.pi, -2.5e-13, 7.1e17, -0.0, 123456789.123456789])
    out = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    out[: min(n, len(base))] = base[: min(n, len(base))]
    return out


def test_point_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    vals = awkward_values(9, rng)
    rows = np.arange(9) % 4
    cols = (3 * np.arange(9)) % 5
    A = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(4, 5))
    path = tmp_path / "a.mtx"
    write_matrix(path, A)
    B = read_matrix(path)
    assert isinstance(B, scipy.sparse.csr_matrix)
    assert B.shape == A.shape
    np.testing.assert_array_equal(B.indptr, A.indptr)
    np.testing.assert_array_equal(B.indices, A.indices)
    np.testing.assert_array_equal(B.data, A.data)


def bsr(blocks, indices, indptr, n_block_cols):
    """BSR matrix of a (count, r, c) block stack in block-CSR layout."""
    blocks = np.asarray(blocks, dtype=float)
    _, r, c = blocks.shape
    return scipy.sparse.bsr_matrix((blocks, indices, indptr), shape=((len(indptr) - 1) * r, n_block_cols * c))


def assert_same_bsr(B, A):
    """Same blocksize, block pattern and value bits."""
    assert isinstance(B, scipy.sparse.bsr_matrix)
    assert B.shape == A.shape and B.blocksize == A.blocksize
    np.testing.assert_array_equal(B.indptr, A.indptr)
    np.testing.assert_array_equal(B.indices, A.indices)
    assert np.array_equal(B.data, A.data) and np.array_equal(np.signbit(B.data), np.signbit(A.data))


def test_block_round_trip_preserves_pattern_and_values(tmp_path):
    rng = np.random.default_rng(2)
    A = bsr(rng.standard_normal((3, 2, 3)), [0, 1, 1], [0, 2, 3], 2)
    path = tmp_path / "b.mtx"
    write_matrix(path, A)
    assert_same_bsr(read_matrix(path), A)


def test_stored_zero_blocks_survive_round_trip(tmp_path):
    # An all-zero stored block must stay in the pattern: every entry of a
    # stored block is written, zeros included.
    A = bsr([np.zeros((2, 2)), np.eye(2), np.eye(2)], [0, 1, 1], [0, 2, 3], 2)
    path = tmp_path / "z.mtx"
    write_matrix(path, A)
    B = read_matrix(path)
    assert B.indices.tolist() == [0, 1, 1]
    np.testing.assert_array_equal(B.data[0], np.zeros((2, 2)))
    header = path.read_text().splitlines()
    # 3 stored 2x2 blocks -> 12 coordinate entries regardless of value.
    assert header[2].split() == ["4", "4", "12"]


def test_file_layout_banner_sidecar_one_based(tmp_path):
    A = bsr([[[2.0, 0.5]], [[1.0, 3.0]]], [0, 1], [0, 1, 2], 2)
    path = tmp_path / "layout.mtx"
    write_matrix(path, A)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "%%block-sizes rows=1,1 cols=2,2"
    assert lines[2] == "2 4 4"
    first = lines[3].split()
    assert first[:2] == ["1", "1"]


def test_point_file_has_no_sidecar(tmp_path):
    A = scipy.sparse.csr_matrix(([2.0], ([0], [1])), shape=(2, 2))
    path = tmp_path / "p.mtx"
    write_matrix(path, A)
    lines = path.read_text().splitlines()
    assert not any(line.startswith("%%block-sizes") for line in lines[1:])
    assert isinstance(read_matrix(path), scipy.sparse.csr_matrix)


def test_vector_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    v = awkward_values(11, rng)
    path = tmp_path / "v.mtx"
    write_vector(path, v)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert lines[1] == "11 1"
    np.testing.assert_array_equal(read_vector(path), v)


def test_dense_agreement_after_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    A = bsr(rng.standard_normal((6, 2, 2)), [0, 1, 1, 2, 0, 2], [0, 2, 4, 6], 3)
    path = tmp_path / "d.mtx"
    write_matrix(path, A)
    np.testing.assert_array_equal(read_matrix(path).toarray(), A.toarray())


def test_read_rejects_missing_banner(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("1 1 1\n1 1 2.0\n")
    with pytest.raises(ManifestError):
        read_matrix(path)


def test_read_rejects_array_format_as_matrix(tmp_path):
    path = tmp_path / "arr.mtx"
    write_vector(path, np.array([1.0, 2.0]))
    with pytest.raises(ManifestError):
        read_matrix(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_readers_reject_non_finite_values(tmp_path, value):
    # The writer prints nan and inf as tokens loadtxt parses; both readers
    # refuse them, naming the file and the entry.
    matrix, vector = tmp_path / "m.mtx", tmp_path / "v.mtx"
    write_matrix(matrix, scipy.sparse.csr_matrix(np.array([[1.0, 0.0], [value, 2.0]])))
    write_vector(vector, np.array([1.0, 2.0, value]))
    with pytest.raises(ManifestError, match=f"{matrix}: entry 2 is {value}"):
        read_matrix(matrix)
    with pytest.raises(ManifestError, match=f"{vector}: value 3 is {value}"):
        read_vector(vector)


def test_vector_reader_rejects_multicolumn(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    with pytest.raises(ManifestError):
        read_vector(path)


def test_unsupported_matrix_type_raises(tmp_path):
    with pytest.raises(TypeError):
        write_matrix(tmp_path / "x.mtx", np.eye(2))


def write_block_file(path, entries, shape=(4, 3), rows="2,2", cols="1,1,1"):
    lines = ["%%MatrixMarket matrix coordinate real general", f"%%block-sizes rows={rows} cols={cols}"]
    lines.append(f"{shape[0]} {shape[1]} {len(entries)}")
    lines.extend(f"{r} {c} {v!r}" for r, c, v in entries)
    path.write_text("\n".join(lines) + "\n")


def test_block_reader_groups_unsorted_entries(tmp_path):
    # Entries in no particular order; blocks (0, 1) and (1, 0) are partly
    # written, so their missing entries read as stored zeros.
    path = tmp_path / "u.mtx"
    write_block_file(
        path, [(4, 4, 6.0), (1, 2, 2.0), (3, 1, 5.0), (1, 1, 1.0), (2, 1, 4.0), (3, 3, 3.0)], shape=(4, 4), cols="2,2"
    )
    A = read_matrix(path)
    assert A.blocksize == (2, 2)
    assert A.indptr.tolist() == [0, 1, 3]
    assert A.indices.tolist() == [0, 0, 1]
    np.testing.assert_array_equal(A.data[0], [[1.0, 2.0], [4.0, 0.0]])
    np.testing.assert_array_equal(A.data[1], [[5.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(A.data[2], [[3.0, 0.0], [0.0, 6.0]])


def test_block_reader_last_repeated_entry_wins(tmp_path):
    path = tmp_path / "r.mtx"
    write_block_file(path, [(1, 1, 1.0), (2, 3, 7.0), (1, 1, 9.0), (2, 3, 8.0), (1, 1, -2.0)])
    A = read_matrix(path)
    np.testing.assert_array_equal(A.toarray(), [[-2.0, 0.0, 0.0], [0.0, 0.0, 8.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("entry", [(5, 1, 1.0), (1, 4, 1.0), (0, 1, 1.0), (1, 0, 1.0)])
def test_block_reader_rejects_entry_outside_shape(tmp_path, entry):
    path = tmp_path / "o.mtx"
    write_block_file(path, [(1, 1, 1.0), entry])
    with pytest.raises(ManifestError):
        read_matrix(path)


def test_reader_bounds_a_huge_declared_size_in_its_message(tmp_path):
    # The size line is outside input; a 401-digit row count is shown as a
    # prefix in the message that rejects an entry, not in full.
    path = tmp_path / "o.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n{10**400} 2 1\n0 1 1.0\n")
    with pytest.raises(ManifestError) as exc:
        read_matrix(path)
    assert str(exc.value) == f"{path}: entry outside the declared 10000000000000000000... x 2 shape"


@pytest.mark.parametrize(
    "size_line",
    [f"{10**400} 2 1", f"2 {10**400} 1", f"{2**40} {2**40} 1", f"{2**62} 1 1", f"{2**63 - 1} 1 1", f"{2**40} 1 1"],
    ids=["rows", "cols", "product", "rows-2**62", "rows-int64-max", "rows-2**40"],
)
def test_reader_without_shape_rejects_a_size_line_past_int64_keys(tmp_path, size_line):
    # Without an expected shape, a size line past the int32 index range is
    # one short ManifestError, raised before any array is sized from it (a
    # bare ValueError, OverflowError or an 8 TiB MemoryError before).
    path = tmp_path / "o.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n{size_line}\n1 1 1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ManifestError, match="past the int32 index range") as exc:
            read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(str(exc.value)) < len(str(path)) + 100


def test_reader_without_shape_takes_sizes_below_2_to_the_31(tmp_path):
    # One row of 2**31 - 1 columns is read; one more column is not. The edge
    # is tried on the columns: the row pointer is sized from the rows.
    path = tmp_path / "edge.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n1 {2**31 - 1} 1\n1 {2**31 - 1} 2.5\n")
    A = read_matrix(path)
    assert A.shape == (1, 2**31 - 1) and A.indices.tolist() == [2**31 - 2] and A.data.tolist() == [2.5]
    assert A.indices.dtype == A.indptr.dtype == np.int32
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n1 {2**31} 1\n1 1 2.5\n")
    with pytest.raises(ManifestError, match=f"size line 1 {2**31} 1 is past the int32 index range"):
        read_matrix(path)


def test_reader_rejects_truncated_entry_list(tmp_path):
    path = tmp_path / "t.mtx"
    write_block_file(path, [(1, 1, 1.0), (2, 2, 2.0)])
    path.write_text(path.read_text().replace("4 3 2", "4 3 3"))
    with pytest.raises(ManifestError):
        read_matrix(path)


@pytest.mark.parametrize(
    "reader, head, extra",
    [
        (read_matrix, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n", "2 2 5.0\n"),
        (read_vector, "%%MatrixMarket matrix array real general\n2 1\n1.0\n2.0\n", "3.0\n"),
    ],
    ids=["matrix", "vector"],
)
def test_reader_rejects_lines_past_the_declared_count(tmp_path, reader, head, extra):
    # A size line that undercounts would otherwise load a different matrix;
    # blank lines after the declared records are still accepted.
    path = tmp_path / "x.mtx"
    path.write_text(head + "\n  \n")
    reader(path)
    path.write_text(head + extra)
    with pytest.raises(ManifestError, match="non-blank line follows"):
        reader(path)


def test_block_reader_rejects_inconsistent_block_sizes(tmp_path):
    path = tmp_path / "s.mtx"
    write_block_file(path, [(1, 1, 1.0)], rows="2")
    with pytest.raises(ManifestError, match="inconsistent"):
        read_matrix(path)


@pytest.mark.parametrize("rows, cols", [("1,3", "1,1,1"), ("2,2", "1,2")])
def test_block_reader_rejects_mixed_block_sizes(tmp_path, rows, cols):
    # BSR holds one block shape per matrix; a file listing unequal sizes is
    # rejected however its entries are laid out.
    path = tmp_path / "mixed.mtx"
    write_block_file(path, [(1, 1, 1.0)], rows=rows, cols=cols)
    with pytest.raises(ManifestError, match="mixed block sizes"):
        read_matrix(path)


def test_reader_checks_the_expected_shape_before_allocating(tmp_path):
    # A damaged size line declaring ten million rows is rejected before any
    # array is sized from it.
    path = tmp_path / "big.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n10000000 2 1\n1 1 1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ManifestError, match="expected 2 x 2"):
            read_matrix(path, (2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("entry", ["2 1", "2 1 x", "2 x 1.0", "2 1 1.0 5"])
def test_reader_rejects_malformed_entry(tmp_path, entry):
    path = tmp_path / "m.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n{entry}\n")
    with pytest.raises(ManifestError, match="malformed entry"):
        read_matrix(path)


@pytest.mark.parametrize("size_line", ["", "2 2", "2 2 x", "2 2 -1"])
def test_reader_rejects_malformed_size_line(tmp_path, size_line):
    path = tmp_path / "h.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n{size_line}\n")
    with pytest.raises(ManifestError):
        read_matrix(path)


@pytest.mark.parametrize("text", ["2 1\n1.0\nx\n", "2 1\n1.0\n2.0 3.0\n", "2\n1.0\n2.0\n"])
def test_vector_reader_rejects_malformed_lines(tmp_path, text):
    path = tmp_path / "v.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n" + text)
    with pytest.raises(ManifestError):
        read_vector(path)


@pytest.mark.parametrize(
    "text, want",
    [
        ("% note\n\n3 1\n%\n1.5\n\n%% 9.0\n-2.0\n%4.0\n3.0\n\n", [1.5, -2.0, 3.0]),
        ("%\n%%\n2 1\n0.5\n%%MatrixMarket matrix array real general\n-0.0\n", [0.5, -0.0]),
        ("0 1\n\n%\n", []),
    ],
)
def test_vector_reader_skips_comment_and_blank_lines(tmp_path, text, want):
    # Every line that starts with % and every empty line is skipped, wherever
    # it stands; the rest are the size line and the values.
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n" + text)
    got = read_vector(path)
    assert np.array_equal(got.view(np.int64), np.array(want, dtype=float).view(np.int64))


@pytest.mark.parametrize("line", [" % indented", " ", "\t"])
def test_vector_reader_keeps_lines_that_only_look_skippable(tmp_path, line):
    # A % after a blank is not a comment, and a line of white space is not
    # empty: each is read as a value, and rejected as one.
    path = tmp_path / "c.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n2 1\n1.0\n{line}\n2.0\n")
    with pytest.raises(ManifestError):
        read_vector(path)


def test_point_reader_last_repeated_entry_wins(tmp_path):
    path = tmp_path / "rp.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 3 5\n1 2 1.0\n2 3 7.0\n1 2 9.0\n2 1 4.0\n1 2 -2.0\n"
    )
    A = read_matrix(path)
    assert isinstance(A, scipy.sparse.csr_matrix) and A.has_canonical_format
    assert A.indptr.tolist() == [0, 1, 3]
    assert A.indices.tolist() == [1, 0, 2]
    np.testing.assert_array_equal(A.data, [-2.0, 4.0, 7.0])


# The exact text the writer produced before it was vectorized.
PINNED_BLOCK_TEXT = """\
%%MatrixMarket matrix coordinate real general
%%block-sizes rows=2,2 cols=1,1
4 2 6
1 1 1.5
1 2 0
2 1 -2
2 2 0
3 2 0.10000000000000001
4 2 3
"""
PINNED_POINT_TEXT = """\
%%MatrixMarket matrix coordinate real general
3 3 3
1 1 0
1 3 0.33333333333333331
3 2 -4.0000000000000001e-300
"""


def test_writer_bytes_are_pinned(tmp_path):
    # Two block rows and columns of 2 x 1 blocks with a stored all-zero
    # block; a CSR matrix with an explicit zero and an empty row.
    A = bsr([[[1.5], [-2.0]], [[0.0], [0.0]], [[0.1], [3.0]]], [0, 1, 1], [0, 2, 3], 2)
    P = scipy.sparse.csr_matrix(([0.0, 1.0 / 3.0, -4.0e-300], [0, 2, 1], [0, 2, 2, 3]), shape=(3, 3))
    for M, text in ((A, PINNED_BLOCK_TEXT), (P, PINNED_POINT_TEXT)):
        path = tmp_path / "pin.mtx"
        write_matrix(path, M)
        assert path.read_text() == text


@st.composite
def sparse_or_block_matrices(draw):
    """A random BSR matrix with one block shape, drawn per example, rectangular
    ones included (stored blocks may be all zero, block rows empty), or a
    random CSR matrix with explicit zeros, empty rows and awkward values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        stored = rng.random((draw(st.integers(1, 4)), draw(st.integers(1, 4)))) < 0.5
        blocks = awkward_values(int(stored.sum()) * r * c, rng).reshape(-1, r, c)
        if len(blocks) and draw(st.booleans()):
            blocks[0] = 0.0
        indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
        return bsr(blocks, np.nonzero(stored)[1], indptr, stored.shape[1])
    shape = (draw(st.integers(0, 6)), draw(st.integers(1, 6)))
    rows, cols = np.nonzero(rng.random(shape) < 0.4)
    vals = awkward_values(len(rows), rng)
    vals[rng.random(len(rows)) < 0.2] = 0.0
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=shape)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(sparse_or_block_matrices())
def test_write_read_round_trip_is_exact(tmp_path_factory, A):
    path = tmp_path_factory.mktemp("rt") / "a.mtx"
    write_matrix(path, A)
    B = read_matrix(path)
    assert type(B) is type(A)
    if isinstance(A, scipy.sparse.bsr_matrix):
        assert_same_bsr(B, A)
    else:
        assert B.shape == A.shape and B.has_canonical_format
        np.testing.assert_array_equal(B.indptr, A.indptr)
        np.testing.assert_array_equal(B.indices, A.indices)
        assert np.array_equal(B.data, A.data) and np.array_equal(np.signbit(B.data), np.signbit(A.data))


@pytest.mark.parametrize("field", ["symmetric", "skew-symmetric"])
def test_reader_rejects_symmetric_storage(tmp_path, field):
    # A symmetric file stores one triangle; read as general it would lose the
    # other. scipy writes [[2, 1], [1, 3]] as its lower triangle.
    path = tmp_path / "sym.mtx"
    A = np.array([[2.0, 1.0], [1.0, 3.0]]) if field == "symmetric" else np.array([[0.0, 1.0], [-1.0, 0.0]])
    scipy.io.mmwrite(path, scipy.sparse.csr_matrix(A), symmetry=field)
    assert path.read_text().splitlines()[0] == f"%%MatrixMarket matrix coordinate real {field}"
    with pytest.raises(ManifestError, match="unsupported banner"):
        read_matrix(path)


@pytest.mark.parametrize(
    "banner", ["%%MatrixMarket matrix coordinate integer general", "%%MatrixMarket matrix coordinate complex general"]
)
def test_reader_rejects_other_fields(tmp_path, banner):
    path = tmp_path / "f.mtx"
    path.write_text(f"{banner}\n1 1 1\n1 1 2\n")
    with pytest.raises(ManifestError, match="unsupported banner"):
        read_matrix(path)


def test_reader_banner_words_are_case_insensitive(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket MATRIX Coordinate Real General\n1 2 1\n1 2 5.0\n")
    assert read_matrix(path).toarray().tolist() == [[0.0, 5.0]]


@pytest.mark.parametrize(
    "text",
    [
        "2 1\n1.0\n2.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 1\n1.0\n2.0\n",
        "%%MatrixMarket matrix array real symmetric\n2 1\n1.0\n2.0\n",
    ],
)
def test_vector_reader_requires_array_banner(tmp_path, text):
    # Without a banner, or with a coordinate one, the lines used to parse as
    # a two-entry vector.
    path = tmp_path / "v.mtx"
    path.write_text(text)
    with pytest.raises(ManifestError, match="banner"):
        read_vector(path)
