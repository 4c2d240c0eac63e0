"""Matrix Market IO: exact round trips and the block-sizes sidecar."""

import numpy as np
import pytest

from kktprecond.blocklinalg import (
    BlockCsrMatrix,
    BlockPattern,
    PointCsrMatrix,
    assemble_point_csr,
    densify,
)
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
    triplets = [(i % 4, (3 * i) % 5, v) for i, v in enumerate(vals)]
    A = assemble_point_csr(triplets, 4, 5)
    path = tmp_path / "a.mtx"
    write_matrix(path, A)
    B = read_matrix(path)
    assert isinstance(B, PointCsrMatrix)
    assert B.shape == A.shape
    np.testing.assert_array_equal(B.row_ptr, A.row_ptr)
    np.testing.assert_array_equal(B.col_idx, A.col_idx)
    np.testing.assert_array_equal(B.values, A.values)


def test_block_round_trip_preserves_pattern_and_values(tmp_path):
    rng = np.random.default_rng(2)
    pat = BlockPattern([2, 3], [2, 3], [0, 2, 3], [0, 1, 1])
    blocks = [rng.standard_normal(s) for s in [(2, 2), (2, 3), (3, 3)]]
    A = BlockCsrMatrix(pat, blocks)
    path = tmp_path / "b.mtx"
    write_matrix(path, A)
    B = read_matrix(path)
    assert isinstance(B, BlockCsrMatrix)
    np.testing.assert_array_equal(B.pattern.row_block_sizes, pat.row_block_sizes)
    np.testing.assert_array_equal(B.pattern.col_block_sizes, pat.col_block_sizes)
    np.testing.assert_array_equal(B.pattern.row_ptr, pat.row_ptr)
    np.testing.assert_array_equal(B.pattern.col_idx, pat.col_idx)
    for got, want in zip(B.blocks, A.blocks):
        np.testing.assert_array_equal(got, want)


def test_stored_zero_blocks_survive_round_trip(tmp_path):
    # An all-zero stored block must stay in the pattern: every entry of a
    # stored block is written, zeros included.
    pat = BlockPattern([2, 2], [2, 2], [0, 2, 3], [0, 1, 1])
    A = BlockCsrMatrix(pat, [np.zeros((2, 2)), np.eye(2), np.eye(2)])
    path = tmp_path / "z.mtx"
    write_matrix(path, A)
    B = read_matrix(path)
    assert B.pattern.col_idx.tolist() == [0, 1, 1]
    np.testing.assert_array_equal(B.blocks[0], np.zeros((2, 2)))
    header = path.read_text().splitlines()
    # 3 stored 2x2 blocks -> 12 coordinate entries regardless of value.
    assert header[2].split() == ["4", "4", "12"]


def test_file_layout_banner_sidecar_one_based(tmp_path):
    pat = BlockPattern([1, 2], [1, 2], [0, 1, 2], [0, 1])
    A = BlockCsrMatrix(pat, [np.array([[2.0]]), np.arange(4.0).reshape(2, 2)])
    path = tmp_path / "layout.mtx"
    write_matrix(path, A)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "%%block-sizes rows=1,2 cols=1,2"
    assert lines[2] == "3 3 5"
    first = lines[3].split()
    assert first[:2] == ["1", "1"]


def test_point_file_has_no_sidecar(tmp_path):
    A = assemble_point_csr([(0, 1, 2.0)], 2, 2)
    path = tmp_path / "p.mtx"
    write_matrix(path, A)
    lines = path.read_text().splitlines()
    assert not any(line.startswith("%%block-sizes") for line in lines[1:])
    assert isinstance(read_matrix(path), PointCsrMatrix)


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
    pat = BlockPattern([2, 2, 2], [2, 2, 2], [0, 2, 4, 6], [0, 1, 1, 2, 0, 2])
    A = BlockCsrMatrix(pat, [rng.standard_normal((2, 2)) for _ in range(6)])
    path = tmp_path / "d.mtx"
    write_matrix(path, A)
    np.testing.assert_array_equal(densify(read_matrix(path)), densify(A))


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


def test_vector_reader_rejects_multicolumn(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    with pytest.raises(ManifestError):
        read_vector(path)


def test_unsupported_matrix_type_raises(tmp_path):
    with pytest.raises(TypeError):
        write_matrix(tmp_path / "x.mtx", np.eye(2))


def write_block_file(path, entries, shape=(3, 3), rows="1,2", cols="2,1"):
    lines = ["%%MatrixMarket matrix coordinate real general", f"%%block-sizes rows={rows} cols={cols}"]
    lines.append(f"{shape[0]} {shape[1]} {len(entries)}")
    lines.extend(f"{r} {c} {v!r}" for r, c, v in entries)
    path.write_text("\n".join(lines) + "\n")


def test_block_reader_groups_unsorted_entries(tmp_path):
    # Entries in no particular order; block (1, 0) is partly written, so its
    # missing entries read as stored zeros.
    path = tmp_path / "u.mtx"
    write_block_file(path, [(3, 3, 6.0), (1, 2, 2.0), (2, 1, 4.0), (1, 1, 1.0), (3, 1, 5.0), (2, 3, 3.0)])
    A = read_matrix(path)
    assert A.pattern.row_ptr.tolist() == [0, 1, 3]
    assert A.pattern.col_idx.tolist() == [0, 0, 1]
    np.testing.assert_array_equal(A.blocks[0], [[1.0, 2.0]])
    np.testing.assert_array_equal(A.blocks[1], [[4.0, 0.0], [5.0, 0.0]])
    np.testing.assert_array_equal(A.blocks[2], [[3.0], [6.0]])


def test_block_reader_last_repeated_entry_wins(tmp_path):
    path = tmp_path / "r.mtx"
    write_block_file(path, [(1, 1, 1.0), (2, 3, 7.0), (1, 1, 9.0), (2, 3, 8.0), (1, 1, -2.0)])
    A = read_matrix(path)
    np.testing.assert_array_equal(densify(A), [[-2.0, 0.0, 0.0], [0.0, 0.0, 8.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("entry", [(4, 1, 1.0), (1, 4, 1.0), (0, 1, 1.0), (1, 0, 1.0)])
def test_block_reader_rejects_entry_outside_shape(tmp_path, entry):
    path = tmp_path / "o.mtx"
    write_block_file(path, [(1, 1, 1.0), entry])
    with pytest.raises(ManifestError):
        read_matrix(path)


def test_reader_rejects_truncated_entry_list(tmp_path):
    path = tmp_path / "t.mtx"
    write_block_file(path, [(1, 1, 1.0), (2, 2, 2.0)])
    path.write_text(path.read_text().replace("3 3 2", "3 3 3"))
    with pytest.raises(ManifestError):
        read_matrix(path)


def test_block_reader_rejects_inconsistent_block_sizes(tmp_path):
    path = tmp_path / "s.mtx"
    write_block_file(path, [(1, 1, 1.0)], rows="1,1")
    with pytest.raises(ManifestError):
        read_matrix(path)


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
