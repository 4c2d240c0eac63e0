"""System export/import manifests and the command-line harness."""

import ast
import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import kktprecond
import kktprecond.cli
from conftest import singular_system, zero_coupling_system
from kktprecond.blocklinalg import checked_splu
from kktprecond.cli import CATALOG, CSV_COLUMNS, main
from kktprecond.conprec import build_at_preconditioner
from kktprecond.errors import LineSearchFailure, ManifestError, SingularBlock, SingularSystem
from kktprecond.kkt import check_case
from kktprecond.manifest import export_system, import_system
from kktprecond.mmio import read_matrix, write_vector
from kktprecond.shocktrack import build_kkt
from kktprecond.stencil import generate_stencil_system
from oracles import dense_kkt

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")

MATRIX_KEYS = ("ju", "dRdu", "dRdx", "drdx", "dRmshdx", "dPhidy", "elasticity")


# Manifest round trip --------------------------------------------------------


def test_export_writes_factor_files_and_manifest(sys8_k1, tmp_path):
    path = export_system(sys8_k1, tmp_path, prefix="state1_")
    assert path == str(tmp_path / "state1_manifest.json")
    expected = {f"state1_{key}.mtx" for key in MATRIX_KEYS}
    expected |= {"state1_g.mtx", "state1_r.mtx", "state1_manifest.json"}
    assert set(os.listdir(tmp_path)) == expected

    with open(path) as fh:
        manifest = json.load(fh)
    assert set(manifest["matrices"]) == set(MATRIX_KEYS)
    assert not any("byy" in name.lower() for name in os.listdir(tmp_path))


def test_round_trip_reproduces_the_system_exactly(sys8_k1, tmp_path):
    path = export_system(sys8_k1, tmp_path)
    loaded = import_system(path)
    np.testing.assert_array_equal(dense_kkt(loaded), dense_kkt(sys8_k1))
    np.testing.assert_array_equal(loaded.g, sys8_k1.g)
    np.testing.assert_array_equal(loaded.r, sys8_k1.r)
    assert loaded.dims == sys8_k1.dims
    assert loaded.state_index == sys8_k1.state_index
    assert loaded.case == sys8_k1.case
    assert loaded.kappa == sys8_k1.kappa
    assert loaded.gamma == sys8_k1.gamma


def test_export_creates_missing_directories(sys8_k1, tmp_path):
    outdir = tmp_path / "a" / "b"
    path = export_system(sys8_k1, outdir)
    assert os.path.exists(path)


def test_import_missing_manifest_raises(tmp_path):
    with pytest.raises(ManifestError, match="not found"):
        import_system(tmp_path / "nope.json")


def test_import_rejects_unsupported_version(sys8_k1, tmp_path):
    path = export_system(sys8_k1, tmp_path)
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["version"] = 99
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ManifestError, match="version"):
        import_system(path)


def test_import_rejects_missing_referenced_file(sys8_k1, tmp_path):
    path = export_system(sys8_k1, tmp_path)
    os.remove(tmp_path / "dRdu.mtx")
    with pytest.raises(ManifestError, match="missing"):
        import_system(path)


def test_import_rejects_inconsistent_dimensions(sys8_k1, tmp_path):
    path = export_system(sys8_k1, tmp_path)
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["dimensions"]["n_u"] += 1
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ManifestError, match="inconsistent"):
        import_system(path)


@pytest.mark.parametrize(
    "key, value, rule",
    [
        ("n_elem", 0, "n_elem must be at least 1"),
        ("n_elem", -3, "n_elem must be at least 1"),
        ("p", -1, "p must be nonnegative"),
        ("q", 0, "q must be at least 1"),
    ],
    ids=["n-elem-0", "n-elem-negative", "p-negative", "q-0"],
)
def test_dimensions_outside_their_ranges_exit_2(sys8_k1, tmp_path, capsys, monkeypatch, key, value, rule):
    """n_elem, p or q outside its range, with the stated sizes removed, is a
    ManifestError naming the rule before any matrix file is read, not a
    size-line mismatch of the first one: exit 2 with one error line."""
    path = export_system(sys8_k1, tmp_path)
    with open(path) as fh:
        manifest = json.load(fh)
    for stated in ("n_u", "n_u_enriched", "n_y", "n_x"):
        del manifest["dimensions"][stated]
    manifest["dimensions"][key] = value
    with open(path, "w") as fh:
        json.dump(manifest, fh)

    def unread(*args, **kwargs):
        raise AssertionError("a matrix file was read")

    monkeypatch.setattr("kktprecond.manifest.read_matrix", unread)
    with pytest.raises(ManifestError, match=rule) as raised:
        import_system(path)
    assert "malformed" not in str(raised.value)
    assert main(["solve", path, "--precond", "A0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and rule in captured.err and not captured.out
    assert "malformed" not in captured.err


# CLI: generate and solve ----------------------------------------------------


@pytest.fixture
def sqp_calls(monkeypatch):
    """The argument tuples of every run_sqp call the CLI makes in the test."""
    calls = []
    run_sqp = kktprecond.cli.run_sqp

    def counting_run_sqp(*args, **kwargs):
        calls.append(args)
        return run_sqp(*args, **kwargs)

    monkeypatch.setattr(kktprecond.cli, "run_sqp", counting_run_sqp)
    return calls


def write_config(tmp_path, text="n_elem = 8\np = 1\nq = 1\nstates = 1\n"):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    return str(cfg)


def test_cli_generate_then_solve(tmp_path, capsys):
    cfg = write_config(tmp_path)
    outdir = str(tmp_path / "systems")
    assert main(["generate", cfg, outdir]) == 0
    manifest_path = capsys.readouterr().out.strip()
    assert manifest_path == os.path.join(outdir, "state1_manifest.json")
    assert os.path.exists(manifest_path)

    assert main(["solve", manifest_path, "--precond", "A0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# tol=0.001 max_iters=1000"
    assert lines[1] == CSV_COLUMNS
    fields = lines[2].split(",")
    assert fields[0] == "burgers1d-n8-p1-q1"
    assert fields[1] == "A0"
    assert fields[2] == "1e-07"
    assert fields[3] == "0.01"
    assert fields[4:8] == ["1", "1", "1", "8"]
    assert int(fields[8]) >= 1
    assert fields[9] == "true"


def test_cli_solve_unknown_preconditioner(sys8_k1, tmp_path, capsys):
    path = export_system(sys8_k1, tmp_path)
    assert main(["solve", path, "--precond", "SOR"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fname, line, damage",
    [
        ("ju.mtx", -1, lambda fields: fields[:2]),
        ("ju.mtx", -1, lambda fields: fields[:2] + ["x"]),
        ("g.mtx", -1, lambda fields: ["x"]),
        ("g.mtx", -1, lambda fields: fields * 2),
        # Line 1 of ju.mtx is "%%block-sizes rows=2,2,... cols=2,2,..." (p=1).
        ("ju.mtx", 1, lambda fields: [fields[0], "rows=x" + fields[1][6:], fields[2]]),
        ("ju.mtx", 1, lambda fields: fields[:2]),
        ("ju.mtx", 1, lambda fields: [fields[0], "rows=0,4" + fields[1][8:], fields[2]]),
    ],
    ids=[
        "matrix-missing-field",
        "matrix-non-numeric",
        "vector-non-numeric",
        "vector-extra-field",
        "block-size-not-integer",
        "block-sizes-missing-cols",
        "block-size-zero",
    ],
)
def test_cli_solve_malformed_matrix_market_file(sys8_k1, tmp_path, capsys, fname, line, damage):
    path = export_system(sys8_k1, tmp_path)
    lines = (tmp_path / fname).read_text().splitlines()
    lines[line] = " ".join(damage(lines[line].split()))
    (tmp_path / fname).write_text("\n".join(lines) + "\n")
    assert main(["solve", path, "--precond", "A0"]) == 2
    assert "malformed" in capsys.readouterr().err


# Tokens a damaged manifest file may hold: numbers the readers must bound,
# non-finite values, JSON values of the wrong type, and Matrix Market words
# out of place.
DAMAGE_TOKENS = (
    "", "0", "-1", "2", "3.5", "99999", "x", "nan", "inf", "1e308", "NaN,", "Infinity,", "-1,", "null,",
    '"a",', "[1],", "{},", "%", "%%MatrixMarket", "rows=1", "cols=0,1",
)  # fmt: skip


@pytest.fixture(scope="module")
def exported8(sys8_k1, tmp_path_factory):
    return export_system(sys8_k1, tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cli_solve_survives_one_damaged_line(exported8, data):
    # One line of one file of the manifest loses, repeats or replaces a
    # token, or the file ends inside it: solve exits 0, 1 or 2 and never
    # raises.
    outdir = os.path.dirname(exported8)
    path = os.path.join(outdir, data.draw(st.sampled_from(sorted(os.listdir(outdir)))))
    with open(path) as fh:
        original = fh.read()
    lines = original.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    how = data.draw(st.sampled_from(["drop", "duplicate", "replace", "truncate"]))
    if how == "truncate":
        damaged = lines[:i] + [lines[i][: data.draw(st.integers(0, len(lines[i])))]]
    else:
        j = data.draw(st.integers(0, max(len(tokens) - 1, 0)))
        if how == "drop":
            new = []
        elif how == "duplicate":
            new = tokens[j : j + 1] * 2
        else:
            new = [data.draw(st.sampled_from(DAMAGE_TOKENS))]
        damaged = lines[:i] + [" ".join(tokens[:j] + new + tokens[j + 1 :])] + lines[i + 1 :]
    precond = data.draw(st.sampled_from(CATALOG))
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(damaged))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert main(["solve", exported8, "--precond", precond]) in (0, 1, 2)
    finally:
        with open(path, "w") as fh:
            fh.write(original)


@pytest.mark.parametrize("fname, line, value, precond", [("ju.mtx", 30, "1e308", "BILU-ilu")])
def test_cli_solve_overflowing_factor_exits_1(sys8_k1, tmp_path, capsys, fname, line, value, precond):
    # A huge entry leaves a zero on the diagonal of a compiled triangular
    # factor; SuperLU's RuntimeError becomes a typed error. An infinite one
    # is rejected by the reader (test_non_finite_entry_is_a_manifest_error).
    path = export_system(sys8_k1, tmp_path)
    lines = (tmp_path / fname).read_text().splitlines()
    row, col, _ = lines[line].split()
    lines[line] = f"{row} {col} {value}"
    (tmp_path / fname).write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["solve", path, "--precond", precond]) == 1
    assert "triangular factor" in capsys.readouterr().err


@pytest.mark.parametrize("fname, line, value", [("ju.mtx", 30, "nan"), ("g.mtx", 5, "inf"), ("elasticity.mtx", 18, "-inf")])
def test_non_finite_entry_is_a_manifest_error(sys8_k1, tmp_path, capsys, fname, line, value):
    # nan and inf are rejected when the file is read, so no factor sees them:
    # solve exits 2 with one error line naming the file, whatever the
    # preconditioner.
    path = export_system(sys8_k1, tmp_path)
    lines = (tmp_path / fname).read_text().splitlines()
    lines[line] = " ".join(lines[line].split()[:-1] + [value])
    (tmp_path / fname).write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match=re.escape(str(tmp_path / fname))):
        import_system(path)
    for precond in CATALOG:
        assert main(["solve", path, "--precond", precond]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1 and err.startswith("error: ")
        assert fname in err and "not a finite number" in err


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m["matrices"].update(ju=1e308),
        lambda m: m["matrices"].update(ju=["ju.mtx"]),
        lambda m: m.update(matrices="ju.mtx"),
        lambda m: m.update(state_index=None),
        lambda m: m["dimensions"].update(n_u=None),
        lambda m: m["scalars"].update(gamma=-1.0),
        lambda m: m["scalars"].update(kappa=float("nan")),
        # json writes an infinite value as the token Infinity, which json.load accepts.
        lambda m: m["scalars"].update(kappa=float("inf")),
        lambda m: m["scalars"].update(gamma=float("-inf")),
        lambda m: m["scalars"].update(kappa="1e-7"),
        lambda m: m["scalars"].update(gamma=True),
        lambda m: m["dimensions"].update(n_elem=8.7),
        lambda m: m["dimensions"].update(n_elem=8.0),
        lambda m: m["dimensions"].update(p="1"),
        lambda m: m["dimensions"].update(n_u=16.0),
        lambda m: m.update(state_index=2.9),
        lambda m: m.update(state_index=True),
        lambda m: m.update(state_index=-4),
        lambda m: m.update(case=7),
        lambda m: m.update(version=True),
        lambda m: m.update(version=1.0),
        lambda m: m.pop("version"),
    ],
    ids=[
        "file-number",
        "file-list",
        "section-string",
        "state-null",
        "dimension-null",
        "gamma-negative",
        "kappa-nan",
        "kappa-inf",
        "gamma-minus-inf",
        "kappa-string",
        "gamma-bool",
        "n-elem-fraction",
        "n-elem-float",
        "p-string",
        "n-u-float",
        "state-fraction",
        "state-bool",
        "state-negative",
        "case-number",
        "version-bool",
        "version-float",
        "version-missing",
    ],
)
def test_cli_solve_malformed_manifest_values_exit_2(sys8_k1, tmp_path, capsys, edit):
    """Each damaged value is a ManifestError: exit 2 with one error line, not
    a value cast to an integer or float and solved."""
    path = export_system(sys8_k1, tmp_path)
    with open(path) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ManifestError):
        import_system(path)
    assert main(["solve", path, "--precond", "A0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and captured.err.startswith("error: ") and not captured.out


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit before Python 3.10.7")
def test_json_integer_past_the_digit_limit_exits_2(sys8_k1, tmp_path, capsys):
    """json.load raises a plain ValueError, not JSONDecodeError, for an
    integer of more than 4300 digits: in a manifest or a sweep spec it is
    invalid JSON, exit 2 with one error line."""
    huge = "1" * 5000
    path = export_system(sys8_k1, tmp_path)
    text = (tmp_path / "manifest.json").read_text()
    (tmp_path / "manifest.json").write_text(re.sub(r'"kappa": [^,\n]*', f'"kappa": {huge}', text))
    with pytest.raises(ManifestError, match="invalid JSON"):
        import_system(path)
    spec = tmp_path / "spec.json"
    spec.write_text(f'{{"axis": "gamma", "values": [{huge}], "preconditioners": ["A0"]}}')
    for argv in (["solve", path, "--precond", "A0"], ["sweep", str(spec)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("error:") == 1 and "invalid JSON" in err


@pytest.mark.parametrize("fname", ["ju.mtx", "dRdu.mtx"])
def test_cli_solve_block_factor_without_block_sizes_exits_2(sys8_k1, tmp_path, capsys, fname):
    path = export_system(sys8_k1, tmp_path)
    lines = (tmp_path / fname).read_text().splitlines()
    assert lines[1].startswith("%%block-sizes")
    (tmp_path / fname).write_text("\n".join(lines[:1] + lines[2:]) + "\n")
    for precond in ("A0", "BJ", "BILU"):
        assert main(["solve", path, "--precond", precond]) == 2
        assert "has no %%block-sizes line" in capsys.readouterr().err


@pytest.mark.parametrize("fname", ["ju.mtx", "dRdu.mtx"])
def test_cli_solve_mixed_block_sizes_exits_2(sys8_k1, tmp_path, capsys, fname):
    # Line 1 lists one size per block row; the first row made one larger and
    # the second one smaller keeps the total, so only the mixed sizes are wrong.
    path = export_system(sys8_k1, tmp_path)
    lines = (tmp_path / fname).read_text().splitlines()
    tag, rows, cols = lines[1].split()
    sizes = [int(w) for w in rows[len("rows=") :].split(",")]
    sizes[0] += 1
    sizes[1] -= 1
    lines[1] = f"{tag} rows={','.join(map(str, sizes))} {cols}"
    (tmp_path / fname).write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match="mixed block sizes"):
        import_system(path)
    assert main(["solve", path, "--precond", "BJ"]) == 2
    assert "mixed block sizes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fname, message",
    [
        ("ju.mtx", "ju.mtx has (1, 1) blocks, expected (2, 2)"),
        ("dRdu.mtx", "dRdu.mtx has (1, 1) blocks, expected (3, 2)"),
    ],
)
def test_cli_solve_wrong_uniform_block_shape_exits_2(sys8_k1, tmp_path, capsys, fname, message):
    # One 1 per row and per column: a block-sizes line mmio accepts, whose
    # blocks are not the element blocks the system's dimensions give.
    path = export_system(sys8_k1, tmp_path)
    lines = (tmp_path / fname).read_text().splitlines()
    n_rows, n_cols, _ = map(int, lines[2].split())
    lines[1] = f"%%block-sizes rows={','.join(['1'] * n_rows)} cols={','.join(['1'] * n_cols)}"
    (tmp_path / fname).write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match=re.escape(message)):
        import_system(path)
    assert main(["solve", path, "--precond", "A0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("key, want", [("g", "has shape (22,), expected (23,)"), ("r", "has shape (15,), expected (16,)")])
def test_import_names_the_listed_file_of_a_vector_of_wrong_length(sys8_k1, tmp_path, capsys, key, want):
    # The record's length check names the file the manifest lists, with its
    # prefix, not the KktSystem field.
    path = export_system(sys8_k1, tmp_path, prefix="state1_")
    write_vector(tmp_path / f"state1_{key}.mtx", getattr(sys8_k1, key)[:-1])
    message = f"state1_{key}.mtx {want}"
    with pytest.raises(ManifestError, match=re.escape(message)):
        import_system(path)
    assert main(["solve", path, "--precond", "A0"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err


@pytest.mark.parametrize("fname, want", [("ju.mtx", "expected 16 x 16"), ("dRdx.mtx", "expected 24 x 9")])
def test_import_rejects_a_size_line_before_allocating(sys8_k1, tmp_path, fname, want):
    # A damaged size line declaring ten million rows is checked against the
    # manifest's dimensions before the reader sizes anything from it.
    path = export_system(sys8_k1, tmp_path)
    lines = (tmp_path / fname).read_text().splitlines()
    k = 2 if lines[1].startswith("%%block-sizes") else 1
    lines[k] = " ".join(["10000000"] + lines[k].split()[1:])
    (tmp_path / fname).write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ManifestError, match=want):
            import_system(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cli_solves_block_tagged_mesh_jacobians_as_before(sys8_k1, tmp_path, capsys):
    # Older manifests wrote dRdx.mtx and drdx.mtx as block matrices, one block
    # row per element and one column per block; they import as their scalar
    # view and give the same CSV rows.
    dims = sys8_k1.dims
    path = export_system(sys8_k1, tmp_path)
    outputs = []
    for tagged in (False, True):
        if tagged:
            for fname, rows_per_elem in (("dRdx.mtx", dims.test_degree + 1), ("drdx.mtx", dims.p + 1)):
                lines = (tmp_path / fname).read_text().splitlines()
                rows = ",".join([str(rows_per_elem)] * dims.n_elem)
                lines.insert(1, f"%%block-sizes rows={rows} cols={','.join(['1'] * dims.n_x)}")
                (tmp_path / fname).write_text("\n".join(lines) + "\n")
            assert isinstance(read_matrix(tmp_path / "dRdx.mtx"), scipy.sparse.bsr_matrix)
        for precond in CATALOG:
            assert main(["solve", path, "--precond", precond]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[len(CATALOG) :] == outputs[: len(CATALOG)]
    loaded = import_system(path)
    for name in ("dRdx", "drdx"):
        got, want = getattr(loaded, name), getattr(sys8_k1, name)
        assert isinstance(got, scipy.sparse.csr_matrix)
        assert (got != want).nnz == 0 and got.nnz == want.nnz


@pytest.mark.parametrize("precond", ["A0", "A0-p0", "BJ", "BILU"])
def test_cli_solve_singular_system_exits_1(sys8_k1, tmp_path, capsys, precond):
    # A0 and A0-p0 fail on the exact Byy factor, BJ and BILU on the reference,
    # after point Jacobi of Byy has safeguarded its zero diagonal entry.
    path = export_system(singular_system(sys8_k1), tmp_path)
    safeguard = pytest.warns(RuntimeWarning, match="zero diagonal entries safeguarded to 1")
    with safeguard if precond in ("BJ", "BILU") else contextlib.nullcontext():
        assert main(["solve", path, "--precond", precond]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "singular" in err


@pytest.mark.parametrize("option, value", [("--tol", "0"), ("--tol", "nan"), ("--max-iters", "0")])
def test_cli_solve_rejects_bad_gmres_settings_before_loading(exported8, capsys, monkeypatch, option, value):
    loads = []
    monkeypatch.setattr(kktprecond.cli, "import_system", loads.append)
    assert main(["solve", exported8, "--precond", "A0", option, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid GMRES settings") and err.count("\n") == 1
    assert loads == []


def test_cli_solve_missing_manifest(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "gone.json"), "--precond", "A0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_generate_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "order = 3\n")
    assert main(["generate", cfg, str(tmp_path / "out")]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, key, cause",
    [
        ("n_elem = 8\nkappa = abc\n", 2, "kappa", "could not convert string to float: 'abc'"),
        ("states = 1.5\n", 1, "states", "invalid literal for int() with base 10: '1.5'"),
        ("# comment\n\nn_elem = x\n", 3, "n_elem", "invalid literal for int() with base 10: 'x'"),
        ("n_elem = 8\nsource = maybe\n", 2, "source", "cannot parse boolean 'maybe'"),
    ],
    ids=["kappa-word", "states-fraction", "n-elem-word", "source-word"],
)
def test_cli_generate_names_the_line_and_key_of_a_rejected_value(tmp_path, capsys, sqp_calls, text, line, key, cause):
    cfg = write_config(tmp_path, text)
    assert main(["generate", cfg, str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {cfg}:{line}: invalid {key}: {cause}\n"
    assert sqp_calls == [] and not (tmp_path / "out").exists()


def test_cli_generate_names_the_file_and_line_of_an_unknown_key(tmp_path, capsys, sqp_calls):
    cfg = write_config(tmp_path, "n_elem = 8\n# the degree key is p\norder = 3\n")
    assert main(["generate", cfg, str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {cfg}:3: unknown config key 'order'\n"
    assert sqp_calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["left,right", 'say "x"', "a\rb", "a\nb"], ids=["comma", "quote", "cr", "lf"])
def test_check_case_rejects_what_would_split_a_csv_row(case):
    with pytest.raises(ValueError, match="invalid case"):
        check_case(case)
    check_case("burgers1d-n8-p1-q1; left/right")


def test_library_path_applies_the_case_rule_before_export(prob8, states8, sys8_k1, tmp_path):
    # build_kkt's system applies check_case itself, so a case that import
    # would refuse is never exported.
    for case in ("left,right", "a\nb"):
        with pytest.raises(ValueError) as rule:
            check_case(case)
        with pytest.raises(ValueError) as raised:
            export_system(build_kkt(prob8, states8[1], case=case), tmp_path / "out")
        assert str(raised.value) == str(rule.value)
        with pytest.raises(ValueError) as raised:
            dataclasses.replace(sys8_k1, case=case)
        assert str(raised.value) == str(rule.value)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["left,right", 'say "x"'], ids=["comma", "quote"])
def test_cli_generate_rejects_a_case_that_breaks_the_csv(tmp_path, capsys, sqp_calls, case):
    cfg = write_config(tmp_path, f"n_elem = 8\ncase = {case}\n")
    assert main(["generate", cfg, str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid case") and err.count("\n") == 1
    assert sqp_calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["left,right", "a\nb"], ids=["comma", "lf"])
def test_cli_sweep_rejects_a_fixed_case_that_breaks_the_csv(tmp_path, capsys, sqp_calls, case):
    spec = {"axis": "gamma", "values": [0.1], "preconditioners": ["A0"], "fixed": {"n_elem": 8, "case": case}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid case") and err.count("\n") == 1
    assert sqp_calls == []


@pytest.mark.parametrize("case", ["left,right", "a\nb", "a\r"], ids=["comma", "lf", "cr"])
def test_import_rejects_a_case_that_breaks_the_csv_before_reading_matrices(sys8_k1, tmp_path, capsys, monkeypatch, case):
    path = export_system(sys8_k1, tmp_path)
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["case"] = case
    with open(path, "w") as fh:
        json.dump(manifest, fh)

    def unread(*args, **kwargs):
        raise AssertionError("a matrix file was read")

    monkeypatch.setattr("kktprecond.manifest.read_matrix", unread)
    with pytest.raises(ManifestError, match="invalid case"):
        import_system(path)
    assert main(["solve", path, "--precond", "A0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "invalid case" in err and err.count("\n") == 1


@pytest.mark.parametrize("where", ["sweep", "manifest"])
def test_a_value_no_float_holds_gives_one_short_error_line(sys8_k1, tmp_path, capsys, monkeypatch, where):
    """The JSON type rule shows a bounded prefix of the value it rejects, not
    its 401 digits."""
    monkeypatch.chdir(tmp_path)
    if where == "sweep":
        spec = {"axis": "kappa", "values": [10**400], "preconditioners": ["A0"], "fixed": {"n_elem": 8}}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = ["sweep", "spec.json"]
    else:
        export_system(sys8_k1, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["scalars"]["kappa"] = 10**400
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        argv = ["solve", "manifest.json", "--precond", "A0"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("error:") == 1 and err.count("\n") == 1
    assert len(err) < 120 and "invalid kappa" in err and "10000" in err


def _drop_stated_sizes(manifest):
    for key in ("n_u", "n_u_enriched", "n_x", "n_y"):
        del manifest["dimensions"][key]


def _set_size_field(path, field, value):
    """Replace one field of a matrix file's size line."""
    lines = path.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith("%"))
    words = lines[k].split()
    words[field] = str(value)
    lines[k] = " ".join(words)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "edit, shown",
    [
        (lambda m, d: m.update(version=10**400), "unsupported manifest version 10000000000000000000..."),
        (lambda m, d: m.update(state_index=-(10**400)), "state_index -1000000000000000000... must be nonnegative"),
        (lambda m, d: m["dimensions"].update(n_y=10**400), "dimension n_y=10000000000000000000... inconsistent"),
        (
            lambda m, d: (_drop_stated_sizes(m), m["dimensions"].update(n_elem=10**400)),
            "expected 20000000000000000000... x 20000000000000000000...",
        ),
        (lambda m, d: _set_size_field(d / "ju.mtx", 0, 10**400), "size line declares 10000000000000000000... x "),
        (lambda m, d: _set_size_field(d / "dRdu.mtx", 2, 10**400), "header declares 10000000000000000000... entries"),
    ],
    ids=["version", "state_index", "stated-dimension", "n_elem", "size-line-rows", "size-line-entries"],
)
def test_a_huge_manifest_integer_gives_one_short_error_line(sys8_k1, tmp_path, capsys, monkeypatch, edit, shown):
    """An integer of the manifest or of a matrix file's size line is shown as
    a bounded prefix in the message that rejects it, not with its 401 digits
    (the matrix file's path aside)."""
    monkeypatch.chdir(tmp_path)
    export_system(sys8_k1, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    edit(manifest, tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["solve", "manifest.json", "--precond", "A0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("error:") == 1 and err.count("\n") == 1
    assert len(err.replace(str(tmp_path), "")) < 120 and shown in err


@pytest.mark.parametrize("text", ["n_elem = 0\n", "q = 3\n", "p = -1\n"], ids=["n_elem-0", "q-3", "p-negative"])
def test_cli_generate_rejects_bad_problem_parameters(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    assert main(["generate", cfg, str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid problem parameters")


@pytest.mark.parametrize(
    "text",
    [
        "gamma = -1\n",
        "kappa = -1\n",
        "gamma = nan\n",
        "kappa = nan\n",
        "states = -1\n",
        "states = 7\nmax_iters = 6\n",
        "kappa = inf\n",
        "gamma = inf\n",
        "bc_left = nan\n",
        "bc_left = inf\n",
        "bc_right = -inf\n",
        "states =\n",
        "n_elem = 16\n",
    ],
    ids=[
        "gamma-negative",
        "kappa-negative",
        "gamma-nan",
        "kappa-nan",
        "state-negative",
        "state-past-max-iters",
        "kappa-inf",
        "gamma-inf",
        "bc-left-nan",
        "bc-left-inf",
        "bc-right-minus-inf",
        "states-empty",
        "n-elem-repeated",
    ],
)
def test_cli_generate_rejects_bad_weights_and_states_before_the_sqp_run(tmp_path, capsys, sqp_calls, text):
    cfg = write_config(tmp_path, "n_elem = 8\n" + text)
    assert main(["generate", cfg, str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("error:") == 1 and err.count("\n") == 1
    assert sqp_calls == [] and not (tmp_path / "out").exists()


def test_cli_generate_rejects_negative_max_iters_with_its_own_message(tmp_path, capsys, sqp_calls):
    cfg = write_config(tmp_path, "n_elem = 8\nmax_iters = -1\n")
    assert main(["generate", cfg, str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: invalid max_iters -1: must be nonnegative\n"
    assert sqp_calls == [] and not (tmp_path / "out").exists()


def test_cli_generate_singular_step_exits_1(tmp_path, capsys):
    """Without the source term the first step matrix is numerically singular
    (its smallest pivot is about 1e-17 against max |K| = 1.28, and the third
    step meets an exactly zero one): one error line and exit 1, no
    ill-conditioning warning from a solve."""
    cfg = write_config(tmp_path, "n_elem = 8\nsource = no\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["generate", cfg, str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: KKT matrix of dimension 39: pivot below 1e-14 relative threshold (scale 1.28)\n"


def test_cli_generate_near_singular_step_exits_1(tmp_path, capsys):
    """With boundary values 0.5 / -0.5 and no source term the first step
    matrix has condition number about 6e16, and its band LU meets an
    exactly zero pivot (dgbtrf's info 39); the run stops there with the
    relative pivot test's text."""
    cfg = write_config(tmp_path, "n_elem = 8\nsource = no\nbc_left = 0.5\nbc_right = -0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["generate", cfg, str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: KKT matrix of dimension 39: pivot below 1e-14 relative threshold (scale 1.28)\n"
    assert not (tmp_path / "out").exists()


def test_cli_generate_unavailable_state(tmp_path, capsys):
    cfg = write_config(tmp_path, "n_elem = 8\nstates = 99\n")
    assert main(["generate", cfg, str(tmp_path / "out")]) == 2
    assert "not available" in capsys.readouterr().err


def test_cli_zero_coupling_system_needs_one_iteration(sys8_k1, tmp_path, capsys):
    path = export_system(zero_coupling_system(sys8_k1), tmp_path)
    assert main(["solve", path, "--precond", "A0"]) == 0
    a0_fields = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert a0_fields[8] == "1"
    assert a0_fields[9] == "true"

    assert main(["solve", path, "--precond", "BJ"]) == 0
    bj_fields = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert int(bj_fields[8]) >= int(a0_fields[8])


# CLI: sweep -----------------------------------------------------------------


def test_cli_sweep_gamma_axis_ordering(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(
        json.dumps(
            {
                "axis": "gamma",
                "values": [0.1, 0.001],
                "preconditioners": ["A0", "BJ"],
                "fixed": {"n_elem": 8},
            }
        )
    )
    assert main(["sweep", str(spec)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# tol=0.001 max_iters=1000"
    assert lines[1] == CSV_COLUMNS
    rows = [line.split(",") for line in lines[2:]]
    assert [(r[3], r[1]) for r in rows] == [
        ("0.1", "A0"),
        ("0.1", "BJ"),
        ("0.001", "A0"),
        ("0.001", "BJ"),
    ]
    assert all(r[9] == "true" for r in rows)


def test_cli_sweep_reports_solve_errors(tmp_path, capsys, monkeypatch):
    def failing_build(sys, variant):
        if variant == "BJ":
            raise SingularBlock("block row 3: pivot below threshold")
        return build_at_preconditioner(sys, variant)

    monkeypatch.setattr(kktprecond.cli, "build_at_preconditioner", failing_build)
    spec = tmp_path / "sweep.json"
    spec.write_text(
        json.dumps({"axis": "gamma", "values": [0.1], "preconditioners": ["A0", "BJ"], "fixed": {"n_elem": 8}})
    )
    assert main(["sweep", str(spec)]) == 0
    out, err = capsys.readouterr()
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert [(r[1], r[9]) for r in rows] == [("A0", "true"), ("BJ", "false")]
    assert rows[1][8] == "1000"
    case = rows[1][0]
    assert err.splitlines() == [f"error: {case} BJ: SingularBlock: block row 3: pivot below threshold"]


def test_cli_sweep_factors_k_once_per_system(tmp_path, capsys, monkeypatch):
    # Every variant of a system is measured against one reference solution:
    # K is factored once per system of the sweep, not once per solve.
    factored = []

    def counting(A, error, context):
        factored.append(A.shape)
        return checked_splu(A, error, context)

    monkeypatch.setattr(kktprecond.kkt, "checked_splu", counting)
    spec = tmp_path / "sweep.json"
    spec.write_text(
        json.dumps({"axis": "gamma", "values": [0.1, 0.01], "preconditioners": list(CATALOG), "fixed": {"n_elem": 8}})
    )
    assert main(["sweep", str(spec)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert len(rows) == 2 * len(CATALOG) and all(row.endswith(",true") for row in rows)
    assert len(factored) == 2


def test_cli_sweep_reports_a_failed_reference_after_each_build(tmp_path, capsys, monkeypatch):
    # The reference is computed after the preconditioner is built, so a
    # failing build is reported before it, and a reference that raises is
    # not kept: every variant whose build succeeds reports it again.
    events = []

    def failing_build(sys, variant):
        events.append(("build", variant))
        if variant == "BJ":
            raise SingularBlock("block row 3: pivot below threshold")
        return build_at_preconditioner(sys, variant)

    def failing_reference(sys):
        events.append(("reference", None))
        raise SingularSystem("KKT matrix of dimension 41: singular")

    monkeypatch.setattr(kktprecond.cli, "build_at_preconditioner", failing_build)
    monkeypatch.setattr(kktprecond.cli, "reference_solution", failing_reference)
    spec = tmp_path / "sweep.json"
    spec.write_text(
        json.dumps({"axis": "gamma", "values": [0.1], "preconditioners": ["A0", "BJ", "BILU"], "fixed": {"n_elem": 8}})
    )
    assert main(["sweep", str(spec)]) == 0
    out, err = capsys.readouterr()
    assert [row.split(",")[8:] for row in out.strip().splitlines()[2:]] == [["1000", "false"]] * 3
    case = out.strip().splitlines()[2].split(",")[0]
    assert err.splitlines() == [
        f"error: {case} A0: SingularSystem: KKT matrix of dimension 41: singular",
        f"error: {case} BJ: SingularBlock: block row 3: pivot below threshold",
        f"error: {case} BILU: SingularSystem: KKT matrix of dimension 41: singular",
    ]
    assert events == [("build", "A0"), ("reference", None), ("build", "BJ"), ("build", "BILU"), ("reference", None)]


def test_main_runs_the_command_bound_at_call_time(sys8_k1, tmp_path, capsys, monkeypatch):
    # The parser is built once, on the first call; a command function
    # replaced after that call (as a benchmark hook does) is the one run.
    path = export_system(sys8_k1, tmp_path)
    assert main(["solve", path, "--precond", "BJ"]) == 0
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(kktprecond.cli, "cmd_solve", lambda args: calls.append(args.manifest) or 0)
    assert main(["solve", path, "--precond", "BJ"]) == 0
    assert calls == [path]
    assert capsys.readouterr().out == ""
    assert kktprecond.cli.build_parser() is kktprecond.cli.build_parser()


def test_cli_sweep_rejects_bad_specs(tmp_path, capsys):
    cases = [
        {"axis": "volume", "values": [1], "preconditioners": ["A0"]},
        {"axis": "gamma", "values": [], "preconditioners": ["A0"]},
        {"axis": "gamma", "values": [0.1], "preconditioners": []},
        {"axis": "gamma", "values": [0.1], "preconditioners": ["A0"], "fixed": {"nel": 8}},
    ]
    for i, spec in enumerate(cases):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", str(path)]) == 2, spec
        assert "error:" in capsys.readouterr().err

    assert main(["sweep", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", str(bad)]) == 2


@pytest.mark.parametrize(
    "spec",
    [
        {"axis": "gamma", "values": [0.1], "preconditioners": ["A0"], "fixed": {"n_elem": "8"}},
        {"axis": "gamma", "values": ["abc"], "preconditioners": ["A0"], "fixed": {"n_elem": 4}},
        {"axis": "mesh", "values": [0], "preconditioners": ["A0"]},
        [{"axis": "gamma", "values": [0.1], "preconditioners": ["A0"]}],
        {"axis": "gamma", "values": 0.1, "preconditioners": ["A0"]},
        {"axis": "gamma", "values": [0.1], "preconditioners": 1},
        {"axis": "gamma", "values": [0.1], "preconditioners": ["A0"], "fixed": [1]},
        {"axis": "degree", "values": [[1]], "preconditioners": ["A0"], "fixed": {"n_elem": 4}},
        {"axis": "state", "values": [-1], "preconditioners": ["A0"]},
        {"axis": "gamma", "values": [0.1], "preconditioners": ["A0"], "max_iters": 2.5},
        {"axis": "gamma", "values": [0.1], "preconditioners": ["A0"], "fixed": {"n_elem": 4}, "tol": 0},
        {"axis": "gamma", "values": [0.1], "preconditioners": ["A0"], "fixed": {"n_elem": 4}, "max_iters": 0},
        {"axis": "gamma", "values": [0.1], "preconditioners": ["A0"], "fixed": {"n_elem": 8}, "tol": True},
        {"axis": "gamma", "values": [0.1], "preconditioners": ["A0"], "fixed": {"n_elem": 8}, "tol": "0.1"},
        {"axis": "gamma", "values": [0.1], "preconditioners": ["A0"], "fixed": {"n_elem": 8}, "tol": 10**400},
    ],
    ids=[
        "fixed-string",
        "gamma-not-a-number",
        "mesh-zero",
        "spec-list",
        "values-not-a-list",
        "preconditioners-not-a-list",
        "fixed-not-an-object",
        "degree-pair-too-short",
        "state-negative",
        "max-iters-fractional",
        "tol-zero",
        "max-iters-zero",
        "tol-bool",
        "tol-string",
        "tol-beyond-a-float",
    ],
)
def test_cli_sweep_bad_values_exit_2(tmp_path, capsys, sqp_calls, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("error:") == 1
    assert sqp_calls == []


@pytest.mark.parametrize(
    "axis, values, fixed",
    [
        ("mesh", [8, "abc"], {}),
        ("mesh", [8, 0], {}),
        ("degree", [1, "abc"], {}),
        ("degree", [[1, 1], [2]], {}),
        ("degree", [1, -1], {}),
        ("gamma", [0.01, -1], {}),
        ("gamma", [float("nan")], {}),
        ("kappa", [-1], {}),
        ("mesh", [8], {"gamma": -1}),
        ("state", [1], {"kappa": -1}),
        ("state", [1, 7], {"max_iters": 6}),
        ("gamma", [0.01], {"state": 7, "max_iters": 6}),
        ("gamma", [0.1], {"n_elem": 8, "bc_left": "abc"}),
        ("mesh", [8.7], {}),
        ("gamma", [0.1], {"n_elem": 8.7}),
        ("degree", [[1.5, True]], {}),
        ("degree", [[1, True]], {}),
        ("state", [1.5], {}),
        ("mesh", [8.0], {}),
        ("gamma", [float("inf")], {}),
        ("kappa", [0.1], {"gamma": float("inf")}),
        ("gamma", [0.1], {"n_elem": 8, "bc_left": float("nan")}),
        ("state", [1], {"n_elem": 8, "bc_right": float("-inf")}),
        ("mesh", [8], {"max_iters": -1, "state": 0}),
        ("gamma", [0.1], {"n_elem": 8, "states": "5, 7"}),
        ("gamma", [0.1], {"n_elem": 8, "states": ""}),
        ("gamma", ["0.1"], {"n_elem": 8}),
        ("kappa", [True], {"n_elem": 8}),
        ("gamma", [0.1], {"n_elem": 8, "kappa": True}),
        ("kappa", [0.1], {"n_elem": 8, "gamma": False}),
        ("gamma", [0.1], {"n_elem": 8, "bc_left": True}),
        ("gamma", [0.1], {"n_elem": 8, "bc_right": False}),
        ("gamma", [0.1], {"n_elem": 8, "case": 7}),
        ("kappa", [10**400], {"n_elem": 8}),
    ],
    ids=[
        "mesh-not-a-number",
        "mesh-zero",
        "degree-not-a-number",
        "degree-pair-too-short",
        "degree-negative",
        "gamma-negative",
        "gamma-nan",
        "kappa-negative",
        "fixed-gamma-negative",
        "fixed-kappa-negative",
        "state-past-max-iters",
        "fixed-state-past-max-iters",
        "fixed-bc-left-not-a-number",
        "mesh-fractional",
        "fixed-n-elem-fractional",
        "degree-fractional",
        "degree-bool",
        "state-fractional",
        "mesh-float",
        "gamma-inf",
        "fixed-gamma-inf",
        "fixed-bc-left-nan",
        "fixed-bc-right-minus-inf",
        "fixed-max-iters-negative",
        "fixed-states",
        "fixed-states-empty",
        "gamma-string",
        "kappa-bool",
        "fixed-kappa-bool",
        "fixed-gamma-bool",
        "fixed-bc-left-bool",
        "fixed-bc-right-bool",
        "fixed-case-number",
        "kappa-beyond-a-float",
    ],
)
def test_cli_sweep_checks_every_value_before_the_first_sqp_run(tmp_path, capsys, sqp_calls, axis, values, fixed):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"axis": axis, "values": values, "preconditioners": ["A0"], "fixed": fixed}))
    assert main(["sweep", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("error:") == 1
    assert sqp_calls == []


@pytest.mark.parametrize("source, on", [("no", False), (False, False), ("on", True)])
def test_cli_sweep_casts_fixed_source_like_the_config_file(tmp_path, capsys, monkeypatch, source, on):
    problems = []

    def failing_run_sqp(problem, cfg):
        problems.append(problem)
        raise LineSearchFailure("not run")

    monkeypatch.setattr(kktprecond.cli, "run_sqp", failing_run_sqp)
    spec = {"axis": "gamma", "values": [0.1], "preconditioners": ["A0"], "fixed": {"n_elem": 8, "source": source}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 1
    assert [problem.source_on for problem in problems] == [on]


# CLI: stencil ---------------------------------------------------------------


def test_cli_stencil_deterministic_output(tmp_path, capsys):
    out1 = tmp_path / "a.mtx"
    out2 = tmp_path / "b.mtx"
    assert main(["stencil", str(out1), "--n", "3", "--block", "2", "--seed", "5"]) == 0
    assert main(["stencil", str(out2), "--n", "3", "--block", "2", "--seed", "5"]) == 0
    assert capsys.readouterr().out == f"{out1}\n{out2}\n"
    assert out1.read_bytes() == out2.read_bytes()

    A = read_matrix(str(out1))
    B = generate_stencil_system(3, 2, 5)
    assert A.blocksize == B.blocksize == (2, 2)
    np.testing.assert_array_equal(A.indices, B.indices)
    np.testing.assert_array_equal(A.data, B.data)


@pytest.mark.parametrize("n, block", [(0, 2), (2, 0)], ids=["n-0", "block-0"])
def test_cli_stencil_bad_size_exits_2(tmp_path, capsys, n, block):
    out = tmp_path / "a.mtx"
    assert main(["stencil", str(out), "--n", str(n), "--block", str(block)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: invalid stencil parameters") and err.count("\n") == 1
    assert not out.exists()


def test_stencil_edge_grids(tmp_path):
    single = generate_stencil_system(1, 3, 0)
    assert single.shape == single.blocksize == (3, 3)
    assert single.data.shape == (1, 3, 3)

    A = generate_stencil_system(3, 1, 0)
    counts = np.diff(A.indptr)
    np.testing.assert_array_equal(counts, [3, 4, 3, 4, 5, 4, 3, 4, 3])

    with pytest.raises(ValueError):
        generate_stencil_system(0, 1, 0)
    with pytest.raises(ValueError):
        generate_stencil_system(2, 0, 0)


# Console script -------------------------------------------------------------


def _pyproject():
    """The ``[project]`` table of the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def _declared_console_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    return _pyproject()["scripts"]


def _requirement_names(requirements):
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}


def test_test_extra_covers_every_test_import():
    # `pip install .[test]` is the one dependency list CI installs, so every
    # third-party module a test module imports must be in the extra.
    project = _pyproject()
    extra = project["optional-dependencies"]["test"]
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    modules = [name for name in os.listdir(tests_dir) if name.endswith(".py")]
    local = {name[:-3] for name in modules} | {"kktprecond"}
    imported = set()
    for name in modules:
        with open(os.path.join(tests_dir, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local - _requirement_names(project["dependencies"])
    assert {"hypothesis", "pytest"} <= third_party
    assert third_party <= _requirement_names(extra)
    # Python 3.10 reads pyproject.toml through tomli, the backport of tomllib.
    markers = {req.split(";")[0].strip(): req.split(";")[1].strip() for req in extra if ";" in req}
    assert markers.get("tomli") == 'python_version < "3.11"'


# Runs of the console script in the test's directory: the arguments and the
# exit code. The solve reads the n_elem=8 manifest that the test generates in
# process first; singular.cfg makes the first SQP step numerically singular.
CONSOLE_RUNS = {
    "stencil": (["stencil", "s.mtx", "--n", "2", "--block", "1"], 0),
    "solve": (["solve", "out/state1_manifest.json", "--precond", "A0"], 0),
    "usage-error": (["stencil", "s.mtx", "--n", "0", "--block", "2"], 2),
    "numerical-failure": (["generate", "singular.cfg", "out"], 1),
}


@pytest.mark.parametrize("argv, status", CONSOLE_RUNS.values(), ids=CONSOLE_RUNS)
def test_console_script_runs(tmp_path, capsys, argv, status):
    scripts = _declared_console_scripts()
    assert scripts.get("kktprecond") == "kktprecond.cli:main"
    if argv[0] == "solve":
        assert main(["generate", write_config(tmp_path), str(tmp_path / "out")]) == 0
        capsys.readouterr()
    elif argv[0] == "generate":
        (tmp_path / "singular.cfg").write_text("n_elem = 8\nsource = no\nbc_left = 0.5\nbc_right = -0.5\n")
    before = sorted(os.listdir(tmp_path))

    # Run the declared entry point in a fresh interpreter, as the generated
    # console-script wrapper does, with the imported package first on the path.
    pkg_parent = os.path.dirname(os.path.dirname(kktprecond.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_parent, env.get("PYTHONPATH")]))
    code = "import sys; from kktprecond.cli import main; sys.exit(main())"
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, capture_output=True, text=True, env=env)
    assert proc.returncode == status, proc.stderr
    if status:
        assert proc.stdout == "" and proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before
    elif argv[0] == "stencil":
        assert proc.stdout == "s.mtx\n" and (tmp_path / "s.mtx").exists()
    else:
        lines = proc.stdout.splitlines()
        assert lines[1] == CSV_COLUMNS and lines[2].startswith("burgers1d-n8-p1-q1,A0,") and lines[2].endswith(",true")


@pytest.mark.skipif(
    shutil.which("kktprecond") is None,
    reason="kktprecond executable not on PATH (pip install -e . --no-build-isolation)",
)
def test_installed_console_script_runs(tmp_path):
    exe = shutil.which("kktprecond")
    out = tmp_path / "s.mtx"
    proc = subprocess.run(
        [exe, "stencil", str(out), "--n", "2", "--block", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert str(out) in proc.stdout
