"""System export/import manifests and the command-line harness."""

import ast
import contextlib
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
from kktprecond.cli import CATALOG, CSV_COLUMNS, main
from kktprecond.conprec import build_at_preconditioner
from kktprecond.errors import LineSearchFailure, ManifestError, SingularBlock
from kktprecond.manifest import export_system, import_system
from kktprecond.mmio import read_matrix
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
    assert loaded.factors.kappa == sys8_k1.factors.kappa
    assert loaded.factors.gamma == sys8_k1.factors.gamma


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
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: ") and fname in err and "not a finite number" in err


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
    ],
    ids=["file-number", "file-list", "section-string", "state-null", "dimension-null", "gamma-negative", "kappa-nan"],
)
def test_cli_solve_malformed_manifest_values_exit_2(sys8_k1, tmp_path, capsys, edit):
    path = export_system(sys8_k1, tmp_path)
    with open(path) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    assert main(["solve", path, "--precond", "A0"]) == 2
    assert "error:" in capsys.readouterr().err


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
            for fname, rows_per_elem in (("dRdx.mtx", dims.p + 2), ("drdx.mtx", dims.p + 1)):
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
        got, want = getattr(loaded.factors, name), getattr(sys8_k1.factors, name)
        assert isinstance(got, scipy.sparse.csr_matrix)
        assert (got != want).nnz == 0 and got.nnz == want.nnz


@pytest.mark.parametrize("precond", ["A0", "A0-p0", "BJ", "BILU"])
def test_cli_solve_singular_system_exits_1(sys8_k1, tmp_path, capsys, precond):
    # A0 and A0-p0 fail on the exact Byy factor, BJ and BILU on the reference.
    path = export_system(singular_system(sys8_k1), tmp_path)
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
        "bc_right = -inf\n",
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
        "bc-right-minus-inf",
    ],
)
def test_cli_generate_rejects_bad_weights_and_states_before_the_sqp_run(tmp_path, capsys, sqp_calls, text):
    cfg = write_config(tmp_path, "n_elem = 8\n" + text)
    assert main(["generate", cfg, str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
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
    """With boundary values 0.5 / -0.5 and no source term, no step matrix has
    an exactly zero pivot, so SuperLU alone runs every step silently; the
    first has condition number about 6e16, and the relative pivot test stops
    the run there."""
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
    ],
)
def test_cli_sweep_bad_values_exit_2(tmp_path, capsys, sqp_calls, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
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
    ],
)
def test_cli_sweep_checks_every_value_before_the_first_sqp_run(tmp_path, capsys, sqp_calls, axis, values, fixed):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"axis": axis, "values": values, "preconditioners": ["A0"], "fixed": fixed}))
    assert main(["sweep", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
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
    capsys.readouterr()
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


def test_console_script_runs(tmp_path):
    scripts = _declared_console_scripts()
    assert scripts.get("kktprecond") == "kktprecond.cli:main"

    # Run the declared entry point in a fresh interpreter, as the generated
    # console-script wrapper does, with the imported package first on the path.
    pkg_parent = os.path.dirname(os.path.dirname(kktprecond.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_parent, env.get("PYTHONPATH")]))
    out = tmp_path / "s.mtx"
    code = "import sys; from kktprecond.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "stencil", str(out), "--n", "2", "--block", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert str(out) in proc.stdout


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
