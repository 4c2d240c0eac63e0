"""System export/import manifests and the command-line harness."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse

import kktprecond
from conftest import singular_system, zero_coupling_system
from kktprecond.blocklinalg import BlockCsrMatrix
from kktprecond.cli import CATALOG, CSV_COLUMNS, main
from kktprecond.errors import ManifestError
from kktprecond.kkt import KktOperator, materialize_dense
from kktprecond.manifest import export_system, import_system
from kktprecond.mmio import read_matrix
from kktprecond.stencil import generate_stencil_system

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
    np.testing.assert_array_equal(
        materialize_dense(KktOperator(loaded)), materialize_dense(KktOperator(sys8_k1))
    )
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


@pytest.mark.parametrize("fname", ["ju.mtx", "dRdu.mtx"])
def test_cli_solve_block_factor_without_block_sizes_exits_2(sys8_k1, tmp_path, capsys, fname):
    path = export_system(sys8_k1, tmp_path)
    lines = (tmp_path / fname).read_text().splitlines()
    assert lines[1].startswith("%%block-sizes")
    (tmp_path / fname).write_text("\n".join(lines[:1] + lines[2:]) + "\n")
    for precond in ("A0", "BJ", "BILU"):
        assert main(["solve", path, "--precond", precond]) == 2
        assert "has no %%block-sizes line" in capsys.readouterr().err


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
            assert isinstance(read_matrix(tmp_path / "dRdx.mtx"), BlockCsrMatrix)
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


def test_cli_solve_missing_manifest(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "gone.json"), "--precond", "A0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_generate_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "order = 3\n")
    assert main(["generate", cfg, str(tmp_path / "out")]) == 2
    assert "unknown config key" in capsys.readouterr().err


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
    for got, want in zip(A.blocks, B.blocks):
        np.testing.assert_array_equal(got, want)


def test_stencil_edge_grids(tmp_path):
    single = generate_stencil_system(1, 3, 0)
    assert single.pattern.n_block_rows == 1
    assert single.blocks[0].shape == (3, 3)

    A = generate_stencil_system(3, 1, 0)
    counts = np.diff(A.pattern.row_ptr)
    np.testing.assert_array_equal(counts, [3, 4, 3, 4, 5, 4, 3, 4, 3])

    with pytest.raises(ValueError):
        generate_stencil_system(0, 1, 0)
    with pytest.raises(ValueError):
        generate_stencil_system(2, 0, 0)


# Console script -------------------------------------------------------------


def _declared_console_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


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
