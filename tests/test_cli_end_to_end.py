"""The command line end to end: generate exports SQP states as manifests,
solve imports them and runs GMRES, and each row carries the GMRES count that
test_conprec pins on the in-memory system. Every run goes through cli.main,
and one module-scoped set of generated manifests serves every test."""

import contextlib
import io
import json
import os

import pytest

from kktprecond.cli import CATALOG, main
from test_conprec import PINNED_CATALOG64_ITERATIONS, PINNED_P0_ITERATIONS

# The configs generate runs, by name: the catalog benchmark's six SQP steps
# at n_elem=64, p=q=2; the 1x1-block path; the benchmark's largest
# succeeding generate case; and its costliest, 100 SQP steps at p=3 whose
# step pattern changes mid-run.
CONFIGS = {
    "catalog64": "n_elem = 64\np = 2\nq = 2\nmax_iters = 6\nstates = 1, 3, 5\n",
    "p0": "n_elem = 32\np = 0\nq = 1\nstates = 1\n",
    "large": "n_elem = 256\np = 2\nq = 2\nstates = 1\n",
    "p3": "n_elem = 100\np = 3\nq = 1\n",
}


def run(argv):
    """main(argv) with its stdout and stderr: (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """The manifest paths generate prints for each config of CONFIGS."""
    root = tmp_path_factory.mktemp("generated")
    paths = {}
    for name, text in CONFIGS.items():
        cfg = root / f"{name}.cfg"
        cfg.write_text(text)
        code, out, err = run(["generate", str(cfg), str(root / name)])
        assert (code, err) == (0, ""), err
        paths[name] = out.splitlines()
    return paths


def solve_row(manifest, precond):
    """The CSV row of one exit-0 solve, split into its fields."""
    code, out, err = run(["solve", manifest, "--precond", precond])
    assert (code, err) == (0, ""), err
    return out.splitlines()[-1].split(",")


def test_generate_prints_one_manifest_per_requested_state(manifests):
    assert [os.path.basename(path) for path in manifests["catalog64"]] == [
        f"state{k}_manifest.json" for k in (1, 3, 5)
    ]


@pytest.mark.parametrize("state", (1, 3, 5))
def test_catalog64_pins_through_export_import_and_solve(manifests, state):
    manifest = dict(zip((1, 3, 5), manifests["catalog64"]))[state]
    rows = {variant: solve_row(manifest, variant) for variant in CATALOG}
    assert all(row[4] == str(state) and row[9] == "true" for row in rows.values())
    assert {v: int(row[8]) for v, row in rows.items()} == {
        v: counts[state - 1] for v, counts in PINNED_CATALOG64_ITERATIONS.items()
    }


def test_p0_pins_through_the_sweep_state_axis(tmp_path):
    # The sweep builds each preconditioner on the system build_kkt made, with
    # the transfers of its discretization record, and imports no manifest.
    variants = ["A0-p0", "BJ-p0", "BILU-p0"]
    spec = tmp_path / "p0_sweep.json"
    spec.write_text(
        json.dumps(
            {
                "axis": "state",
                "values": [1, 3, 5],
                "preconditioners": variants,
                "fixed": {"n_elem": 64, "p": 2, "q": 2, "max_iters": 6},
            }
        )
    )
    code, out, err = run(["sweep", str(spec)])
    assert (code, err) == (0, ""), err
    rows = [row.split(",") for row in out.splitlines()[2:]]
    assert [(row[1], int(row[4]), int(row[8])) for row in rows] == [
        (v, k, PINNED_CATALOG64_ITERATIONS[v][k - 1]) for k in (1, 3, 5) for v in variants
    ]


def test_p0_block_pins_through_solve(manifests):
    # The *-p0 variants restrict to degree 0, the whole space: 1 iteration.
    (manifest,) = manifests["p0"]
    rows = [solve_row(manifest, variant) for variant in CATALOG]
    assert all(row[6:8] == ["1", "32"] and row[9] == "true" for row in rows)
    assert [int(row[8]) for row in rows] == PINNED_P0_ITERATIONS


def test_bilu_ilu_solves_the_exported_256_element_case_in_3_iterations(manifests):
    # Sparse SQP steps at dimension 2047, and BILU-ilu's MDF order over its
    # 256 block rows.
    (manifest,) = manifests["large"]
    assert solve_row(manifest, "A0")[9] == "true"
    row = solve_row(manifest, "BILU-ilu")
    assert row[7:] == ["256", "3", "true"]


def test_p3_export_has_enriched_test_blocks(manifests):
    # The enriched test degree is p + 1 = 4: dRdu has 5-row blocks, and the
    # manifest states 100 x 5 enriched rows.
    (manifest,) = manifests["p3"]
    with open(manifest) as fh:
        dims = json.load(fh)["dimensions"]
    assert dims["n_u_enriched"] == 500
    dRdu = manifest.replace("manifest.json", "dRdu.mtx")
    with open(dRdu) as fh:
        fh.readline()
        block_sizes = fh.readline()
    assert block_sizes.startswith("%%block-sizes rows=" + ",".join(["5"] * 100) + " ")
    assert solve_row(manifest, "A0")[9] == "true"


def test_generate_exits_1_on_the_aligned_case_line_search_failure(tmp_path):
    # Zero Riemann derivatives make the step matrix drop entries, and the
    # line search fails at iteration 12: one error line and exit 1.
    cfg = tmp_path / "aligned.cfg"
    cfg.write_text("n_elem = 100\np = 2\nq = 2\n")
    code, out, err = run(["generate", str(cfg), str(tmp_path / "aligned")])
    assert (code, out, err) == (1, "", "error: iteration 12: no acceptable step above 9.53674e-07\n")
    assert not (tmp_path / "aligned").exists()
