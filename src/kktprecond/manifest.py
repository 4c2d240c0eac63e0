"""Export/import of KKT systems as Matrix Market files plus a JSON manifest.

The manifest persists the factor matrices rather than any assembled Hessian
block, so B_uu is never materialized on disk; Byy is re-assembled on import,
which doubles as a consistency check of the stored factors.

ju.mtx and dRdu.mtx carry a %%block-sizes line; the scalar factors do not. A
scalar factor written with one (dRdx.mtx and drdx.mtx of older manifests)
imports as the scalar view of its blocks.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .blocklinalg import BlockCsrMatrix, block_to_scipy
from .errors import ManifestError
from .kkt import KktFactors, KktSystem, SystemDims, assemble_Byy
from .mmio import read_matrix, read_vector, write_matrix, write_vector

__all__ = ["MANIFEST_VERSION", "export_system", "import_system"]

MANIFEST_VERSION = 1

_MATRIX_FIELDS = (
    ("ju", "Ju"),
    ("dRdu", "dRdu"),
    ("dRdx", "dRdx"),
    ("drdx", "drdx"),
    ("dRmshdx", "dRmshdx"),
    ("dPhidy", "dPhidy"),
    ("elasticity", "D"),
)
# The factors whose block structure the preconditioners use.
_BLOCK_FIELDS = ("ju", "dRdu")


def export_system(sys: KktSystem, outdir, prefix: str = "") -> str:
    """Write the factor matrices, vectors, and manifest; returns the manifest path."""
    if sys.dims is None:
        raise ManifestError("cannot export a system without discretization metadata")
    os.makedirs(outdir, exist_ok=True)
    dims = sys.dims
    matrices = {}
    for key, attr in _MATRIX_FIELDS:
        fname = f"{prefix}{key}.mtx"
        write_matrix(os.path.join(outdir, fname), getattr(sys.factors, attr))
        matrices[key] = fname
    vectors = {}
    for key, vec in (("g", sys.g), ("r", sys.r)):
        fname = f"{prefix}{key}.mtx"
        write_vector(os.path.join(outdir, fname), vec)
        vectors[key] = fname
    manifest = {
        "version": MANIFEST_VERSION,
        "case": sys.case,
        "state_index": sys.state_index,
        "dimensions": {
            "n_u": dims.n_u,
            "n_u_enriched": dims.n_u_enriched,
            "n_y": dims.n_y,
            "n_x": dims.n_x,
            "n_elem": dims.n_elem,
            "p": dims.p,
            "q": dims.q,
        },
        "scalars": {"kappa": sys.factors.kappa, "gamma": sys.factors.gamma},
        "matrices": matrices,
        "vectors": vectors,
    }
    path = os.path.join(outdir, f"{prefix}manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def import_system(path) -> KktSystem:
    """Load a manifest and rebuild the KktSystem, validating all dimensions."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}")
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON ({exc})")
    if manifest.get("version") != MANIFEST_VERSION:
        raise ManifestError(f"{path}: unsupported manifest version {manifest.get('version')!r}")

    base = os.path.dirname(os.path.abspath(path))

    def load(section, key, reader):
        try:
            fname = manifest[section][key]
        except KeyError:
            raise ManifestError(f"{path}: missing {section} entry {key!r}")
        full = os.path.join(base, fname)
        if not os.path.exists(full):
            raise ManifestError(f"{path}: referenced file missing: {fname}")
        return reader(full)

    loaded = {key: load("matrices", key, read_matrix) for key, _ in _MATRIX_FIELDS}
    for key, mat in loaded.items():
        if key in _BLOCK_FIELDS and not isinstance(mat, BlockCsrMatrix):
            raise ManifestError(f"{path}: matrix {key} has no %%block-sizes line")
        if key not in _BLOCK_FIELDS and isinstance(mat, BlockCsrMatrix):
            loaded[key] = block_to_scipy(mat)
    g = load("vectors", "g", read_vector)
    r = load("vectors", "r", read_vector)

    try:
        d = manifest["dimensions"]
        dims = SystemDims(int(d["n_elem"]), int(d["p"]), int(d["q"]))
        scalars = manifest["scalars"]
        kappa, gamma = float(scalars["kappa"]), float(scalars["gamma"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"{path}: malformed dimensions or scalars ({exc})")

    expected = {
        "n_u": dims.n_u,
        "n_u_enriched": dims.n_u_enriched,
        "n_y": dims.n_y,
        "n_x": dims.n_x,
    }
    for key, want in expected.items():
        if int(d.get(key, want)) != want:
            raise ManifestError(f"{path}: dimension {key}={d[key]} inconsistent with n_elem/p/q")

    shapes = {
        "ju": (dims.n_u, dims.n_u),
        "dRdu": (dims.n_u_enriched, dims.n_u),
        "dRdx": (dims.n_u_enriched, dims.n_x),
        "drdx": (dims.n_u, dims.n_x),
        "dRmshdx": (dims.n_elem, dims.n_x),
        "dPhidy": (dims.n_x, dims.n_y),
        "elasticity": (dims.n_x, dims.n_x),
    }
    for key, want in shapes.items():
        got = loaded[key].shape
        if tuple(got) != want:
            raise ManifestError(f"{path}: matrix {key} has shape {got}, expected {want}")
    if g.shape != (dims.n_u + dims.n_y,) or r.shape != (dims.n_u,):
        raise ManifestError(f"{path}: vector lengths inconsistent with dimensions")

    factors = KktFactors(
        Ju=loaded["ju"],
        dRdu=loaded["dRdu"],
        dRdx=loaded["dRdx"],
        drdx=loaded["drdx"],
        dRmshdx=loaded["dRmshdx"],
        dPhidy=loaded["dPhidy"],
        D=loaded["elasticity"],
        kappa=kappa,
        gamma=gamma,
    )
    return KktSystem(
        factors,
        g,
        r,
        assemble_Byy(factors),
        dims=dims,
        state_index=int(manifest.get("state_index", 0)),
        case=str(manifest.get("case", "case")),
    )
