"""Export/import of KKT systems as Matrix Market files plus a JSON manifest.

The manifest persists the factor matrices rather than any assembled Hessian
block, so B_uu is never materialized on disk; Byy and Jy are re-assembled
from the imported factors when the KktSystem is built, as for a system
build_kkt makes.

ju.mtx and dRdu.mtx carry a %%block-sizes line and import as BSR matrices;
the scalar factors do not. A scalar factor written with one (dRdx.mtx and
drdx.mtx of older manifests) imports as the CSR view of its blocks. Every
manifest number is read by json_value, the JSON type rule that the sweep
spec shares.

Before any file is read, the manifest's n_elem, p and q make its SystemDims,
whose range rule (n_elem >= 1, p >= 0, q >= 1) is checked with
kkt.check_weights on kappa and gamma, kkt.check_case on the case and the
stated sizes against those dimensions. Every matrix file is then read with
the shape SystemDims.shapes gives it, checked on its size line before
anything is allocated, and ju.mtx and dRdu.mtx must carry a block-sizes
line. The rest is the record's: KktSystem checks the element block shapes
and the vector lengths, and its DimensionMismatch becomes a ManifestError
that names the file the manifest lists for the field at fault.
"""

from __future__ import annotations

import json
import os

import scipy.sparse

from .errors import DimensionMismatch, ManifestError, shown
from .kkt import KktSystem, SystemDims, check_case, check_weights
from .mmio import read_matrix, read_vector, write_matrix, write_vector

__all__ = ["MANIFEST_VERSION", "export_system", "import_system", "json_value"]

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


# The sizes a manifest states besides n_elem, p and q, each a SystemDims property.
_STATED_SIZES = ("n_u", "n_u_enriched", "n_y", "n_x")
_JSON_KINDS = {int: (int, "integer"), float: ((int, float), "number"), str: (str, "string")}


def json_value(value, kind, what: str):
    """The JSON type rule: kind(value) if json.load made value a JSON integer
    (kind int: 8, not 8.0, 8.7 or "8"), a JSON number that a float holds
    (kind float) or a JSON string (kind str), never a bool; else TypeError
    naming what and showing the value as errors.shown bounds it, as every
    manifest message that repeats a number does."""
    types, name = _JSON_KINDS[kind]
    try:
        if isinstance(value, types) and not isinstance(value, bool):
            return kind(value)
    except OverflowError:
        pass
    raise TypeError(f"invalid {what} {shown(value)}: must be a JSON {name}")


def export_system(sys: KktSystem, outdir, prefix: str = "") -> str:
    """Write the factor matrices, vectors, and manifest; returns the manifest path."""
    os.makedirs(outdir, exist_ok=True)
    dims = sys.dims
    matrices = {}
    for key, attr in _MATRIX_FIELDS:
        fname = f"{prefix}{key}.mtx"
        write_matrix(os.path.join(outdir, fname), getattr(sys, attr))
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
        "dimensions": {key: getattr(dims, key) for key in (*_STATED_SIZES, "n_elem", "p", "q")},
        "scalars": {"kappa": sys.kappa, "gamma": sys.gamma},
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
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past int's digit limit
        raise ManifestError(f"{path}: invalid JSON ({exc})")
    base = os.path.dirname(os.path.abspath(path))
    listed = {}  # the file the manifest lists for each KktSystem field

    def load(section, key, field, reader):
        try:
            fname = manifest[section][key]
            full = os.path.join(base, fname)
        except (KeyError, TypeError):
            raise ManifestError(f"{path}: missing or malformed {section} entry {key!r}")
        if not os.path.exists(full):
            raise ManifestError(f"{path}: referenced file missing: {fname}")
        listed[field] = fname
        return reader(full)

    try:
        version = json_value(manifest["version"], int, "version")
        if version != MANIFEST_VERSION:
            raise ManifestError(f"{path}: unsupported manifest version {shown(version)}")
        d = manifest["dimensions"]
        n_elem, p, q = (json_value(d[key], int, key) for key in ("n_elem", "p", "q"))
        kappa, gamma = (json_value(manifest["scalars"][key], float, key) for key in ("kappa", "gamma"))
        state_index = json_value(manifest.get("state_index", 0), int, "state_index")
        case = json_value(manifest.get("case", "case"), str, "case")
        stated = {key: json_value(d[key], int, key) for key in _STATED_SIZES if key in d}
    except (KeyError, TypeError, AttributeError) as exc:
        raise ManifestError(f"{path}: missing or malformed value ({exc})")
    try:
        dims = SystemDims(n_elem, p, q)
        check_weights(kappa, gamma)
        check_case(case)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}")
    if state_index < 0:
        raise ManifestError(f"{path}: state_index {shown(state_index)} must be nonnegative")
    for key, value in stated.items():
        if value != getattr(dims, key):
            raise ManifestError(f"{path}: dimension {key}={shown(value)} inconsistent with n_elem/p/q")

    shapes = dims.shapes
    loaded = {
        key: load("matrices", key, attr, lambda full: read_matrix(full, shapes[attr])) for key, attr in _MATRIX_FIELDS
    }
    for key in ("ju", "dRdu"):
        if not isinstance(loaded[key], scipy.sparse.bsr_matrix):
            raise ManifestError(f"{path}: matrix {key} has no %%block-sizes line")
    try:
        return KktSystem(
            **{attr: loaded[key] for key, attr in _MATRIX_FIELDS},
            kappa=kappa,
            gamma=gamma,
            g=load("vectors", "g", "g", read_vector),
            r=load("vectors", "r", "r", read_vector),
            dims=dims,
            state_index=state_index,
            case=case,
        )
    except DimensionMismatch as exc:
        raise ManifestError(f"{path}: {listed[exc.field]} {exc.detail}" if exc.field in listed else f"{path}: {exc}")
