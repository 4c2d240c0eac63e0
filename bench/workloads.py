"""The three workloads: their inputs, made from a seed, and the ops of one pass.

An op is the argument list of one ``kktprecond.cli.main`` call. The seed picks
the SQP states the solve workloads use and the order of the ops; the program
sees only the config files and manifests written here.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass

CATALOG = ("A0", "BJ", "BILU", "BJ-ilu", "BILU-ilu", "A0-p0", "BJ-p0", "BILU-p0")

# (n_elem, p, q, max_iters or None for the SqpConfig default)
GENERATE_CASES = (
    (64, 1, 1, None),
    (256, 1, 1, None),
    (64, 2, 2, None),
    (256, 2, 2, None),
    (1024, 1, 1, None),  # dense SQP step over its size cap
    (1024, 2, 2, None),  # dense SQP step over its size cap
    (100, 2, 2, None),  # line search fails at iteration 12
    (100, 3, 1, None),  # runs out of iterations without meeting step_tol
)

# Self-test sizes: n_elem=8 everywhere; max_iters=1 exercises the silent
# max_iters failure without spending time on it.
TINY_GENERATE_CASES = ((8, 1, 1, None), (8, 2, 2, None), (8, 1, 1, 1))


@dataclass(frozen=True)
class SolveSpec:
    n_elem: int
    p: int
    q: int
    sqp_iters: int  # SQP depth of the set-up run: states 1..sqp_iters exist
    n_states: int  # how many of them the seed picks
    preconds: tuple


SOLVE_SPECS = {
    "catalog": SolveSpec(64, 2, 2, 6, 3, CATALOG),
    "krylov": SolveSpec(256, 2, 2, 3, 1, ("A0", "BILU", "BJ-ilu", "BILU-ilu")),
}
TINY_SOLVE_SPECS = {
    "catalog": SolveSpec(8, 2, 2, 3, 2, CATALOG),
    "krylov": SolveSpec(8, 2, 2, 3, 1, ("A0", "BILU", "BJ-ilu", "BILU-ilu")),
}
WORKLOADS = ("generate", "catalog", "krylov")

# The calibration kernel (bench/calibration.py) that resembles each
# workload's ops: SQP runs for generate, block preconditioner sweeps and
# GMRES for the solve workloads.
CALIBRATION_KERNEL = {"generate": "sqp", "catalog": "blocks", "krylov": "blocks"}


@dataclass(frozen=True)
class Op:
    kind: str  # "generate" or "solve"
    label: str  # case (generate) or "state<k>/<precond>" (solve)
    argv: tuple


class SetupError(RuntimeError):
    pass


def _config_text(n_elem, p, q, max_iters=None, states=None) -> str:
    lines = [f"n_elem = {n_elem}", f"p = {p}", f"q = {q}"]
    if max_iters is not None:
        lines.append(f"max_iters = {max_iters}")
    if states is not None:
        lines.append("states = " + ", ".join(str(k) for k in states))
    return "\n".join(lines) + "\n"


def _write(path, text) -> None:
    with open(path, "w") as fh:
        fh.write(text)


class Workload:
    """Seeded choices of one workload; ``setup`` writes the inputs into a directory."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
        self.name = name
        self.kernel = CALIBRATION_KERNEL[name]
        rng = random.Random(f"{name}:{seed}")
        if name == "generate":
            cases = list(TINY_GENERATE_CASES if tiny else GENERATE_CASES)
            rng.shuffle(cases)
            self.cases = cases
        else:
            spec = (TINY_SOLVE_SPECS if tiny else SOLVE_SPECS)[name]
            self.spec = spec
            self.states = sorted(rng.sample(range(1, spec.sqp_iters + 1), spec.n_states))
            pairs = [(k, pc) for k in self.states for pc in spec.preconds]
            rng.shuffle(pairs)
            self.pairs = pairs

    def describe(self) -> dict:
        if self.name == "generate":
            return {"cases": [list(c) for c in self.cases]}
        s = self.spec
        return {"n_elem": s.n_elem, "p": s.p, "q": s.q, "states": self.states, "preconds": list(s.preconds)}

    def setup(self, main, workdir) -> list[Op]:
        """Write the inputs under workdir and return the ops of one pass.

        For the solve workloads this runs ``generate`` through ``main`` to make
        the systems, so set-up pays for the SQP run and the export.
        """
        os.makedirs(workdir, exist_ok=True)
        if self.name == "generate":
            ops = []
            for n_elem, p, q, max_iters in self.cases:
                tag = f"n{n_elem}-p{p}-q{q}" + ("" if max_iters is None else f"-it{max_iters}")
                cfg = os.path.join(workdir, f"{tag}.cfg")
                _write(cfg, _config_text(n_elem, p, q, max_iters))
                ops.append(Op("generate", tag, ("generate", cfg, os.path.join(workdir, tag))))
            return ops
        s = self.spec
        cfg = os.path.join(workdir, "system.cfg")
        _write(cfg, _config_text(s.n_elem, s.p, s.q, s.sqp_iters, self.states))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["generate", cfg, os.path.join(workdir, "systems")])
        manifests = out.getvalue().split()
        if rc != 0 or len(manifests) != len(self.states):
            raise SetupError(f"set-up generate exited {rc} and printed {len(manifests)} manifests")
        by_state = dict(zip(self.states, manifests))
        return [
            Op("solve", f"state{k}/{pc}", ("solve", by_state[k], "--precond", pc))
            for k, pc in self.pairs
        ]
