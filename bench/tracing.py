"""Probes and spans installed from outside the package.

Nothing under ``src/`` knows about the benchmark. Every hook here replaces a
module attribute through which the CLI or the library reaches a function, and
puts the original back when the run is done.

``Probes`` are always on. They cost one extra Python call per SQP iteration or
per CLI command and record what the CLI does not print: the exception class
behind a nonzero exit, how many states ``run_sqp`` returned, and how many SQP
steps were taken. While ``sample_kernel`` names a calibration kernel they also
time it once after every SQP step, so that a long op's host speed is sampled
along it, and keep what those samples cost out of the op's time.

``Tracer`` is on only in the traced pass. Each wrapped call becomes a span
``[name, start, end, parent, op]``, its times in process CPU seconds, kept in
memory; ``layer_metrics`` turns the spans into the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

import calibration


class Patcher:
    """Replace module attributes and restore them in reverse order."""

    def __init__(self):
        self._saved = []
        self.missing = []

    def wrap(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Probes:
    """Per-op facts the CLI output does not carry; reset before each op."""

    def __init__(self):
        self._patcher = Patcher()
        self.sample_kernel = None
        self.reset()

    def reset(self) -> None:
        self.error = None
        self.sqp_steps = 0
        self.sqp_runs = []  # (states returned, max_iters allowed)
        self.host_samples = []  # calibration kernel CPU seconds, one per SQP step
        self.sample_cpu_s = 0.0  # what taking them cost
        self.sample_wall_s = 0.0

    @property
    def missing(self):
        return self._patcher.missing

    def install(self) -> None:
        for cmd in ("cmd_generate", "cmd_solve"):
            self._patcher.wrap("kktprecond.cli", cmd, self._catch)
        self._patcher.wrap("kktprecond.cli", "run_sqp", self._count_states)
        self._patcher.wrap("kktprecond.shocktrack", "sqp_step", self._count_step)

    def restore(self) -> None:
        self._patcher.restore()

    def _catch(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.error = type(exc).__name__
                raise

        return wrapper

    def _count_states(self, fn):
        def wrapper(*args, **kwargs):
            states = fn(*args, **kwargs)
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
            if isinstance(states, list) and cfg is not None:
                self.sqp_runs.append((len(states), cfg.max_iters))
            return states

        return wrapper

    def _count_step(self, fn):
        def wrapper(*args, **kwargs):
            self.sqp_steps += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if self.sample_kernel:
                    self._sample()

        return wrapper

    def _sample(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.host_samples += calibration.measure(self.sample_kernel, 1)
        self.sample_cpu_s += time.process_time() - cpu
        self.sample_wall_s += time.perf_counter() - wall

    def hit_max_iters(self) -> bool:
        """True when some run_sqp call used every iteration without meeting step_tol."""
        return any(n_states == max_iters + 1 for n_states, max_iters in self.sqp_runs)


# (module, attribute, span name). Several attributes may feed one span name
# because the CLI and the library import the same function separately.
SPAN_HOOKS = (
    ("kktprecond.cli", "cmd_generate", "cli.generate"),
    ("kktprecond.cli", "cmd_solve", "cli.solve"),
    ("kktprecond.cli", "run_sqp", "shocktrack.run_sqp"),
    ("kktprecond.shocktrack", "sqp_step", "shocktrack.sqp_step"),
    ("kktprecond.cli", "build_kkt", "shocktrack.build_kkt"),
    ("kktprecond.shocktrack", "build_kkt", "shocktrack.build_kkt"),
    ("kktprecond.kkt", "kkt_matvec", "kkt.matvec"),
    ("kktprecond.cli", "materialize_dense", "kkt.materialize_dense"),
    ("kktprecond.shocktrack", "materialize_dense", "kkt.materialize_dense"),
    ("kktprecond.cli", "export_system", "manifest.export"),
    ("kktprecond.cli", "import_system", "manifest.import"),
    ("kktprecond.cli", "build_at_preconditioner", "conprec.build"),
    ("kktprecond.conprec", "assemble_coarse", "pmultigrid.assemble_coarse"),
    ("kktprecond.conprec", "pmg_apply", "pmultigrid.pmg_apply"),
    ("kktprecond.conprec", "mdf_order", "dgprecond.mdf_order"),
    ("kktprecond.conprec", "bilu0_factor", "dgprecond.bilu0_factor"),
    ("kktprecond.conprec", "point_ilu0_factor", "conprec.point_ilu0_factor"),
    ("kktprecond.conprec", "apply_at_inverse", "conprec.apply"),
)


class Tracer:
    """In-memory span recorder; wrappers pass straight through while inactive."""

    def __init__(self):
        self._patcher = Patcher()
        self.spans = []
        self.counts = Counter()
        self.solve_checks = []  # (rel_error, tol, converged, true_residual)
        self._stack = []
        self.op = None
        self.active = False

    @property
    def missing(self):
        return self._patcher.missing

    @contextlib.contextmanager
    def installed(self):
        for module, attr, name in SPAN_HOOKS:
            self._patcher.wrap(module, attr, functools.partial(self._span, name))
        self._patcher.wrap("kktprecond.cli", "gmres_solve", self._gmres)
        self._patcher.wrap("kktprecond.shocktrack", "dg_residual", self._count("shocktrack.residual_evals"))
        for attr in ("write_matrix", "write_vector"):
            self._patcher.wrap("kktprecond.manifest", attr, self._bytes("mmio.bytes_written", after=True))
        for attr in ("read_matrix", "read_vector"):
            self._patcher.wrap("kktprecond.manifest", attr, self._bytes("mmio.bytes_read", after=False))
        try:
            yield self
        finally:
            self._patcher.restore()

    @contextlib.contextmanager
    def recording(self, op):
        self.op, self.active = op, True
        try:
            yield
        finally:
            self.active = False

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, time.process_time(), None, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.process_time()
                self._stack.pop()

        return wrapper

    def _gmres(self, fn):
        traced = self._span("krylov.gmres", fn)

        def wrapper(*args, **kwargs):
            report = traced(*args, **kwargs)
            if self.active:
                # The check's own matvec stays out of the spans.
                self.active = False
                try:
                    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
                    self.solve_checks.append(_check_solution(args[0], args[1], cfg, report))
                finally:
                    self.active = True
            return report

        return wrapper

    def _count(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.active:
                    self.counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _bytes(self, name, after: bool):
        def make(fn):
            def wrapper(path, *args, **kwargs):
                if not self.active:
                    return fn(path, *args, **kwargs)
                if not after:
                    self.counts[name] += os.path.getsize(path)
                result = fn(path, *args, **kwargs)
                if after:
                    self.counts[name] += os.path.getsize(path)
                return result

            return wrapper

        return make

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _check_solution(A, b, cfg, report):
    """Relative error against the reference and true residual ||A s - b|| / ||b||."""
    s = report.solution
    b = np.asarray(b, dtype=float)
    true_res = float(np.linalg.norm(A.apply(s) - b) / np.linalg.norm(b))
    rel_err = None
    if cfg is not None and cfg.reference is not None:
        ref = np.asarray(cfg.reference)
        rel_err = float(np.linalg.norm(ref - s) / np.linalg.norm(ref))
    tol = cfg.tol if cfg is not None else None
    return rel_err, tol, bool(report.converged), true_res


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals over every recorded span (durations, self times, counts)."""
    spans = tracer.spans
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children[i])

    total, own, calls = Counter(), Counter(), Counter()
    for i, rec in enumerate(spans):
        total[rec[0]] += dur(i)
        own[rec[0]] += self_time(i)
        calls[rec[0]] += 1

    def kids(i, name):
        return [c for c in children[i] if spans[c][0] == name]

    indices = defaultdict(list)
    for i, rec in enumerate(spans):
        indices[rec[0]].append(i)

    # The reference solve is what cmd_solve does besides import, build and GMRES:
    # dense materialization plus the dense LU solve.
    reference = sum(
        dur(i) - sum(dur(c) for c in children[i] if spans[c][0] != "kkt.materialize_dense")
        for i in indices["cli.solve"]
    )
    coarse_matvecs = sum(len(kids(i, "kkt.matvec")) for i in indices["pmultigrid.assemble_coarse"])
    # A p-multigrid apply wraps pmg_apply, which calls the bare apply once.
    bare_applies = sum(1 for i in indices["conprec.apply"] if not kids(i, "pmultigrid.pmg_apply"))
    errors = [c[3] for c in tracer.solve_checks]

    return {
        "shocktrack.run_sqp_s": total["shocktrack.run_sqp"],
        "shocktrack.sqp_step_s": total["shocktrack.sqp_step"],
        "shocktrack.sqp_step_calls": calls["shocktrack.sqp_step"],
        "shocktrack.residual_evals": tracer.counts["shocktrack.residual_evals"],
        "shocktrack.build_kkt_s": total["shocktrack.build_kkt"],
        "shocktrack.build_kkt_calls": calls["shocktrack.build_kkt"],
        "kkt.matvec_s": total["kkt.matvec"],
        "kkt.matvec_calls": calls["kkt.matvec"],
        "kkt.materialize_dense_s": total["kkt.materialize_dense"],
        "cli.reference_s": reference,
        "pmultigrid.assemble_coarse_s": total["pmultigrid.assemble_coarse"],
        "pmultigrid.coarse_matvecs": coarse_matvecs,
        "pmultigrid.pmg_apply_s": own["pmultigrid.pmg_apply"],
        "conprec.build_s": own["conprec.build"],
        "dgprecond.mdf_order_s": total["dgprecond.mdf_order"],
        "dgprecond.bilu0_factor_s": total["dgprecond.bilu0_factor"],
        "conprec.point_ilu0_factor_s": total["conprec.point_ilu0_factor"],
        "conprec.apply_s": own["conprec.apply"],
        "conprec.apply_calls": bare_applies,
        "krylov.gmres_s": total["krylov.gmres"],
        "krylov.gmres_self_s": own["krylov.gmres"],
        "krylov.orth_share": own["krylov.gmres"] / total["krylov.gmres"] if total["krylov.gmres"] else 0.0,
        "krylov.true_residual_max": max(errors, default=0.0),
        "manifest.export_s": total["manifest.export"],
        "mmio.bytes_written": tracer.counts["mmio.bytes_written"],
        "manifest.import_s": total["manifest.import"],
        "mmio.bytes_read": tracer.counts["mmio.bytes_read"],
    }
