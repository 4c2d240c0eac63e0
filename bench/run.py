"""Benchmark of the kktprecond CLI: one workload, one seed, one JSON result.

Run from the repository root:

    python3 bench/run.py --workload catalog --seed 1 --seconds 45 --trace 0

Every op is one in-process call of ``kktprecond.cli.main``, run closed-loop,
one at a time, with one BLAS thread; times are process CPU seconds.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` one untraced and
one traced pass and the per-layer metrics. Earlier stdout lines
carry a header, one record per op and a summary; the last line is the result
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

# One BLAS thread, set before numpy loads: with a second thread the process
# CPU time of an op would include that thread's spin-waits. See README.md.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibration  # noqa: E402  (after the BLAS setting: it loads numpy)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TAIL_PERCENTILE = 90


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("generate", "catalog", "krylov"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n_elem=8 inputs, for the self-test")
    return parser.parse_args(argv)


def import_package():
    """Import kktprecond from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kktprecond" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'kktprecond'}")
    sys.path.insert(0, str(src))
    import kktprecond.cli

    if Path(kktprecond.__file__).resolve().parent != (src / "kktprecond").resolve():
        raise SystemExit(f"error: kktprecond imported from {kktprecond.__file__}, not {src}")
    return kktprecond.cli


def _blas_threads():
    """Thread count of the first loaded OpenBLAS that reports one."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as fh:
            paths = dict.fromkeys(line.split()[-1] for line in fh if "openblas" in line)
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    return int(getattr(lib, symbol)())
    return None


def host_header(args, workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kktprecond").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs": workload.describe(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


def _git_sha():
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs ops through the CLI and turns each into a record."""

    def __init__(self, cli, probes, kernel):
        self.cli = cli
        self.probes = probes
        self.kernel = kernel  # calibration kernel that scales the ops
        self.problems = []  # correctness failures, as messages

    def call(self, argv):
        """One cli.main call; returns (exit code or None, stdout, wall seconds, CPU seconds)."""
        out, err = io.StringIO(), io.StringIO()
        self.probes.reset()
        start, cpu_start = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))
            except Exception as exc:  # a crash is a failed op, not a crashed benchmark
                rc = None
                self.probes.error = self.probes.error or type(exc).__name__
        wall = time.perf_counter() - start - self.probes.sample_wall_s
        return rc, out.getvalue(), wall, time.process_time() - cpu_start - self.probes.sample_cpu_s

    def run_op(self, op, pass_no: int, index: int) -> dict:
        rc, stdout, wall, cpu = self.call(op.argv)
        rec = {"pass": pass_no, "op": index, "kind": op.kind, "label": op.label,
               "wall_s": wall, "cpu_s": cpu, "rc": rc}
        if op.kind == "generate":
            silent = rc == 0 and self.probes.hit_max_iters()
            rec.update(
                case=op.label,
                precond=None,
                iters=self.probes.sqp_steps,
                converged=rc == 0 and not silent,
                error=self.probes.error or ("silent_max_iters" if silent else None),
                manifests=stdout.split() if rc == 0 else [],
            )
        else:
            precond = op.argv[3]
            iters, converged, case = self.parse_solve(op.label, precond, rc, stdout)
            rec.update(case=case, precond=precond, iters=iters, converged=converged,
                       error=self.probes.error or (None if converged else "not_converged"))
        rec["failed"] = not rec["converged"]
        return rec

    def parse_solve(self, label, precond, rc, stdout):
        """(iters, converged, case) from the CSV a solve prints; checks its shape."""
        lines = stdout.splitlines()
        if rc != 0:
            self.problems.append(f"{label}: solve exited {rc}")
            return None, False, None
        if len(lines) != 3 or not lines[0].startswith("# tol=") or lines[1] != self.cli.CSV_COLUMNS:
            self.problems.append(f"{label}: solve output lacks the CSV header: {lines[:2]}")
            return None, False, None
        row = dict(zip(self.cli.CSV_COLUMNS.split(","), lines[2].split(",")))
        if row.get("converged") not in ("true", "false") or row.get("precond") != precond:
            self.problems.append(f"{label}: malformed CSV row {lines[2]!r}")
            return None, False, None
        return int(row["iters"]), row["converged"] == "true", f"{row['case']}/state{row['k']}"

    def run_pass(self, ops, pass_no: int):
        """All ops once, the host's speed measured around each; returns (records, wall seconds)."""
        start = time.perf_counter()
        records = []
        before = calibration.measure(self.kernel)
        for i, op in enumerate(ops):
            self.probes.sample_kernel = self.kernel
            try:
                rec = self.run_op(op, pass_no, i)
            finally:
                self.probes.sample_kernel = None
            after = calibration.measure(self.kernel)
            samples = before + self.probes.host_samples + after
            rec["host_s"] = statistics.median(samples)
            rec["ref_s"] = calibration.to_reference(rec["cpu_s"], samples, self.kernel)
            records.append(rec)
            before = after
        return records, time.perf_counter() - start

    def check_manifests(self, records) -> int:
        """Import every manifest generate printed, then solve it with A0; returns GMRES iterations."""
        from kktprecond.manifest import import_system

        iters = 0
        for path in dict.fromkeys(m for rec in records for m in rec.get("manifests", [])):
            try:
                import_system(path)
            except Exception as exc:
                self.problems.append(f"{path}: does not import back ({type(exc).__name__}: {exc})")
                continue
            rc, stdout, _, _ = self.call(("solve", path, "--precond", "A0"))
            solve_iters, converged, _ = self.parse_solve(f"check {path}", "A0", rc, stdout)
            if not converged:
                self.problems.append(f"{path}: A0 check solve did not converge")
            iters += solve_iters or 0
        return iters


def iteration_key(records):
    return [(r["label"], r["iters"], r["converged"]) for r in records]


def percentile(values, q):
    """Linear-interpolation percentile of a nonempty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def per_op_medians(passes, key):
    """Each op's median `key` over the passes, so that percentiles over ops do
    not depend on how many passes fit in the run."""
    return [statistics.median(p[i][key] for p in passes) for i in range(len(passes[0]))]


def load_declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def emit(line: dict) -> None:
    print(json.dumps(line), flush=True)


def run_untraced(runner, ops, seconds):
    """Whole passes: always one, another only if it should end within `seconds`."""
    passes, timed_s = [], 0.0
    while not passes or timed_s + timed_s / len(passes) <= seconds:
        records, elapsed = runner.run_pass(ops, len(passes))
        passes.append(records)
        timed_s += elapsed
    if any(iteration_key(p) != iteration_key(passes[0]) for p in passes[1:]):
        runner.problems.append("iteration counts differ between passes")
    return passes, timed_s


def run_traced(runner, tracer, ops, untraced):
    """One traced pass, checked against the untraced one; returns its records."""
    records = []
    with tracer.installed():
        for i, op in enumerate(ops):
            with tracer.recording(i):
                records.append(runner.run_op(op, 1, i))
    if iteration_key(records) != iteration_key(untraced):
        runner.problems.append("iteration counts differ between the traced and untraced passes")
    for rel_err, tol, converged, _ in tracer.solve_checks:
        if converged and rel_err is not None and not rel_err < tol:
            runner.problems.append(f"converged solve has relative error {rel_err:.3e} >= tol {tol:g}")
    return records


def main(argv=None) -> int:
    args = parse_args(argv)
    end_to_end, per_layer = load_declared()
    cli = import_package()
    import_s, import_cpu_s = time.perf_counter() - _T0, time.process_time()

    import tracing
    from workloads import Workload

    workload = Workload(args.workload, args.seed, tiny=args.tiny)
    probes = tracing.Probes()
    probes.install()
    runner = Runner(cli, probes, workload.kernel)
    tracer = tracing.Tracer() if args.trace else None
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=BENCH_DIR / ".work")
    try:
        emit({"header": host_header(args, workload)})

        # A traced run sets up once, with spans; an untraced run sets up
        # SETUP_REPEATS times and reports the median.
        setup_times, setup_cpu, setup_ref = [], [], []
        # Import and set-up are SQP-like work whatever the workload.
        host = calibration.measure("sqp")
        import_ref_s = calibration.to_reference(import_cpu_s, host, "sqp")
        for i in range(1 if tracer else SETUP_REPEATS):
            probes.reset()
            probes.sample_kernel = None if tracer else "sqp"
            start, cpu_start = time.perf_counter(), time.process_time()
            with contextlib.ExitStack() as stack:
                if tracer:
                    stack.enter_context(tracer.installed())
                    stack.enter_context(tracer.recording("setup"))
                ops = workload.setup(cli.main, os.path.join(workdir, f"setup{i}"))
            setup_times.append(time.perf_counter() - start - probes.sample_wall_s)
            setup_cpu.append(time.process_time() - cpu_start - probes.sample_cpu_s)
            probes.sample_kernel = None
            after = calibration.measure("sqp")
            setup_ref.append(calibration.to_reference(setup_cpu[-1], host + probes.host_samples + after, "sqp"))
            host = after
            setup_sqp_steps = probes.sqp_steps

        if tracer:
            passes, untraced_s = run_untraced(runner, ops, 0)
            first = passes[0]
            check_iters = runner.check_manifests(first)
            traced = run_traced(runner, tracer, ops, first)
            records = first + traced
            (BENCH_DIR / "out").mkdir(exist_ok=True)
            tracer.write(BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
            values = tracing.layer_metrics(tracer)
            values["trace.overhead_s"] = sum(r["cpu_s"] for r in traced) - sum(r["cpu_s"] for r in first)
            timed_s = untraced_s
        else:
            passes, timed_s = run_untraced(runner, ops, args.seconds)
            first = passes[0]
            check_iters = runner.check_manifests(first)
            records = [r for p in passes for r in p]
            ok = sum(not r["failed"] for r in records)
            unscaled = {}
            for clock in ("wall", "cpu"):
                times = per_op_medians(passes, f"{clock}_s")
                unscaled[clock] = {
                    "setup_s": (import_s if clock == "wall" else import_cpu_s)
                    + statistics.median(setup_times if clock == "wall" else setup_cpu),
                    "ops_per_s": ok / sum(r[f"{clock}_s"] for r in records),
                    "op_s_p50": statistics.median(times),
                    "op_s_tail": percentile(times, TAIL_PERCENTILE),
                }
            ref = per_op_medians(passes, "ref_s")
            values = {
                "setup_s": import_ref_s + statistics.median(setup_ref),
                "ops_per_ref_s": ok / sum(r["ref_s"] for r in records),
                "op_ref_s_p50": statistics.median(ref),
                "op_ref_s_tail": percentile(ref, TAIL_PERCENTILE),
                "success_frac": ok / len(records),
                # Counts are per pass; the solve workloads run SQP only in set-up.
                "gmres_iters": sum(r["iters"] or 0 for r in first if r["kind"] == "solve") + check_iters,
                "sqp_iters": sum(r["iters"] for r in first) if workload.name == "generate" else setup_sqp_steps,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }

        for rec in records:
            emit({"op": {k: v for k, v in rec.items() if k != "manifests"}})
        failed = sum(r["failed"] for r in records)
        errors = {}
        for rec in first:
            if rec["error"]:
                errors[rec["error"]] = errors.get(rec["error"], 0) + 1
        emit(
            {
                "summary": {
                    "passes": len(passes),
                    "timed_s": timed_s,
                    "setup_runs_s": setup_times,
                    "setup_runs_cpu_s": setup_cpu,
                    "import_s": import_s,
                    "import_cpu_s": import_cpu_s,
                    "unscaled": None if tracer else unscaled,
                    "host_s": [r.get("host_s") for r in records],
                    "fail_frac": failed / len(records),
                    "errors_per_pass": errors,
                    "op_s_tail": {"percentile": TAIL_PERCENTILE, "samples": len(first), "passes": len(passes)},
                    "check_gmres_iters": check_iters,
                    "setup_sqp_steps": setup_sqp_steps,
                    "solve_checks": tracer.solve_checks if tracer else None,
                    "hooks_missing": sorted(set(probes.missing + (tracer.missing if tracer else []))),
                    "problems": runner.problems,
                }
            }
        )
        declared = per_layer if tracer else end_to_end
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise SystemExit(f"error: metrics not computed: {missing}")
        emit(
            {
                "correct": not runner.problems,
                "attempted": len(records),
                "failed": failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
        return 0
    finally:
        probes.restore()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
