"""Command-line benchmark harness.

Subcommands: generate (run the SQP driver and export KKT systems), solve (run
preconditioned GMRES on an exported system), sweep (batch runs along one study
axis), stencil (synthetic 2D block stencil matrix). Output is CSV on stdout
with a leading comment line carrying the GMRES settings.

Exit codes: 0 success, 2 usage error, 1 numerical failure. Each rule on an
outside value has one home, whose TypeError or ValueError _usage makes a
usage error before any SQP run: manifest.json_value (JSON types),
kkt.check_weights (kappa, gamma), kkt.check_case (the case name, a CSV
field), SqpConfig and GenerateConfig (max_iters, states).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from collections.abc import Callable
from dataclasses import replace

import numpy as np

from .conprec import CATALOG, build_at_preconditioner
from .errors import KktPrecondError, ManifestError, UnknownPreconditioner
from .kkt import reference_solution
from .krylov import DEFAULT_MAX_ITERS, DEFAULT_TOL, GmresConfig, gmres_solve
from .manifest import export_system, import_system, json_value
from .mmio import write_matrix
from .shocktrack import (
    CONFIG_CASTS,
    GenerateConfig,
    build_kkt,
    load_problem_config,
    make_problem,
    run_sqp,
)
from .stencil import generate_stencil_system

CSV_COLUMNS = "case,precond,kappa,gamma,k,p,q,n_elem,iters,converged"


class UsageError(Exception):
    pass


def _csv_header(tol: float, max_iters: int) -> str:
    return f"# tol={tol:g} max_iters={max_iters}\n{CSV_COLUMNS}"


@contextlib.contextmanager
def _usage(prefix: str = ""):
    """A TypeError or ValueError raised inside, the rule an outside value
    breaks, as a usage error (exit 2) with prefix before its message."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{prefix}{exc}")


def _gmres_config(tol, max_iters) -> GmresConfig:
    """The GMRES settings of a run; values GmresConfig rejects are a usage error."""
    with _usage("invalid GMRES settings: "):
        return GmresConfig(tol=tol, max_iters=max_iters)


def _solve_one(sys, precond_name: str, gmres: GmresConfig, reference: Callable[[], np.ndarray]):
    """Run one preconditioned solve, measured against reference(), which is
    called after the preconditioner is built; returns (iters, converged)."""
    prec = build_at_preconditioner(sys, precond_name)
    rhs = sys.rhs()
    cfg = replace(gmres, reference=reference())
    report = gmres_solve(sys, rhs, prec, cfg)
    return report.iterations, report.converged


def _csv_row(sys, precond_name: str, iters: int, converged: bool) -> str:
    dims = sys.dims
    return ",".join(
        [
            sys.case,
            precond_name,
            f"{sys.kappa:.10g}",
            f"{sys.gamma:.10g}",
            str(sys.state_index),
            str(dims.p),
            str(dims.q),
            str(dims.n_elem),
            str(iters),
            "true" if converged else "false",
        ]
    )


def _problem(cfg: GenerateConfig):
    """The problem of a config; parameters it rejects are a usage error."""
    with _usage("invalid problem parameters: "):
        return make_problem(cfg)


def _sqp_states(cfg: GenerateConfig, problem) -> list:
    """The states of one SQP run of problem under cfg; a state of cfg.states
    that the run did not reach is a usage error."""
    states = run_sqp(problem, cfg.sqp)
    for k in cfg.states:
        if not 0 <= k < len(states):
            raise UsageError(f"state {k} not available: run produced states 0..{len(states) - 1}")
    return states


def cmd_generate(args) -> int:
    try:
        with _usage():
            cfg = load_problem_config(args.config)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {args.config}")
    problem = _problem(cfg)
    states = _sqp_states(cfg, problem)
    for k in cfg.states:
        sys_k = build_kkt(problem, states[k], case=cfg.case_name)
        path = export_system(sys_k, args.outdir, prefix=f"state{k}_")
        print(path)
    return 0


def cmd_solve(args) -> int:
    gmres = _gmres_config(args.tol, args.max_iters)
    sys_loaded = import_system(args.manifest)
    iters, converged = _solve_one(sys_loaded, args.precond, gmres, functools.partial(reference_solution, sys_loaded))
    print(_csv_header(gmres.tol, gmres.max_iters))
    print(_csv_row(sys_loaded, args.precond, iters, converged))
    return 0


def _degrees(val, q: int) -> dict:
    """A degree axis value, p or [p, q], as the config fields p and q."""
    pair = val if isinstance(val, list) else [val, q]
    if len(pair) != 2:
        raise UsageError(f"invalid degree {val!r}: a degree p or a pair [p, q]")
    return dict(zip("pq", (json_value(d, int, "degree") for d in pair)))


def _sweep_systems(spec: dict):
    """Yield the KktSystems along the requested study axis, in the order of
    its values.

    Every value is checked, and every problem built, before the first SQP
    run: each number by json_value, and each setting by the GenerateConfig
    it makes, whose states are the states the sweep solves.
    """
    axis = spec.get("axis")
    values = spec.get("values")
    if axis not in ("kappa", "gamma", "state", "degree", "mesh"):
        raise UsageError(f"unknown sweep axis {axis!r}")
    if not isinstance(values, list) or not values:
        raise UsageError("sweep values must be a nonempty list")
    fixed = spec.get("fixed", {})
    if not isinstance(fixed, dict):
        raise UsageError("sweep fixed parameters must be a JSON object")
    # fixed takes the config file's keys, but state (the one SQP state solved) for states.
    unknown = set(fixed) - (CONFIG_CASTS.keys() - {"states"}) - {"state"}
    if unknown:
        raise UsageError(f"unknown fixed parameters: {sorted(unknown)}")
    fixed = dict(fixed)
    with _usage():
        state_index = json_value(fixed.pop("state", 1), int, "state")
        ks = [json_value(v, int, "state") for v in values] if axis == "state" else [state_index]
        # source takes a JSON boolean or one of the config file's words.
        settings = {
            k: CONFIG_CASTS[k](v) if k == "source" else json_value(v, CONFIG_CASTS[k], k) for k, v in fixed.items()
        }
        base = GenerateConfig(**settings, states=tuple(ks))
        if axis in ("kappa", "gamma"):
            cfgs = [replace(base, **{axis: json_value(v, float, f"{axis} value")}) for v in values]
        elif axis == "mesh":
            cfgs = [replace(base, n_elem=json_value(v, int, "mesh size")) for v in values]
        elif axis == "degree":
            cfgs = [replace(base, **_degrees(v, base.q)) for v in values]

    if axis == "state":
        problem = _problem(base)
        states = _sqp_states(base, problem)
        for k in ks:
            yield build_kkt(problem, states[k], case=base.case_name)
    elif axis in ("kappa", "gamma"):
        problem = _problem(base)
        state = _sqp_states(base, problem)[state_index]
        for cfg in cfgs:
            yield build_kkt(problem, replace(state, kappa=cfg.kappa, gamma=cfg.gamma), case=base.case_name)
    else:
        problems = [_problem(cfg) for cfg in cfgs]
        for cfg, problem in zip(cfgs, problems):
            yield build_kkt(problem, _sqp_states(cfg, problem)[state_index], case=cfg.case_name)


def cmd_sweep(args) -> int:
    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"sweep spec not found: {args.spec}")
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past int's digit limit
        raise UsageError(f"{args.spec}: invalid JSON ({exc})")
    if not isinstance(spec, dict):
        raise UsageError(f"{args.spec}: a sweep spec must be a JSON object")

    preconds = spec.get("preconditioners")
    if not isinstance(preconds, list) or not preconds:
        raise UsageError("sweep needs a nonempty preconditioner list")
    for name in preconds:
        if name not in CATALOG:
            raise UsageError(f"unknown preconditioner {name!r}; catalog: {', '.join(CATALOG)}")
    with _usage():
        tol = json_value(spec.get("tol", DEFAULT_TOL), float, "tol")
        max_iters = json_value(spec.get("max_iters", DEFAULT_MAX_ITERS), int, "max_iters")
    gmres = _gmres_config(tol, max_iters)

    rows = []
    for sys_i in _sweep_systems(spec):
        # One factorization of K per system: the first solve whose build
        # succeeds computes the reference, and the others reuse it. A
        # reference that raises is not kept, so each variant reports it.
        reference = functools.cache(functools.partial(reference_solution, sys_i))
        for name in preconds:
            try:
                iters, converged = _solve_one(sys_i, name, gmres, reference)
            except KktPrecondError as exc:
                print(f"error: {sys_i.case} {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                iters, converged = gmres.max_iters, False
            rows.append(_csv_row(sys_i, name, iters, converged))
    print(_csv_header(gmres.tol, gmres.max_iters), *rows, sep="\n")
    return 0


def cmd_stencil(args) -> int:
    with _usage("invalid stencil parameters: "):
        A = generate_stencil_system(args.n, args.block, args.seed)
    write_matrix(args.out, A)
    print(args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kktprecond",
        description="Benchmark harness for constrained KKT preconditioners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="run the SQP driver and export KKT systems")
    p_gen.add_argument("config", help="key = value problem config file")
    p_gen.add_argument("outdir", help="output directory (created if missing)")

    p_solve = sub.add_parser("solve", help="run preconditioned GMRES on an exported system")
    p_solve.add_argument("manifest", help="system manifest JSON")
    p_solve.add_argument("--precond", required=True, help=f"one of: {', '.join(CATALOG)}")
    p_solve.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_solve.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)

    p_sweep = sub.add_parser("sweep", help="batch solves along one study axis")
    p_sweep.add_argument("spec", help="sweep spec JSON")

    p_sten = sub.add_parser("stencil", help="generate a synthetic 2D block stencil matrix")
    p_sten.add_argument("out", help="output Matrix Market file")
    p_sten.add_argument("--n", type=int, required=True, help="grid size")
    p_sten.add_argument("--block", type=int, required=True, help="block size")
    p_sten.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        # Looked up at call time, so a replaced module attribute is the one run.
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, UnknownPreconditioner, ManifestError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KktPrecondError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
