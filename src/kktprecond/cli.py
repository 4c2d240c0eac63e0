"""Command-line benchmark harness.

Subcommands: generate (run the SQP driver and export KKT systems), solve (run
preconditioned GMRES on an exported system), sweep (batch runs along one study
axis), stencil (synthetic 2D block stencil matrix). Output is CSV on stdout
with a leading comment line carrying the GMRES settings.

Exit codes: 0 success, 2 usage error, 1 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

from .conprec import CATALOG, build_at_preconditioner
from .errors import KktPrecondError, ManifestError, UnknownPreconditioner
from .kkt import reference_solution
from .krylov import DEFAULT_MAX_ITERS, DEFAULT_TOL, EXACT_SOLUTION, GmresConfig, gmres_solve
from .manifest import export_system, import_system
from .mmio import write_matrix
from .shocktrack import (
    CONFIG_CASTS,
    GenerateConfig,
    SqpConfig,
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


def _gmres_config(tol, max_iters) -> GmresConfig:
    """The GMRES settings of a run; values GmresConfig rejects are a usage error."""
    try:
        return GmresConfig(tol=tol, max_iters=max_iters)
    except ValueError as exc:
        raise UsageError(f"invalid GMRES settings: {exc}")


def _solve_one(sys, precond_name: str, gmres: GmresConfig):
    """Run one preconditioned solve; returns (iters, converged)."""
    prec = build_at_preconditioner(sys, precond_name)
    rhs = sys.rhs()
    cfg = replace(gmres, criterion=EXACT_SOLUTION, reference=reference_solution(sys))
    report = gmres_solve(sys.operator(), rhs, prec.as_preconditioner(), cfg)
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
    try:
        return make_problem(cfg)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid problem parameters: {exc}")


def _cast(kind, value, what: str):
    """kind(value), or a usage error naming what the value is."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise UsageError(f"invalid {what} {value!r}")


def _integer(value, what: str) -> int:
    """A sweep spec's integer field: a JSON integer such as 8, not a bool, a
    number with a fraction or exponent, or a string; else a usage error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"invalid {what} {value!r}: must be a JSON integer")
    return value


def _weight(value, name: str) -> float:
    """A kappa or gamma value as a float; a negative, infinite or NaN one is
    a usage error."""
    weight = _cast(float, value, f"{name} value")
    if not (weight >= 0 and math.isfinite(weight)):
        raise UsageError(f"invalid {name} {value!r}: must be finite and nonnegative")
    return weight


def _fixed_value(key: str, value):
    """A sweep's fixed value through the config file's cast for key; a
    numeric key takes a JSON number, not a string such as "8"."""
    cast = CONFIG_CASTS[key]
    if cast is int:
        return _integer(value, key)
    if cast is float and isinstance(value, str):
        raise UsageError(f"invalid {key} {value!r}: must be a JSON number")
    return _cast(cast, value, key)


def _checked(cfg: GenerateConfig, states) -> GenerateConfig:
    """cfg with kappa, gamma and max_iters checked, and states checked to be
    nonempty and within the states 0..max_iters that a run can produce,
    before any run."""
    cfg = replace(cfg, kappa=_weight(cfg.kappa, "kappa"), gamma=_weight(cfg.gamma, "gamma"))
    n = cfg.max_iters
    if n < 0:
        raise UsageError(f"invalid max_iters {n}: must be nonnegative")
    if not states:
        raise UsageError("invalid states: name at least one state to export")
    for k in states:
        if not 0 <= k <= n:
            raise UsageError(f"state {k} not available: a run of at most {n} iterations produces states 0..{n}")
    return cfg


def _sqp_states(cfg: GenerateConfig, problem, ks) -> list:
    """The states of one SQP run of problem under cfg; a state in ks that the
    run did not reach is a usage error."""
    states = run_sqp(problem, SqpConfig(max_iters=cfg.max_iters, kappa=cfg.kappa, gamma=cfg.gamma))
    for k in ks:
        if not 0 <= k < len(states):
            raise UsageError(f"state {k} not available: run produced states 0..{len(states) - 1}")
    return states


def cmd_generate(args) -> int:
    try:
        cfg = load_problem_config(args.config)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {args.config}")
    except ValueError as exc:
        raise UsageError(str(exc))
    cfg = _checked(cfg, cfg.states)
    problem = _problem(cfg)
    states = _sqp_states(cfg, problem, cfg.states)
    for k in cfg.states:
        sys_k = build_kkt(problem, states[k], case=cfg.case_name)
        path = export_system(sys_k, args.outdir, prefix=f"state{k}_")
        print(path)
    return 0


def cmd_solve(args) -> int:
    gmres = _gmres_config(args.tol, args.max_iters)
    sys_loaded = import_system(args.manifest)
    iters, converged = _solve_one(sys_loaded, args.precond, gmres)
    print(_csv_header(gmres.tol, gmres.max_iters))
    print(_csv_row(sys_loaded, args.precond, iters, converged))
    return 0


def _sweep_systems(spec: dict):
    """Yield (sort_key, KktSystem) pairs along the requested study axis."""
    axis = spec.get("axis")
    values = spec.get("values")
    if axis not in ("kappa", "gamma", "state", "degree", "mesh"):
        raise UsageError(f"unknown sweep axis {axis!r}")
    if not isinstance(values, list) or not values:
        raise UsageError("sweep values must be a nonempty list")
    fixed = spec.get("fixed", {})
    if not isinstance(fixed, dict):
        raise UsageError("sweep fixed parameters must be a JSON object")
    fixed = dict(fixed)
    state_index = _integer(fixed.pop("state", 1), "state")
    unknown = set(fixed) - set(CONFIG_CASTS)
    if unknown:
        raise UsageError(f"unknown fixed parameters: {sorted(unknown)}")
    base = GenerateConfig(**{k: _fixed_value(k, v) for k, v in fixed.items()})
    ks = [_integer(v, "state") for v in values] if axis == "state" else [state_index]
    base = _checked(base, ks)

    if axis in ("kappa", "gamma"):
        scalars = [_weight(v, axis) for v in values]
        problem = _problem(base)
        state = _sqp_states(base, problem, ks)[state_index]
        for i, val in enumerate(scalars):
            yield i, build_kkt(problem, state, case=base.case_name, **{axis: val})
    elif axis == "state":
        problem = _problem(base)
        states = _sqp_states(base, problem, ks)
        for i, k in enumerate(ks):
            yield i, build_kkt(problem, states[k], case=base.case_name)
    else:
        # Every value is cast and its problem built before the first SQP run.
        cfgs = []
        for val in values:
            if axis == "mesh":
                change = {"n_elem": _integer(val, "mesh size")}
            else:
                pair = val if isinstance(val, list) else [val, base.q]
                if len(pair) != 2:
                    raise UsageError(f"invalid degree {val!r}: a degree p or a pair [p, q]")
                change = dict(zip("pq", (_integer(d, "degree") for d in pair)))
            cfgs.append(replace(base, **change))
        problems = [_problem(cfg) for cfg in cfgs]
        for i, (cfg, problem) in enumerate(zip(cfgs, problems)):
            states = _sqp_states(cfg, problem, ks)
            yield i, build_kkt(problem, states[state_index], case=cfg.case_name)


def cmd_sweep(args) -> int:
    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"sweep spec not found: {args.spec}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.spec}: invalid JSON ({exc})")
    if not isinstance(spec, dict):
        raise UsageError(f"{args.spec}: a sweep spec must be a JSON object")

    preconds = spec.get("preconditioners")
    if not isinstance(preconds, list) or not preconds:
        raise UsageError("sweep needs a nonempty preconditioner list")
    for name in preconds:
        if name not in CATALOG:
            raise UsageError(f"unknown preconditioner {name!r}; catalog: {', '.join(CATALOG)}")
    tol = _cast(float, spec.get("tol", DEFAULT_TOL), "tol")
    gmres = _gmres_config(tol, _integer(spec.get("max_iters", DEFAULT_MAX_ITERS), "max_iters"))

    rows = []
    for value_pos, sys_i in _sweep_systems(spec):
        for precond_pos, name in enumerate(preconds):
            try:
                iters, converged = _solve_one(sys_i, name, gmres)
            except KktPrecondError as exc:
                print(f"error: {sys_i.case} {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                iters, converged = gmres.max_iters, False
            rows.append(((value_pos, precond_pos), _csv_row(sys_i, name, iters, converged)))
    rows.sort(key=lambda item: item[0])
    print(_csv_header(gmres.tol, gmres.max_iters))
    for _, row in rows:
        print(row)
    return 0


def cmd_stencil(args) -> int:
    try:
        A = generate_stencil_system(args.n, args.block, args.seed)
    except ValueError as exc:
        raise UsageError(f"invalid stencil parameters: {exc}")
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
    except (UsageError, UnknownPreconditioner, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KktPrecondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
