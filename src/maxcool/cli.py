"""Command-line entry point.

Subcommands: evolve (deterministic solver run), dsmc (particle run), steady
(stationary profile solve), sweep-eps (small-inelasticity sweep), verify
(named check suites), kincheck (fast collision-law exactness check). Flag
precedence is CLI > config file (flat key=value via --config) > defaults.
Exit codes: 0 success, 1 numerical failure, 2 usage error. Every run is
deterministic given its flags; artifacts embed the resolved config.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import dsmc
from . import harness
from . import kinematics as kin
from . import spectral as sp
from .harness import ExperimentConfig

logger = logging.getLogger(__name__)

# steady and sweep-eps solve on the grid and step of the full sweep suite
_SWEEP_DEFAULTS = {"grid_n": harness.FULL.sweep_grid[0],
                   "x_max": harness.FULL.sweep_grid[1],
                   "dt": harness.FULL.sweep_dt, "t_max": harness.FULL.sweep_t_max}

_COMMAND_DEFAULTS = {
    "evolve": {},
    "dsmc": {"e": 0.5, "dt": 0.01},
    "steady": _SWEEP_DEFAULTS,
    "sweep-eps": {**_SWEEP_DEFAULTS, "tol": harness.FULL.sweep_tol},
    "verify": {},
    "kincheck": {},
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, metavar="FILE",
                   help="flat key=value config file (CLI flags win)")
    p.add_argument("--verbose", action="store_true", help="log progress to stderr")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxcool",
        description="numerical laboratory for homogeneous inelastic Maxwell gases")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("evolve", help="run the deterministic solver")
    pe.add_argument("--e", type=float, default=None, help="restitution coefficient")
    pe.add_argument("--grid-n", type=int, default=None, dest="grid_n")
    pe.add_argument("--x-max", type=float, default=None, dest="x_max")
    pe.add_argument("--dt", type=float, default=None)
    pe.add_argument("--t-max", type=float, default=None, dest="t_max")
    pe.add_argument("--init", default=None,
                    help="maxwellian[:theta] or bimax:p,theta1,theta2")
    pe.add_argument("--frame", default=None, choices=["rescaled", "unscaled"])
    pe.add_argument("--out", default=None, help="trace CSV path")
    _add_common(pe)

    pd = sub.add_parser("dsmc", help="run the particle simulation")
    pd.add_argument("--e", type=float, default=None)
    pd.add_argument("--n", type=int, default=None, dest="n_particles",
                    help="number of particles")
    pd.add_argument("--t-max", type=float, default=None, dest="t_max")
    pd.add_argument("--dt", type=float, default=None)
    pd.add_argument("--seed", type=int, default=None)
    pd.add_argument("--init", default=None)
    pd.add_argument("--x-grid", default=None, dest="x_grid",
                    help="comma-separated frequencies for the empirical "
                         "characteristic function")
    pd.add_argument("--record-every", type=int, default=None, dest="record_every")
    pd.add_argument("--out", default=None, help="series CSV path")
    _add_common(pd)

    ps = sub.add_parser("steady", help="solve for the stationary rescaled profile")
    ps.add_argument("--e", type=float, default=None)
    ps.add_argument("--grid-n", type=int, default=None, dest="grid_n")
    ps.add_argument("--x-max", type=float, default=None, dest="x_max")
    ps.add_argument("--dt", type=float, default=None)
    ps.add_argument("--t-max", type=float, default=None, dest="t_max",
                    help="step budget of the steady solve, as time: at most t_max/dt steps")
    ps.add_argument("--tol", type=float, default=None)
    ps.add_argument("--out", default=None, help="profile CSV path")
    _add_common(ps)

    pw = sub.add_parser("sweep-eps", help="steady-state sweep over inelasticities")
    pw.add_argument("--eps", default=None,
                    help="comma-separated eps values in (0, 0.25], descending")
    pw.add_argument("--grid-n", type=int, default=None, dest="grid_n")
    pw.add_argument("--x-max", type=float, default=None, dest="x_max")
    pw.add_argument("--dt", type=float, default=None)
    pw.add_argument("--t-max", type=float, default=None, dest="t_max")
    pw.add_argument("--tol", type=float, default=None)
    pw.add_argument("--out", default=None, help="sweep table CSV path")
    _add_common(pw)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suite", default=None,
                    choices=list(harness.SUITES) + ["all"])
    pv.add_argument("--report", default=None, help="report JSON path")
    pv.add_argument("--out-dir", default=None, dest="out_dir",
                    help="directory for raw traces")
    pv.add_argument("--fast", action="store_true", default=None,
                    help="reduced sample sizes for smoke runs")
    _add_common(pv)

    pk = sub.add_parser("kincheck", help="fast collision-law exactness check")
    pk.add_argument("--e", type=float, default=None,
                    help="single restitution value (default: standard set)")
    pk.add_argument("--triples", type=int, default=100_000,
                    help="random collision triples per value")
    _add_common(pk)
    return parser


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    skip = {"command", "config", "verbose", "x_grid", "triples"}
    overrides = {k: v for k, v in vars(args).items()
                 if k not in skip and v is not None}
    return ExperimentConfig.from_sources(
        args.config, base=_COMMAND_DEFAULTS[args.command], **overrides)


def _initial_profile(init: str, grid: sp.RadialGrid) -> sp.CharacteristicProfile:
    spec = dsmc.parse_initial_spec(init)
    if spec["kind"] == "maxwellian":
        return sp.CharacteristicProfile.maxwellian(grid, spec["theta"])
    return sp.CharacteristicProfile.bimaxwellian(
        grid, spec["p"], spec["theta1"], spec["theta2"])


def _cmd_evolve(cfg: ExperimentConfig) -> int:
    grid = sp.RadialGrid(cfg.grid_n, cfg.x_max)
    solver = sp.SolverConfig(dt=cfg.dt, t_max=cfg.t_max, frame=cfg.solver_frame())
    trace = sp.evolve(_initial_profile(cfg.init, grid), cfg.e, solver)
    if cfg.out:
        harness.save_trace(cfg.out, trace, cfg.e, cfg.solver_frame())
        harness.embed_provenance(cfg.out, cfg)
        print(f"wrote {cfg.out}: {len(trace.times)} records to t={trace.times[-1]:g}")
    else:
        m2 = trace.diagnostics["m2"]
        print(f"evolved to t={trace.times[-1]:g}: m2 {m2[0]:.6g} -> {m2[-1]:.6g}")
    return 0


def _parse_x_grid(text: str | None) -> np.ndarray | None:
    if not text:
        return None
    try:
        x_grid = np.array([float(s) for s in text.split(",")])
    except ValueError:
        raise ValueError(f"--x-grid must be comma-separated numbers, got {text!r}") from None
    return dsmc._check_x_grid(x_grid)


def _cmd_dsmc(cfg: ExperimentConfig, x_grid: np.ndarray | None) -> int:
    ens = dsmc.sample_initial(cfg.init, cfg.n_particles, cfg.seed, e=cfg.e)
    series = dsmc.run(ens, t_max=cfg.t_max, dt=cfg.dt, x_grid=x_grid,
                      record_every=cfg.record_every or None)
    if cfg.out:
        dsmc.save_series(cfg.out, series)
        harness.embed_provenance(cfg.out, cfg)
        print(f"wrote {cfg.out}: {len(series['t'])} records, "
              f"{ens.collisions_applied} collisions")
    else:
        print(f"t={series['t'][-1]:g}: m2={series['m2'][-1]:.6g} "
              f"({ens.collisions_applied} collisions)")
    return 0


def _cmd_steady(cfg: ExperimentConfig) -> int:
    grid = sp.RadialGrid(cfg.grid_n, cfg.x_max)
    solver = sp.SolverConfig(dt=cfg.dt, t_max=cfg.t_max, frame="rescaled-g")
    phi = sp.steady_profile(cfg.e, solver, tol=cfg.tol, grid=grid)
    if cfg.out:
        sp.save_profile(cfg.out, phi, cfg.e, "rescaled-g")
        harness.embed_provenance(cfg.out, cfg)
        print(f"wrote {cfg.out}")
    print(f"steady e={cfg.e:g}: converged={phi.meta['converged']} "
          f"steps={phi.meta['steps']} "
          f"residual={phi.meta['fixed_point_residual']:.3g} "
          f"m2={sp.moment(phi, 2):.8g}")
    if not phi.meta["converged"]:
        print(f"error: no convergence to tol={cfg.tol:g} within t_max={cfg.t_max:g}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(cfg: ExperimentConfig) -> int:
    solver = sp.SolverConfig(dt=cfg.dt, t_max=cfg.t_max, frame="rescaled-g")
    table = harness.sweep_epsilon(cfg.eps_values(), config=solver,
                                  grid=sp.RadialGrid(cfg.grid_n, cfg.x_max),
                                  tol=cfg.tol, raise_on_failure=False)
    for row in table["rows"]:
        print(f"eps={row['eps']:g}: l1={row['l1']:.6g} envelope={row['envelope']:.6g} "
              f"c={row['c_fit']:.6g} steps={row['steps']}")
    for d in table["dropped"]:
        print(f"eps={d['eps']:g}: dropped (steady state not converged "
              f"in {d['steps']} steps)")
    if cfg.out:
        harness._save_sweep_csv(cfg.out, table)
        harness.embed_provenance(cfg.out, cfg)
        print(f"wrote {cfg.out}")
    ok = table["monotone"] and table["c_stable"]
    if not ok:
        print("error: sweep checks failed: "
              f"monotone={table['monotone']} c_stable={table['c_stable']} "
              f"c_ratios={[f'{r:.3g}' for r in table['c_ratios']]}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(cfg: ExperimentConfig) -> int:
    report = harness.verify(cfg.suite, fast=cfg.fast, out_dir=cfg.out_dir or None)
    for c in report["checks"]:
        if c["status"] != "pass":
            print(f"[{c['status']}] {c['suite']}/{c['name']}: "
                  f"measured={c['measured']} bound={c['bound']} "
                  f"{c.get('detail', '')}")
    print(f"verify {cfg.suite}: {report['n_pass']} pass, {report['n_fail']} fail, "
          f"{report['n_error']} error in {report['elapsed_seconds']:.1f} s")
    if cfg.report:
        harness.save_report(cfg.report, report)
        print(f"wrote {cfg.report}")
    return 0 if report["passed"] else 1


def _cmd_kincheck(args: argparse.Namespace) -> int:
    es = (args.e,) if args.e is not None else harness._KIN_ES
    worst_fail = 0
    for e in es:
        rows = harness._kinematics_exactness(float(e), int(args.triples), seed=2)
        for r in rows:
            mark = "ok" if r["status"] == "pass" else "FAIL"
            print(f"[{mark}] {r['name']}: measured={r['measured']:.3g} "
                  f"bound={r['bound']:.3g}")
            worst_fail += r["status"] != "pass"
    return 1 if worst_fail else 0


def run_cli(argv=None) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage/help printing
        code = exc.code
        return code if isinstance(code, int) else 2
    if getattr(args, "verbose", False):
        logging.basicConfig(level=logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
    # validation phase: out-of-range parameters are usage errors (exit 2)
    try:
        if args.command == "kincheck":
            if args.e is not None:
                kin._check_e(args.e)
            if args.triples < 1:
                raise ValueError(f"triples must be positive, got {args.triples}")
            cfg = None
        else:
            cfg = _resolve(args)
        x_grid = _parse_x_grid(args.x_grid) if args.command == "dsmc" else None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # execution phase: anything that breaks here is a numerical failure (exit 1)
    try:
        if args.command == "evolve":
            return _cmd_evolve(cfg)
        if args.command == "dsmc":
            return _cmd_dsmc(cfg, x_grid)
        if args.command == "steady":
            return _cmd_steady(cfg)
        if args.command == "sweep-eps":
            return _cmd_sweep(cfg)
        if args.command == "verify":
            return _cmd_verify(cfg)
        return _cmd_kincheck(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        logger.exception("command failed")
        return 1


def main() -> None:
    sys.exit(run_cli())
