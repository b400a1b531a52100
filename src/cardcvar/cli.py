"""Command-line front end: scenario generation, solves, and benchmark sweeps.

Three subcommands. `gen` samples scenario returns from moment files, `solve`
runs one method on a scenario file and writes a JSON report plus a one-line
summary, `bench` sweeps a method x S x k x gamma grid from a JSON config into
a CSV table. stdout carries summary lines only; diagnostics go to stderr.
Exit codes: 0 optimal, 1 usage or input error, 2 time limit, 3 infeasible,
4 solver failure (a subproblem solve failed or its certificate broke an
invariant; no report is written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import driver, ingest, lower, oracle
from .driver import SolveReport
from .model import (
    Instance,
    Portfolio,
    SelectionVector,
    build_feasible_set,
    compute_mu_bar,
)

__all__ = [
    "RunConfig",
    "METHODS",
    "build_instance",
    "run_method",
    "write_report",
    "load_report",
    "main",
]

METHODS = ("bcp", "bcpc", "cp", "bigm", "oracle")

_EXIT_FOR_STATUS = {driver.OPTIMAL: 0, driver.TIME_LIMIT: 2,
                    driver.INFEASIBLE: 3}

_CSV_HEADER = ("instance", "method", "S", "k", "gamma", "obj", "gap_pct",
               "time_sec", "nodes", "cuts", "status")


class UsageError(Exception):
    """Bad flags or config contents; mapped to exit code 1."""


@dataclass
class RunConfig:
    """Resolved run parameters echoed verbatim into every report."""

    method: str = "bcp"
    k: int = 10
    gamma: float | str = "auto"
    beta: float = 0.9
    eps: float = driver.EPS_DEFAULT
    delta: float = driver.DELTA_DEFAULT
    seed: int = 0
    time_limit_sec: float = driver.TIME_LIMIT_DEFAULT
    scale: float = 1.0
    mu_bar: float | str = "auto"
    paths: dict = field(default_factory=dict)

    def resolved_gamma(self, n_assets: int) -> float:
        if self.gamma == "auto":
            return 10.0 / np.sqrt(n_assets)
        return float(self.gamma)


def build_instance(scenarios, probs, config: RunConfig) -> Instance:
    """Instance over the scenario sample; the side rows hold the
    required-return constraint at the configured or rule-based level."""
    scenarios = np.atleast_2d(np.asarray(scenarios, dtype=float))
    n = scenarios.shape[1]
    gamma = config.resolved_gamma(n)
    base = Instance(n_assets=n, scenarios=scenarios, probs=probs,
                    side_A=np.zeros((0, n)), side_b=[], beta=config.beta,
                    gamma=gamma, k=config.k)
    if config.mu_bar == "auto":
        mu_bar = compute_mu_bar(base.expected_returns, config.k)
    else:
        mu_bar = float(config.mu_bar)
    A, b = build_feasible_set(base, mu_bar)
    return Instance(n_assets=n, scenarios=scenarios, probs=probs,
                    side_A=A, side_b=b, beta=config.beta, gamma=gamma,
                    k=config.k)


def run_method(instance: Instance, config: RunConfig) -> SolveReport:
    """Dispatch one solve according to config.method."""
    eps, delta = config.eps, config.delta
    limit = config.time_limit_sec
    if config.method == "bcp":
        return driver.solve_bcp(instance, eps, delta, time_limit=limit)
    if config.method == "bcpc":
        return driver.solve_bcp(instance, eps, delta, mode="single_tree",
                                time_limit=limit)
    if config.method == "cp":
        return driver.solve_cp(instance, eps, time_limit=limit)
    if config.method == "bigm":
        return driver.solve_bigm(instance, eps, time_limit=limit)
    if config.method == "oracle":
        t0 = time.monotonic()
        result = oracle.brute_force(instance, instance.k)
        echo = driver._echo(eps, delta, limit)
        if result is None:
            nan = float("nan")
            return driver._report("oracle", driver.INFEASIBLE, instance, t0,
                                  0, 0, 0, None, nan, nan, echo)
        # lb = ub = the enumerated optimum, so gap_pct is 0
        return driver._report("oracle", driver.OPTIMAL, instance, t0,
                              result.evaluated, 0, 0, result.best_z,
                              result.best_f, result.best_f, echo)
    raise UsageError(f"unknown method {config.method!r}")


def write_report(path, config: RunConfig, report: SolveReport) -> None:
    """Flat JSON document with every report field and the config echo."""
    sel = report.selection
    port = report.portfolio
    doc = {
        "method": report.method,
        "status": report.status,
        "obj": float(report.obj),
        "gap_pct": float(report.gap_pct),
        "time_sec": float(report.time_sec),
        "iterations": int(report.iterations),
        "nodes": int(report.nodes),
        "cuts": int(report.n_cuts),
        "selection": None if sel is None else [int(b) for b in sel.bits],
        "weights": None if port is None else [float(w) for w in port.weights],
        "var_level": None if port is None else float(port.var_level),
        "cvar_excess": None if port is None else float(port.cvar_excess),
        "var": float(report.var),
        "cvar": float(report.cvar),
        "expected_return": float(report.expected_return),
        "params": report.params,
        "config": asdict(config),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_report(path) -> tuple[RunConfig, SolveReport]:
    """Inverse of write_report; floats round-trip exactly."""
    doc = json.loads(Path(path).read_text())
    config = RunConfig(**doc["config"])
    sel = doc["selection"]
    selection = None if sel is None else SelectionVector(
        np.asarray(sel, dtype=np.int64))
    portfolio = None if doc["weights"] is None else Portfolio(
        np.asarray(doc["weights"], dtype=float),
        doc["var_level"], doc["cvar_excess"])
    report = SolveReport(doc["method"], doc["status"], doc["obj"],
                         doc["gap_pct"], doc["time_sec"], doc["iterations"],
                         doc["nodes"], doc["cuts"], selection, portfolio,
                         doc["cvar"], doc["var"], doc["expected_return"],
                         doc["params"])
    return config, report


def _summary_line(report: SolveReport) -> str:
    return (f"{report.method} {report.obj:.10g} {report.gap_pct:.6g} "
            f"{report.time_sec:.3f} {report.n_cuts} {report.nodes}")


def cmd_gen(args) -> int:
    moments = ingest.parse_orlibrary(Path(args.orlib).read_text(),
                                     scale=args.scale)
    scen = ingest.generate_scenarios(moments, args.scenarios, args.seed)
    with open(args.out, "w") as out:
        ingest.write_scenarios(scen, out)
    print(f"gen {scen.shape[0]} {scen.shape[1]} {args.out}")
    return 0


def cmd_solve(args) -> int:
    with open(args.scenarios) as f:
        scen, probs = ingest.parse_scenarios(f)
    config = RunConfig(method=args.method, k=args.k, gamma=args.gamma,
                       beta=args.beta, eps=args.eps, delta=args.delta,
                       time_limit_sec=args.time_limit, mu_bar=args.mu_bar,
                       paths={"scenarios": str(args.scenarios),
                              "report": str(args.report)})
    instance = build_instance(scen, probs, config)
    report = run_method(instance, config)
    write_report(args.report, config, report)
    print(_summary_line(report))
    return _EXIT_FOR_STATUS.get(report.status, 1)


def _bench_cells(cfg: dict):
    """Yield (instance_name, scenario_matrix, RunConfig) over the grid."""
    defaults = {"beta": cfg.get("beta", 0.9),
                "eps": cfg.get("eps", driver.EPS_DEFAULT),
                "delta": cfg.get("delta", driver.DELTA_DEFAULT),
                "time_limit_sec": cfg.get("time_limit",
                                          driver.TIME_LIMIT_DEFAULT),
                "mu_bar": cfg.get("mu_bar", "auto")}
    for entry in cfg["instances"]:
        name = entry["name"]
        scale = float(entry.get("scale", 1.0))
        seed = int(entry.get("seed", 0))
        moments = ingest.parse_orlibrary(Path(entry["orlib"]).read_text(),
                                         scale=scale)
        for S in cfg["S"]:
            scen = ingest.generate_scenarios(moments, int(S), seed)
            for method in cfg["methods"]:
                for k in cfg["k"]:
                    for gamma in cfg.get("gamma", ["auto"]):
                        yield name, scen, RunConfig(
                            method=method, k=int(k), gamma=gamma,
                            seed=seed, scale=scale, **defaults)


def cmd_bench(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    rows = 0
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_CSV_HEADER)
        f.flush()
        for name, scen, config in _bench_cells(cfg):
            try:
                gamma = config.resolved_gamma(scen.shape[1])
                probs = np.full(scen.shape[0], 1.0 / scen.shape[0])
                instance = build_instance(scen, probs, config)
                rep = run_method(instance, config)
                row = [name, config.method, scen.shape[0], config.k, gamma,
                       rep.obj, rep.gap_pct, rep.time_sec, rep.nodes,
                       rep.n_cuts, rep.status]
            except Exception as exc:
                print(f"bench cell {name}/{config.method} failed: {exc}",
                      file=sys.stderr)
                nan = float("nan")
                row = [name, config.method, scen.shape[0], config.k,
                       config.gamma, nan, nan, nan, 0, 0, "Error"]
            writer.writerow(row)
            f.flush()
            rows += 1
    print(f"bench {rows} {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _float_or_auto(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a number, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="cardcvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample scenario returns from moments")
    p.add_argument("--orlib", required=True, help="moment file")
    p.add_argument("--scenarios", type=int, required=True, metavar="S")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run one method on a scenario file")
    p.add_argument("--scenarios", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--gamma", type=_float_or_auto, default="auto")
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--eps", type=float, default=driver.EPS_DEFAULT)
    p.add_argument("--delta", type=float, default=driver.DELTA_DEFAULT)
    p.add_argument("--time-limit", type=float,
                   default=driver.TIME_LIMIT_DEFAULT, dest="time_limit")
    p.add_argument("--mu-bar", type=_float_or_auto, default="auto",
                   dest="mu_bar")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="sweep a parameter grid into a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ingest.ParseError, UsageError, OSError, ValueError,
            KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (lower.SolverError, lower.CertificateError) as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
