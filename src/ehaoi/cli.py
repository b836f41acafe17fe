"""Command-line interface: solve, simulate, compare, sweep, verify.

All numeric CSV output is written with 12 significant digits, UTF-8,
comma separators, LF line endings, and a header row, so identical
configurations produce byte-identical files. Options resolve in three
layers: built-in defaults, then a JSON config file (--config), then
explicit flags, with flags winning.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, fields

from .evaluator import (
    UnboundedAgeError,
    check_run,
    evaluate_exact,
    evaluate_periodic_exact,
    simulate,
)
from .model import DomainError, ModelParams, enumerate_states, is_int, is_real
from .policies import Periodic, ZeroWait, stationary_actions
from .solver import ConvergenceError, modified_via
from .verify import run_all_checks

OK = 0
FAIL = 1
USAGE = 2

AXES = ("weight", "lambda_e", "p_block")
# what a solve raises for a model it cannot solve: exit 1, or a grid
# point's error rows
SOLVE_ERRORS = (ConvergenceError, UnboundedAgeError)


@dataclass
class RunConfig:
    lambda_e: float = 0.5
    p_block: float = 0.2
    battery_cap: int = 20
    cost_reliable: float = 2.0
    weight: float = 10.0
    delta_max: int = 200
    eps: float = 1e-9
    max_iter: int = 100_000
    policy: str = "optimal"
    period: int = 5
    periodic_skip_on_empty: bool = False
    horizon: int = 1_000_000
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    axis: str | None = None
    grid: list[float] | None = None
    out: str | None = None
    simulate_also: bool = False


# what a JSON config value must be, by the RunConfig field's declared type
_TYPE_CHECKS = {
    "float": ("a number", is_real),
    "int": ("an integer", is_int),
    "bool": ("true or false", lambda x: isinstance(x, bool)),
    "str": ("a string", lambda x: isinstance(x, str)),
    "str | None": ("a string or null", lambda x: x is None or isinstance(x, str)),
    "list[int]": (
        "a non-empty list of integers",
        lambda x: isinstance(x, list) and bool(x) and all(map(is_int, x)),
    ),
    "list[float] | None": (
        "a list of numbers or null",
        lambda x: x is None or (isinstance(x, list) and all(map(is_real, x))),
    ),
}
_FIELD_CHECKS = {f.name: _TYPE_CHECKS[f.type] for f in fields(RunConfig)}


class CliUsageError(Exception):
    pass


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(x) for x in row])
    except OSError as exc:
        raise CliUsageError(f"cannot write {path}: {exc}") from exc


def _check_writable(*paths: str) -> None:
    """Fail now, as ``_write_csv`` would after all the work, on a path that
    cannot be written. Opening for appending changes no file, and a file
    made by the check is removed again."""
    for path in paths:
        made = not os.path.lexists(path)
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise CliUsageError(f"cannot write {path}: {exc}") from exc
        if made:
            os.remove(path)


def _check_runs(cfg: RunConfig) -> None:
    """Fail now, as the first ``simulate`` would, on a bad horizon or seed."""
    for seed in cfg.seeds:
        check_run(cfg.horizon, seed)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliUsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliUsageError("config file must hold a JSON object")
    return data


def _resolve(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in _load_config(args.config).items():
            if key not in _FIELD_CHECKS:
                raise CliUsageError(f"unknown config key {key!r}")
            expected, ok = _FIELD_CHECKS[key]
            if not ok(value):
                raise CliUsageError(
                    f"config key {key!r} must be {expected}, got {json.dumps(value)}"
                )
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        # every field's flag shares its name, but --seed fills seeds
        value = getattr(args, "seed" if f.name == "seeds" else f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def _model_params(cfg: RunConfig, **replace) -> ModelParams:
    kw = {f.name: getattr(cfg, f.name) for f in fields(ModelParams)}
    kw.update(replace)
    return ModelParams(**kw)


def _grid_params(cfg: RunConfig) -> list[tuple[float, ModelParams]]:
    if cfg.axis is None or cfg.grid is None:
        raise CliUsageError("this subcommand needs --axis and --grid")
    if cfg.axis not in AXES:
        raise CliUsageError(f"axis must be one of {', '.join(AXES)}")
    if not cfg.grid:
        raise CliUsageError("grid must be non-empty")
    return [(v, _model_params(cfg, **{cfg.axis: v})) for v in cfg.grid]


def _policy_kind(cfg: RunConfig):
    """The simulated policy's kind; None for optimal, whose kind a solve gives."""
    if cfg.policy == "zero-wait":
        return ZeroWait()
    if cfg.policy == "periodic":
        return Periodic(cfg.period, cfg.periodic_skip_on_empty)
    if cfg.policy == "optimal":
        return None
    raise CliUsageError(f"unknown policy {cfg.policy!r}")


def _derived_path(base: str, suffix: str) -> str:
    if base.endswith(".csv"):
        return base[: -len(".csv")] + suffix + ".csv"
    return base + suffix


def cmd_solve(cfg: RunConfig) -> int:
    m = _model_params(cfg)
    out = cfg.out or "thresholds.csv"
    policy_out = _derived_path(out, "_policy")
    _check_writable(out, policy_out)
    result, kind = modified_via(m, cfg.eps, cfg.max_iter)
    _write_csv(out, ["q", "threshold"], list(enumerate(kind.thresholds)))
    rows = [
        [s.aoi, s.battery, int(a)]
        for s, a in zip(enumerate_states(m), stationary_actions(kind, m))
    ]
    _write_csv(policy_out, ["delta", "q", "action"], rows)
    print(
        f"gain={_fmt(result.gain)} iterations={result.iterations} "
        f"span_residual={result.span_residual:.3e} "
        f"argmin_evals={result.argmin_evals}"
    )
    print(f"thresholds -> {out}")
    print(f"policy grid -> {policy_out}")
    return OK


def cmd_simulate(cfg: RunConfig) -> int:
    m = _model_params(cfg)
    kind = _policy_kind(cfg)
    _check_runs(cfg)
    out = cfg.out or "simulate.csv"
    _check_writable(out)
    if kind is None:
        kind = modified_via(m, cfg.eps, cfg.max_iter)[1]
    rows = []
    costs = []
    for seed in cfg.seeds:
        rep = simulate(kind, m, cfg.horizon, seed)
        costs.append(rep.average_cost)
        rows.append(
            [
                cfg.policy,
                seed,
                rep.horizon,
                rep.average_cost,
                rep.average_aoi,
                rep.reliable_energy_rate,
                rep.ci_halfwidth,
                rep.rng,
            ]
        )
    _write_csv(
        out,
        [
            "policy",
            "seed",
            "horizon",
            "average_cost",
            "average_aoi",
            "reliable_rate",
            "ci_halfwidth",
            "rng",
        ],
        rows,
    )
    print(
        f"policy={cfg.policy} seeds={len(cfg.seeds)} horizon={cfg.horizon} "
        f"mean_average_cost={_fmt(sum(costs) / len(costs))}"
    )
    print(f"runs -> {out}")
    return OK


def _compare_row(value, name: str, rep=None, error=None) -> list:
    if error is not None:
        return [value, name, None, None, None, f"error:{error}"]
    return [value, name, rep.average_cost, rep.average_aoi, rep.reliable_energy_rate, "ok"]


def cmd_compare(cfg: RunConfig) -> int:
    points = _grid_params(cfg)
    header = ["axis_value", "policy", "average_cost", "average_aoi", "reliable_rate", "status"]
    # the period, the run inputs and the path are checked before the first
    # solve, so bad input fails before any work
    periodic = Periodic(cfg.period, cfg.periodic_skip_on_empty)
    if cfg.simulate_also:
        _check_runs(cfg)
    out = cfg.out or "compare.csv"
    _check_writable(out)
    rows = []
    failed = False
    for value, m in points:
        # the compared policies in row order; a failed solve fails the
        # optimal row alone, as the baselines do not depend on it
        kinds = {"zero-wait": ZeroWait(), "periodic": periodic}
        try:
            kinds = {"optimal": modified_via(m, cfg.eps, cfg.max_iter)[1], **kinds}
        except SOLVE_ERRORS as exc:
            rows.append(_compare_row(value, "optimal", error=exc))
            failed = True
        for name, kind in kinds.items():
            # the evaluators are looked up at call time, where the benchmark's
            # tracer (perfbench/worker.py) has rebound them
            evaluate = evaluate_periodic_exact if kind is periodic else evaluate_exact
            try:
                rows.append(_compare_row(value, name, evaluate(kind, m)))
            except RuntimeError as exc:  # ReducibleChainError among them
                rows.append(_compare_row(value, name, error=exc))
                failed = True
        if cfg.simulate_also:
            for name, kind in kinds.items():
                for seed in cfg.seeds:
                    rep = simulate(kind, m, cfg.horizon, seed)
                    rows.append(_compare_row(value, f"{name}[sim seed={seed}]", rep))
    _write_csv(out, header, rows)
    print(f"compared {len(points)} {cfg.axis} value(s) -> {out}")
    return FAIL if failed else OK


def cmd_sweep(cfg: RunConfig) -> int:
    points = _grid_params(cfg)
    out = cfg.out or "sweep.csv"
    _check_writable(out)
    rows = []
    failed = False
    for value, m in points:
        try:
            result, tp = modified_via(m, cfg.eps, cfg.max_iter)
        except SOLVE_ERRORS as exc:
            rows.append([value, None, None, None, f"error:{exc}"])
            failed = True
            continue
        for q, thr in enumerate(tp.thresholds):
            rows.append([value, q, thr, result.gain, "ok"])
    _write_csv(out, ["axis_value", "q", "threshold", "gain", "status"], rows)
    print(f"swept {len(points)} {cfg.axis} value(s) -> {out}")
    return FAIL if failed else OK


def cmd_verify(cfg: RunConfig) -> int:
    m = _model_params(cfg)
    if cfg.out:
        _check_writable(cfg.out)
    result, tp = modified_via(m, cfg.eps, cfg.max_iter)
    reports = run_all_checks(result.values, m)
    print(f"gain={_fmt(result.gain)} iterations={result.iterations}")
    print(f"thresholds={','.join(str(t) for t in tp.thresholds)}")
    rows = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        line = f"{rep.name}: {status} worst={rep.worst:.3e} tol={rep.tol:g}"
        witness = ""
        if rep.witnesses:
            s, t = rep.witnesses[0]
            witness = f"({s.aoi},{s.battery})->({t.aoi},{t.battery})"
            line += f" witness={witness}"
        print(line)
        rows.append([rep.name, rep.passed, rep.worst, rep.tol, witness])
    if cfg.out:
        _write_csv(cfg.out, ["check", "passed", "worst", "tol", "witness"], rows)
        print(f"report -> {cfg.out}")
    return OK if all(r.passed for r in reports) else FAIL


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid value: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehaoi",
        description=(
            "Solve, simulate, and verify the average-cost status-update "
            "problem with harvested plus paid backup energy."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lambda-e", dest="lambda_e", type=float, help="energy arrival probability")
    common.add_argument("--p-block", dest="p_block", type=float, help="channel blocking probability")
    common.add_argument("--battery-cap", dest="battery_cap", type=int, help="battery capacity")
    common.add_argument("--cost-reliable", dest="cost_reliable", type=float, help="paid backup packet cost")
    common.add_argument("--weight", dest="weight", type=float, help="objective weight on paid energy")
    common.add_argument("--delta-max", dest="delta_max", type=int, help="ages in the policy and value grids")
    common.add_argument(
        "--eps", dest="eps", type=float,
        help="widest gain certificate the solver accepts",
    )
    common.add_argument(
        "--max-iter", dest="max_iter", type=int,
        help="cap on the solver's policy evaluations",
    )
    common.add_argument("--out", dest="out", help="output CSV path")
    common.add_argument("--config", dest="config", help="JSON config file; flags override it")

    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--period", dest="period", type=int, help="periodic schedule length")
    runs.add_argument(
        "--periodic-skip-on-empty",
        dest="periodic_skip_on_empty",
        action="store_true",
        default=None,
        help="periodic schedule idles instead of paying on an empty battery",
    )
    runs.add_argument("--horizon", dest="horizon", type=int, help="slots per run")
    runs.add_argument("--seed", dest="seed", type=int, action="append", help="repeatable RNG seed")
    axis = argparse.ArgumentParser(add_help=False)
    axis.add_argument("--axis", dest="axis", choices=list(AXES), help="model parameter to vary")
    axis.add_argument("--grid", dest="grid", type=_csv_floats, help="comma-separated axis values")

    sub.add_parser("solve", parents=[common], help="solve and emit thresholds + policy grid")

    sim = sub.add_parser("simulate", parents=[common, runs], help="Monte Carlo run of one policy")
    sim.add_argument("--policy", dest="policy", choices=["optimal", "zero-wait", "periodic"])

    cmp_ = sub.add_parser(
        "compare", parents=[common, axis, runs], help="optimal vs baselines along an axis"
    )
    cmp_.add_argument(
        "--simulate",
        dest="simulate_also",
        action="store_true",
        default=None,
        help="append Monte Carlo rows for each policy and seed",
    )

    sub.add_parser("sweep", parents=[common, axis], help="thresholds and gain along an axis")
    sub.add_parser("verify", parents=[common], help="solve and run the structural checks")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command](cfg)
    except (CliUsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except SOLVE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
