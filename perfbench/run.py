"""Benchmark of the ehaoi command line: two workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare-large --seed 0 --seconds 30 --trace 0

Each measurement is a fresh interpreter (``worker.py``) that imports
``ehaoi.cli`` from ``src/`` and calls ``ehaoi.cli.main(argv)``; the load
comes from that one process at a time. Every command's CSV is checked
against ``expected/``, recorded at the commit that introduced the
benchmark, and each failed row counts against ``ok_rate``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time to
import ``ehaoi.cli``, which pulls in numpy and scipy, over several fresh
processes), and the medians over the run of ``wall_s`` (time for the command
to write its CSV), ``peak_rss_mb`` and ``ok_rate``. Both times are rescaled
to a reference CPU speed that the worker measures while it works (see
``worker.SpeedProbe``), because the shared host's speed drifts more from
minute to minute than the bounds allow. ``--trace 1`` runs the
command once untraced and once traced, and prints the per-layer metrics
computed from the spans, plus ``trace.overhead_s``.

The last line of standard output is the result as one JSON object; the line
before it gives the environment. Everything else, including every span,
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"

DEADLINE_S = 170.0   # a run must end within 180 s
SETUP_PROBES = 5     # fresh imports per run; setup_s is their median
DEFAULT_SEED = 0     # the seed whose simulate CSV must match expected/ bit for bit
SIM_SEEDS = 10       # simulator seeds per simulate-ref command
HORIZON = 1_000_000
EXACT_ATOL = 1e-10   # exact averages must stay within this of expected/

REFERENCE = {
    "lambda_e": 0.5,
    "p_block": 0.2,
    "battery_cap": 20,
    "cost_reliable": 2.0,
    "weight": 10.0,
    "delta_max": 200,
}
LARGE = dict(REFERENCE, battery_cap=100, delta_max=400)


def _flags(params: dict) -> list[str]:
    """CLI flags pinning every model field and the stopping tolerance."""
    argv = []
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv + ["--eps", "1e-09"]


def _compare(params: dict, grid: list[float]) -> dict:
    return {
        "argv": ["compare", *_flags(params), "--axis", "weight",
                 "--grid", ",".join(f"{w:g}" for w in grid), "--period", "5"],
        "points": [dict(params, weight=w) for w in grid],
        "rows": 3 * len(grid),
        "probe": "mixed",
    }


def _simulate(seed: int) -> dict:
    seeds = [SIM_SEEDS * seed + k for k in range(1, SIM_SEEDS + 1)]
    argv = ["simulate", *_flags(REFERENCE), "--policy", "optimal", "--horizon", str(HORIZON)]
    for s in seeds:
        argv += ["--seed", str(s)]
    return {"argv": argv, "points": [REFERENCE], "rows": SIM_SEEDS, "seeds": seeds,
            "probe": "python"}


# Why each workload exists is recorded in BENCHMARK.json and README.md, and
# why compare-ref (the README's own command at the reference point) is not
# one of them.
WORKLOADS = {
    "compare-large": lambda seed: _compare(LARGE, [10]),
    "simulate-ref": _simulate,
}


def _ulp12(x: float) -> float:
    """One unit in the 12th significant digit, the CSV's resolution."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 0.0


def _read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_compare(text: str, workload: str) -> int:
    """Failed rows: a row fails unless its status is ok and each average is
    within EXACT_ATOL of expected/, allowing for both values' CSV rounding."""
    want = _read_csv((EXPECTED / f"{workload}.csv").read_text(encoding="utf-8"))
    got = _read_csv(text)
    if len(got) != len(want) or got[0] != want[0]:
        return len(want) - 1
    return sum(not _row_matches(g, w) for w, g in zip(want[1:], got[1:]))


def _row_matches(got: list[str], want: list[str]) -> bool:
    if len(got) != len(want) or got[:2] != want[:2] or got[5] != "ok":
        return False
    try:
        return all(
            abs(float(g) - float(w)) <= EXACT_ATOL + _ulp12(float(w))
            for g, w in zip(got[2:5], want[2:5])
        )
    except ValueError:
        return False


def check_simulate(data: bytes, spec: dict, reports: list) -> int:
    """Failed rows. At the default seed the CSV must equal expected/ byte for
    byte. At other seeds each row must carry its seed and horizon, a finite
    CI half-width, and average_cost = average_aoi + weight*cost_reliable*rate
    to 1e-12 relative, on the reports at full precision when they were
    captured and otherwise on the CSV values plus their rounding."""
    if spec["seed"] == DEFAULT_SEED:
        want = (EXPECTED / "simulate-ref.csv").read_bytes()
        if data == want:
            return 0
        got, want = data.splitlines(), want.splitlines()
        if len(got) != len(want) or got[0] != want[0]:
            return spec["rows"]
        return sum(g != w for g, w in zip(got[1:], want[1:])) or spec["rows"]
    rows = _read_csv(data.decode("utf-8", errors="replace"))
    seeds = spec["seeds"]
    if len(rows) != len(seeds) + 1:
        return spec["rows"]
    full = len(reports) == len(seeds)
    return sum(
        not _sim_row_matches(row, seed, reports[i] if full else None)
        for i, (row, seed) in enumerate(zip(rows[1:], seeds))
    )


def _sim_row_matches(row: list[str], seed: int, report: list | None) -> bool:
    price = REFERENCE["weight"] * REFERENCE["cost_reliable"]
    try:
        cost, aoi, rate, ci = report if report else map(float, row[3:7])
        slack = 0.0 if report else (_ulp12(cost) + _ulp12(aoi) + price * _ulp12(rate)) / 2
        return (
            row[:3] == ["optimal", str(seed), str(HORIZON)]
            and math.isfinite(ci)
            and abs(cost - (aoi + price * rate)) <= 1e-12 * abs(cost) + slack
        )
    except (TypeError, ValueError):
        return False


def _worker(mode: str, spec: dict | None, env: dict, deadline: float) -> dict | None:
    """Run one worker process; None when it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode]
    if spec is not None:
        cmd.append(json.dumps(spec))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def _measure(mode: str, spec: dict, csv_path: Path, env: dict, deadline: float):
    """One checked command: (worker output or None, failed rows, CSV bytes)."""
    csv_path.unlink(missing_ok=True)
    out = _worker(mode, dict(spec, argv=spec["argv"] + ["--out", str(csv_path)]), env, deadline)
    if out is None or out["exit_code"] != 0 or not csv_path.is_file():
        return out, spec["rows"], 0
    data = csv_path.read_bytes()
    if spec["workload"] == "simulate-ref":
        failed = check_simulate(data, spec, out["simulations"])
    else:
        failed = check_compare(data.decode("utf-8", errors="replace"), spec["workload"])
    return out, failed, len(data)


def layer_metrics(spans: list[dict], missing: dict[str, str]) -> dict:
    """Per-layer self times and counts from the spans of one traced command.

    A layer's self time is its spans' time minus that of their child spans.
    A metric is absent when the public function behind its span (a key of
    ``missing``) no longer exists, or when its layer ran but no longer
    reports the count it needs. A layer idle on this workload reads 0.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    busy = defaultdict(float)
    counts: dict[str, int] = {}
    for s in spans:
        busy[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        for key, value in s["counts"].items():
            key = f"{s['name']}.{key}"
            # every grid point's kernel has the same size: report one
            merge = max if key == "model.kernel.bytes" else int.__add__
            counts[key] = merge(counts.get(key, 0), value)
    ran = {s["name"] for s in spans}

    def count(key: str) -> int | None:
        layer = key.rsplit(".", 1)[0]
        return None if layer in ran and key not in counts else counts.get(key, 0)

    def per(total: float, n: int | None, scale: float) -> float | None:
        return None if n is None else (total / n * scale if n else 0.0)

    sweeps, slots = count("solver.sweeps"), count("evaluator.sim.slots")
    values = {
        "model.kernel_s": busy["model.kernel"],
        "model.kernel_bytes": count("model.kernel.bytes"),
        "solver.solve_s": busy["solver"],
        "solver.sweeps": sweeps,
        "solver.us_per_sweep": per(busy["solver"], sweeps, 1e6),
        "solver.argmin_evals": count("solver.argmin_evals"),
        "policies.actions_s": busy["policies.actions"],
        "evaluator.exact_optimal_s": busy["evaluator.exact_optimal"],
        "evaluator.exact_zero_wait_s": busy["evaluator.exact_zero_wait"],
        "evaluator.periodic_s": busy["evaluator.periodic"],
        "evaluator.sim_s": busy["evaluator.sim"],
        "evaluator.sim_ns_per_slot": per(busy["evaluator.sim"], slots, 1e9),
        "evaluator.sim_slots": slots,
        "cli.self_s": busy["cli"],
    }
    return {
        name: value
        for name, value in values.items()
        if value is not None and not any(name.startswith(span) for span in missing)
    }


def _cache_size(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _environment() -> tuple[dict, dict]:
    """Child environment, and the record of it printed with every result."""
    child = dict(os.environ)
    # One thread: all of a command's work then runs on the vCPU whose speed
    # the worker's probe measures, and the load is one thread of one process.
    child["OPENBLAS_NUM_THREADS"] = "1"
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "openblas_threads": int(child["OPENBLAS_NUM_THREADS"]),
        "l2_bytes": _cache_size("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _cache_size("LEVEL3_CACHE_SIZE"),
    }
    return child, record


def _units(section: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[section]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    deadline = time.monotonic() + DEADLINE_S
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec = dict(WORKLOADS[args.workload](args.seed),
                workload=args.workload, seed=args.seed, run_id=run_name)
    env, record = _environment()
    out_dir = HERE / "out" / run_name
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "out.csv"
    log: dict = {"workload": args.workload, "seed": args.seed, "argv": spec["argv"]}

    probe = _worker("import", None, env, deadline)
    if probe is None:
        print("error: cannot import ehaoi.cli from src/", file=sys.stderr)
        return 1
    record.update(probe["versions"])

    attempted = failed = 0
    samples = []
    if args.trace:
        plain, bad, _ = _measure("run", spec, csv_path, env, deadline)
        traced, bad_traced, csv_bytes = _measure("trace", spec, csv_path, env, deadline)
        attempted, failed = 2 * spec["rows"], bad + bad_traced
        if plain is None or traced is None:
            print("error: the workload process failed", file=sys.stderr)
            return 1
        values = layer_metrics(traced["spans"], traced["missing"])
        values["cli.csv_bytes"] = csv_bytes
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        log.update(untraced=plain, traced=traced, layers=values)
        units = _units("per_layer")
    else:
        setup = [probe["setup_s"]]
        for _ in range(SETUP_PROBES - 1):
            p = _worker("import", None, env, deadline)
            if p is not None:
                setup.append(p["setup_s"])
        start = time.monotonic()
        durations = []
        while True:
            t0 = time.monotonic()
            out, bad, _ = _measure("run", spec, csv_path, env, deadline)
            durations.append(time.monotonic() - t0)
            attempted += spec["rows"]
            failed += bad
            if out is not None:
                samples.append(out)
            now = time.monotonic()
            if (now - start + statistics.median(durations) > args.seconds
                    or now + max(durations) > deadline):
                break
        if not samples:
            print("error: every workload process failed", file=sys.stderr)
            return 1
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(s["wall_s"] for s in samples),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "ok_rate": 1.0 - failed / attempted,
        }
        log.update(setup_samples=setup, samples=samples)
        units = _units("end_to_end")

    log["env"] = record
    (out_dir / "result.json").write_text(json.dumps(log, indent=1), encoding="utf-8")
    print(json.dumps({"env": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
