"""Alternating before/after benchmark pairs, written as one BENCH_<n>.json.

Run it with the change in the working tree of a checkout:

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 \\
        --note "what the change does" --out BENCH_15.json

Both sides run from fresh copies in one temporary directory, as they would
from two new checkouts: the parent commit's files come from ``git archive``
(so nothing is left registered in the repository), and the change's are the
working tree's files that git tracks or would track. For every workload in
``BENCHMARK.json``, each of ``--pairs`` pairs runs ``perfbench/run.py
--trace 0`` once in each tree, one process at a time, at perfbench's own run
length; the first pair and every other one after it run the parent first,
the rest the change first, and the i-th pair (from 0) uses seed
``--seed-base`` + i on both sides. Half as many pairs (at least one) of
``--trace 1`` runs give the per-layer metrics, and ``--pairs`` pairs of
fresh processes time ``modified_via`` at the two fixed points and at the
large one with weight 100, and ``evaluate_exact`` at the large one, for
ZeroWait, ``Periodic(5)``, ``Periodic(20)`` and the ``Optimal`` policy
``modified_via`` returns, solved once per process before the timed calls
(best of a few calls each).
The same four evaluations run again with the large point's age cap at
1600, four times its own (n = 161 600): the exact evaluator works on the
untruncated chain, so its time should not grow with ``delta_max``.
One more timing, ``exact_first_call_n40400_s``, is a single
``evaluate_exact(ZeroWait(), m)`` at the large point with no call before it
in its process: a best-of-N time hides one-time costs such as a module the
first call imports, and this one shows them.

For every metric the output holds each side's per-pair values, median,
quartiles (``statistics.quantiles``, n = 4) and IQR, and the pairs each
side wins, by the metric's ``better`` direction in ``BENCHMARK.json``
(lower for the in-process times); ties count for neither side.

Standard library only; the package under test needs numpy and scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

POINT = dict(lambda_e=0.5, p_block=0.2, cost_reliable=2.0, weight=10.0)
REFERENCE = dict(battery_cap=20, delta_max=200)
LARGE = dict(battery_cap=100, delta_max=400)
WIDE = dict(LARGE, delta_max=1600)
# each in-process timing: the model point, the calls per process, the setup
# run once before them and the timed call
OPTIMAL = "optimal = modified_via(m)[1]"
FIXED_POINTS = {
    "modified_via_n4200_s": (REFERENCE, 5, "", "modified_via(m, 1e-9, 100_000)"),
    "modified_via_n40400_s": (LARGE, 2, "", "modified_via(m, 1e-9, 100_000)"),
    # the point where policy iteration reuses the most of each evaluation
    "modified_via_n40400_w100_s": (dict(LARGE, weight=100.0), 2, "",
                                   "modified_via(m, 1e-9, 100_000)"),
    "exact_optimal_n40400_s": (LARGE, 5, OPTIMAL, "evaluate_exact(optimal, m)"),
    "exact_zero_wait_n40400_s": (LARGE, 5, "", "evaluate_exact(ZeroWait(), m)"),
    "exact_periodic5_n40400_s": (LARGE, 5, "", "evaluate_exact(Periodic(5), m)"),
    "exact_periodic20_n40400_s": (LARGE, 3, "", "evaluate_exact(Periodic(20), m)"),
    "exact_first_call_n40400_s": (LARGE, 1, "", "evaluate_exact(ZeroWait(), m)"),
    "exact_optimal_n161600_s": (WIDE, 5, OPTIMAL, "evaluate_exact(optimal, m)"),
    "exact_zero_wait_n161600_s": (WIDE, 5, "", "evaluate_exact(ZeroWait(), m)"),
    "exact_periodic5_n161600_s": (WIDE, 5, "", "evaluate_exact(Periodic(5), m)"),
    "exact_periodic20_n161600_s": (WIDE, 3, "", "evaluate_exact(Periodic(20), m)"),
}
IN_PROCESS = """
import sys, time
sys.path.insert(0, {src!r})
from ehaoi import ModelParams, Periodic, ZeroWait, evaluate_exact, modified_via
m = ModelParams(**{point!r})
{setup}
times = []
for _ in range({calls}):
    t = time.perf_counter()
    {call}
    times.append(time.perf_counter() - t)
print(min(times))
"""


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _extract(rev: str, dest: Path) -> None:
    """The files of commit ``rev`` under ``dest``."""
    with subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if proc.returncode:
        raise SystemExit(f"git archive {rev} failed")


def _copy_worktree(dest: Path) -> None:
    """The working tree's tracked and not ignored files under ``dest``."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def _perfbench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in ``tree``: its result line and environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise SystemExit(f"perfbench failed in {tree}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {
        "env": json.loads(lines[-2])["env"],
        "correct": result["correct"],
        "failed": result["failed"],
        "values": {k: v["value"] for k, v in result["metrics"].items()},
    }


def _in_process(tree: Path, name: str) -> float:
    point, calls, setup, call = FIXED_POINTS[name]
    code = IN_PROCESS.format(src=str(tree / "src"), point={**POINT, **point}, calls=calls,
                             setup=setup, call=call)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    if proc.returncode:
        raise SystemExit(f"in-process timing failed in {tree}:\n{proc.stderr}")
    return float(proc.stdout)


def _pairs(n: int, trees: dict[str, Path], run) -> list[dict]:
    """``n`` pairs of ``run(tree, pair index)``, alternating which side runs
    first."""
    pairs = []
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"order": f"{order[0]} first"}
        for side in order:
            pair[side] = run(trees[side], i)
        pairs.append(pair)
    return pairs


def _stats(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def _summary(pairs: list[dict], values, better: dict[str, str]) -> dict:
    """Per metric: both sides' values and statistics and the pairs each
    side wins. ``values(side result)`` gives {metric: value}."""
    names = [k for k in values(pairs[0]["parent"]) if k in values(pairs[0]["change"])]
    out = {}
    for name in names:
        sides = {s: [values(p[s]).get(name) for p in pairs] for s in ("parent", "change")}
        if any(v is None for runs in sides.values() for v in runs):
            continue
        sign = 1 if better.get(name, "lower") == "lower" else -1
        wins = {"parent": 0, "change": 0}
        for a, b in zip(sides["parent"], sides["change"]):
            if a != b:
                wins["change" if sign * (b - a) < 0 else "parent"] += 1
        entry = {s: _stats(runs) for s, runs in sides.items()}
        base = entry["parent"]["median"]
        entry["wins"] = wins
        entry["median_change_rel"] = (entry["change"]["median"] - base) / base if base else None
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="commit to compare against")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload (half as many traced)")
    ap.add_argument("--seed-base", type=int, default=0)
    ap.add_argument("--note", default="", help="what the change does")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    parent = _git("rev-parse", args.parent)
    report: dict = {"change": args.note, "parent_commit": parent}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        _extract(parent, trees["parent"])
        _copy_worktree(trees["change"])
        for key, trace, n in (("perfbench", 0, args.pairs), ("trace", 1, max(1, args.pairs // 2))):
            section = {
                "command": f"python3 perfbench/run.py --workload <w> --seed <s> --trace {trace}",
                "workloads": {},
            }
            for w in workloads:
                pairs = _pairs(n, trees, lambda tree, i, w=w: _perfbench(
                    tree, w, args.seed_base + i, trace))
                report.setdefault("host", pairs[0]["parent"]["env"])
                section["workloads"][w] = {
                    "seeds": [args.seed_base + i for i in range(n)],
                    "correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
                    "order": [p["order"] for p in pairs],
                    "metrics": _summary(pairs, lambda r: r["values"], better),
                }
            report[key] = section
        pairs = _pairs(args.pairs, trees, lambda tree, i: {
            name: _in_process(tree, name) for name in FIXED_POINTS})
        report["in_process"] = {
            "command": "a fresh process per side, pair and timing, OpenBLAS one "
                       "thread: the best of `calls` calls after the setup",
            "timings": {name: {"point": {**POINT, **point}, "calls": calls, "setup": setup,
                               "call": call}
                        for name, (point, calls, setup, call) in FIXED_POINTS.items()},
            "order": [p["order"] for p in pairs],
            "metrics": _summary(pairs, lambda r: r, {}),
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
