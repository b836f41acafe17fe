"""Alternating before/after benchmark pairs, written as one BENCH_<n>.json.

Run it with the change in the working tree of a checkout:

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 \\
        --note "what the change does" --out BENCH_15.json

Both sides run from fresh copies in one temporary directory, as they would
from two new checkouts, and one routine writes both: it unpacks a tar
stream, which for the parent commit is ``git archive``'s (so nothing is left
registered in the repository) and for the change is made from the working
tree's files that git tracks or would track. For every workload in
``BENCHMARK.json``, each of ``--pairs`` pairs runs ``perfbench/run.py
--trace 0`` once in each tree, one process at a time, at perfbench's own run
length; the first pair and every other one after it run the parent first,
the rest the change first, and the i-th pair (from 0) uses seed
``--seed-base`` + i on both sides. The two trees also swap directories (by
renaming) every two pairs, so each side runs from both paths and in both
orders from each. As many pairs of ``--trace 1`` runs give the per-layer
metrics, and ``--pairs`` pairs of fresh processes time ``modified_via`` at
the two fixed points and at the large one with weight 100, and
``evaluate_exact`` at the large one, for
ZeroWait, ``Periodic(5)``, ``Periodic(20)`` and the ``Optimal`` policy
``modified_via`` returns, solved once per process before the timed calls.
Each timing is the median wall time (``time.perf_counter``) of
``CALLS`` calls after one untimed call, which builds what later calls
reuse.
The same four evaluations run again with the large point's age cap at
1600, four times its own (n = 161 600): the exact evaluator works on the
untruncated chain, so its time should not grow with ``delta_max``.
One more timing, ``exact_first_call_n40400_s``, is a single
``evaluate_exact(ZeroWait(), m)`` at the large point with no call before it
in its process: the untimed call hides one-time costs such as a module the
first call imports, and this one shows them. Four timings are one
10**6-slot ``simulate`` each: the solved ``Optimal`` at the reference point
(231 machine states, bytes rows) and at the large one (1111 states, tuple
rows, 3-slot blocks), and ``Periodic(5)`` at the reference point (3-bit
symbols), all three at the paid price 20; and the solved ``Optimal`` at
the reference point with weight 0.3, at the price 0.6, which is neither
whole nor dyadic. The untimed call builds the machine, and the timed ones
reuse it. The last timing, ``cli_simulate_10_seeds_n4200_s``, is one
``ehaoi.cli.main`` call of the ``simulate`` command at the reference point
with ten 10**6-slot seeds, the solve included and its stdout discarded:
the command's spread of its seeds over forked processes, and what the
forks cost, show in it as they do in perfbench's ``simulate-ref``.
Each side takes only the setup and call
snippets of its ``FIXED_POINTS`` entry from its own tree's copy of this
script, so a change to a name a snippet calls still times both sides as
committed; a timing the parent's copy lacks uses this copy's snippets. The
model point, the number of calls and the statistic come from the running
script, so both sides of a pair are timed alike.

For every metric the output holds each side's per-pair values, median,
quartiles (``statistics.quantiles``, n = 4) and IQR, and the pairs each
side wins, by the metric's ``better`` direction in ``BENCHMARK.json``
(lower for the in-process times); ties count for neither side.

Standard library only; the package under test needs numpy and scipy.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import runpy
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
CALLS = 9  # timed calls per process, after one untimed call
# each in-process timing: the model point, the timed calls per process
# (CALLS, or 1 for a first call with none before it), the setup run once
# before them and the timed call
OPTIMAL = "optimal = modified_via(m)[1]"
# the simulate command at the model point: ten 10**6-slot seeds, as
# perfbench's simulate-ref runs them
SIMULATE_COMMAND = """import contextlib, dataclasses, io, tempfile, ehaoi.cli
tmp = tempfile.TemporaryDirectory()
argv = ["simulate", "--horizon", "1000000", "--out", tmp.name + "/runs.csv"]
argv += [f"--seed={s}" for s in range(1, 11)]
argv += ["--" + k.replace("_", "-") + "=" + str(v) for k, v in dataclasses.asdict(m).items()]"""
FIXED_POINTS = {
    "modified_via_n4200_s": (REFERENCE, CALLS, "", "modified_via(m, 1e-9)"),
    "modified_via_n40400_s": (LARGE, CALLS, "", "modified_via(m, 1e-9)"),
    # the point where policy iteration reuses the most of each evaluation
    "modified_via_n40400_w100_s": (dict(LARGE, weight=100.0), CALLS, "",
                                   "modified_via(m, 1e-9)"),
    "exact_optimal_n40400_s": (LARGE, CALLS, OPTIMAL, "evaluate_exact(optimal, m)"),
    "exact_zero_wait_n40400_s": (LARGE, CALLS, "", "evaluate_exact(ZeroWait(), m)"),
    "exact_periodic5_n40400_s": (LARGE, CALLS, "", "evaluate_exact(Periodic(5), m)"),
    "exact_periodic20_n40400_s": (LARGE, CALLS, "", "evaluate_exact(Periodic(20), m)"),
    "exact_first_call_n40400_s": (LARGE, 1, "", "evaluate_exact(ZeroWait(), m)"),
    "exact_optimal_n161600_s": (WIDE, CALLS, OPTIMAL, "evaluate_exact(optimal, m)"),
    "exact_zero_wait_n161600_s": (WIDE, CALLS, "", "evaluate_exact(ZeroWait(), m)"),
    "exact_periodic5_n161600_s": (WIDE, CALLS, "", "evaluate_exact(Periodic(5), m)"),
    "exact_periodic20_n161600_s": (WIDE, CALLS, "", "evaluate_exact(Periodic(20), m)"),
    "simulate_optimal_n4200_s": (REFERENCE, CALLS, OPTIMAL,
                                 "simulate(optimal, m, 10**6, 0)"),
    "simulate_optimal_n40400_s": (LARGE, CALLS, OPTIMAL, "simulate(optimal, m, 10**6, 0)"),
    "simulate_periodic5_n4200_s": (REFERENCE, CALLS, "",
                                   "simulate(Periodic(5), m, 10**6, 0)"),
    "simulate_optimal_n4200_w03_s": (dict(REFERENCE, weight=0.3), CALLS, OPTIMAL,
                                     "simulate(optimal, m, 10**6, 0)"),
    "cli_simulate_10_seeds_n4200_s": (REFERENCE, CALLS, SIMULATE_COMMAND,
                                      "with contextlib.redirect_stdout(io.StringIO()): "
                                      "ehaoi.cli.main(argv)"),
}
IN_PROCESS = """
import statistics, sys, time
sys.path.insert(0, {src!r})
from ehaoi import ModelParams, Periodic, ZeroWait, evaluate_exact, modified_via, simulate
m = ModelParams(**{point!r})
{setup}
times = []
for _ in range({calls}):
    t = time.perf_counter()
    {call}
    times.append(time.perf_counter() - t)
print(statistics.median(times[{untimed}:]))
"""


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _unpack(stream, dest: Path) -> None:
    """The files of the tar ``stream`` under ``dest``: both trees are
    written this one way."""
    with tarfile.open(fileobj=stream, mode="r|") as tar:
        tar.extractall(dest, filter="data")


def _extract(rev: str, dest: Path) -> None:
    """The files of commit ``rev`` under ``dest``."""
    with subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        _unpack(proc.stdout, dest)
    if proc.returncode:
        raise SystemExit(f"git archive {rev} failed")


def _copy_worktree(dest: Path) -> None:
    """The working tree's tracked and not ignored files under ``dest``."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    stream = io.BytesIO()
    with tarfile.open(fileobj=stream, mode="w") as tar:
        for name in filter(None, listed.split("\0")):
            if (ROOT / name).is_file():  # a tracked file may be deleted
                tar.add(ROOT / name, arcname=name)
    stream.seek(0)
    _unpack(stream, dest)


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


def _timings(tree: Path) -> dict:
    """Every ``FIXED_POINTS`` timing with the setup and call snippets of
    ``tree``'s own copy of this script, so that each side's snippets call its
    own API; a timing that copy lacks, or the whole script if it has none,
    keeps this one's. The point and the calls are always this script's."""
    script = tree / "tools" / "bench_pairs.py"
    own = runpy.run_path(str(script)).get("FIXED_POINTS", {}) if script.is_file() else {}
    return {name: (point, calls, *own.get(name, spec)[-2:])
            for name, (point, calls, *spec) in FIXED_POINTS.items()}


def _in_process(tree: Path, spec: tuple) -> float:
    """One timing in a fresh process: the median wall time of its timed
    calls, after one untimed call unless it times a single call."""
    point, calls, setup, call = spec
    untimed = int(calls > 1)
    code = IN_PROCESS.format(src=str(tree / "src"), point={**POINT, **point},
                             calls=calls + untimed, untimed=untimed, setup=setup, call=call)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    if proc.returncode:
        raise SystemExit(f"in-process timing failed in {tree}:\n{proc.stderr}")
    return float(proc.stdout)


def _swap(trees: dict[str, Path]) -> None:
    """Rename the two sides' trees into each other's directories."""
    a, b = trees["parent"], trees["change"]
    spare = a.with_name(a.name + "-swap")
    a.rename(spare)
    b.rename(a)
    spare.rename(b)
    trees["parent"], trees["change"] = b, a


def _pairs(n: int, trees: dict[str, Path], run) -> list[dict]:
    """``n`` pairs of ``run(side, tree, pair index)``, alternating which side
    runs first every pair and, by ``_swap``, which directory the parent runs
    in every two pairs: "a" for pairs 0 and 1, "b" for 2 and 3, and so on."""
    pairs = []
    for i in range(n):
        if trees["parent"].name != "ab"[i // 2 % 2]:
            _swap(trees)
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"order": f"{order[0]} first", "parent_dir": trees["parent"].name}
        for side in order:
            pair[side] = run(side, trees[side], i)
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
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload, traced and untraced")
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
        trees = {"parent": Path(tmp, "a"), "change": Path(tmp, "b")}
        _extract(parent, trees["parent"])
        _copy_worktree(trees["change"])
        for key, trace in (("perfbench", 0), ("trace", 1)):
            section = {
                "command": f"python3 perfbench/run.py --workload <w> --seed <s> --trace {trace}",
                "workloads": {},
            }
            for w in workloads:
                pairs = _pairs(args.pairs, trees, lambda side, tree, i, w=w: _perfbench(
                    tree, w, args.seed_base + i, trace))
                report.setdefault("host", pairs[0]["parent"]["env"])
                section["workloads"][w] = {
                    "seeds": [args.seed_base + i for i in range(args.pairs)],
                    "correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
                    "order": [p["order"] for p in pairs],
                    "parent_dir": [p["parent_dir"] for p in pairs],
                    "metrics": _summary(pairs, lambda r: r["values"], better),
                }
            report[key] = section
        own = {side: _timings(tree) for side, tree in trees.items()}
        pairs = _pairs(args.pairs, trees, lambda side, tree, i: {
            name: _in_process(tree, spec) for name, spec in own[side].items()})
        report["in_process"] = {
            "command": "a fresh process per side, pair and timing, OpenBLAS one "
                       "thread: the median wall time of `calls` calls after the "
                       "setup and one untimed call (none when `calls` is 1), each "
                       "side's setup and call snippets from its own "
                       "tools/bench_pairs.py",
            "timings": {side: {name: {"point": {**POINT, **point}, "calls": calls,
                                      "setup": setup, "call": call}
                               for name, (point, calls, setup, call) in own[side].items()}
                        for side in trees},
            "order": [p["order"] for p in pairs],
            "parent_dir": [p["parent_dir"] for p in pairs],
            "metrics": _summary(pairs, lambda r: r, {}),
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
