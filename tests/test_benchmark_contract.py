"""The names the benchmark traces, and the counts it reads, exist.

``perfbench/worker.py`` times each layer by rebinding a module-global name
(its ``BOUNDARIES``, plus ``ehaoi.kernel_arrays``) and reads the solver's
work counts off ``SolveResult``. A name that moves, or a count that stops
being an int, does not make the benchmark fail: its per-layer metric just
drops out of the traced result. These tests fail instead, and one runs the
worker's traced command and reads its spans as ``perfbench/run.py`` does.
Both perfbench files are imported read-only from their files; importing
them has no side effects.
"""

import dataclasses
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ehaoi
import ehaoi.cli
from ehaoi import ModelParams, modified_via

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
RUNNER = ROOT / "perfbench" / "run.py"
SMALL = ModelParams(0.5, 0.2, 3, 2.0, 10.0, delta_max=40)
SMALL_FLAGS = ["--battery-cap", "3", "--delta-max", "40"]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def worker():
    return _load(WORKER, "perfbench_worker")


@pytest.fixture(scope="module")
def runner():
    return _load(RUNNER, "perfbench_run")


def test_traced_names_resolve(worker):
    for module_name, attr, span in worker.BOUNDARIES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} (span {span}) is gone"
    assert callable(getattr(ehaoi, "kernel_arrays", None))


def test_solver_counts_are_ints():
    res, _ = modified_via(SMALL, eps=1e-9)
    assert type(res.iterations) is int
    assert type(res.argmin_evals) is int


def test_compare_crosses_every_traced_boundary(worker, tmp_path, monkeypatch):
    # each traced name is the one the command calls; the exact evaluator
    # sees only the kinds whose spans the benchmark declares
    calls = Counter()
    exact_kinds = set()

    def counted(span, fn):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            if span == "evaluator.exact":
                exact_kinds.add(type(args[0]).__name__)
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attr, span in worker.BOUNDARIES:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counted(span, getattr(module, attr)))
    out = tmp_path / "compare.csv"
    code = ehaoi.cli.main([
        "compare", "--battery-cap", "3", "--delta-max", "40", "--axis", "weight",
        "--grid", "10", "--period", "3", "--simulate", "--horizon", "100",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    assert set(calls) == {span for _, _, span in worker.BOUNDARIES}
    assert exact_kinds == set(worker.EXACT_KIND)


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--axis", "weight", "--grid", "10", "--period", "3"],
        ["simulate", "--horizon", "1000", "--seed", "1"],
    ],
    ids=["compare", "simulate"],
)
def test_traced_result_is_complete(runner, tmp_path, argv):
    # the worker's traced run, as perfbench/run.py reads it, yields every
    # per-layer metric that the spans give, each a finite number that
    # JSON can carry; run.main adds the other two itself
    spec = {
        "argv": argv + SMALL_FLAGS + ["--out", str(tmp_path / "out.csv")],
        "points": [dataclasses.asdict(SMALL)],
        "probe": "mixed" if argv[0] == "compare" else "python",
        "run_id": "contract",
    }
    proc = subprocess.run(
        [sys.executable, str(WORKER), "trace", json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["exit_code"] == 0
    assert out["missing"] == {}
    values = runner.layer_metrics(out["spans"], out["missing"])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in bench["per_layer"]} - {"cli.csv_bytes", "trace.overhead_s"}
    assert set(values) == declared
    assert all(math.isfinite(v) for v in values.values()), values
    json.dumps(values, allow_nan=False)
    if argv[0] == "compare":
        assert values["evaluator.periodic_s"] > 0
        assert values["solver.sweeps"] > 0
