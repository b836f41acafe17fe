"""The names the benchmark traces, and the counts it reads, exist.

``perfbench/worker.py`` times each layer by rebinding a module-global name
(its ``BOUNDARIES``, plus ``ehaoi.kernel_arrays``) and reads the solver's
work counts off ``SolveResult``. A name that moves, or a count that stops
being an int, does not make the benchmark fail: its per-layer metric just
drops out of the traced result. These tests fail instead. The worker is
imported read-only from its file; importing it has no side effects.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import ehaoi
import ehaoi.cli
from ehaoi import ModelParams, modified_via

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(worker):
    for module_name, attr, span in worker.BOUNDARIES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} (span {span}) is gone"
    assert callable(getattr(ehaoi, "kernel_arrays", None))


def test_solver_counts_are_ints():
    m = ModelParams(0.5, 0.2, 3, 2.0, 10.0, delta_max=40)
    res, _ = modified_via(m, eps=1e-9)
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
