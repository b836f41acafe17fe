"""One benchmark process: import the CLI, optionally trace it, run one command.

    python3 perfbench/worker.py import
    python3 perfbench/worker.py run   '<spec json>'
    python3 perfbench/worker.py trace '<spec json>'

``run.py`` starts this in a fresh interpreter for every measurement, so no
cache survives from one command to the next. The package is imported from
the checkout's ``src/``. The spec holds ``argv`` (the CLI arguments),
``points`` (the ModelParams fields of every grid point), ``probe`` (the
kind of speed-probe work, ``python`` or ``mixed``) and ``run_id``. The
last line of standard output is one JSON object.

``import`` times ``import ehaoi.cli`` and stops. ``run`` times
``ehaoi.cli.main(argv)`` with tracing off. ``trace`` first builds the kernel
of every grid point under a span, then runs the command with a timing
wrapper rebound over each public function the CLI calls into. Spans stay in
memory and are printed at the end.

Every timed section runs under a ``SpeedProbe``, which measures how fast the
CPU ran the process during that section. ``setup_s`` and ``wall_s`` are the
section's time rescaled to a fixed reference speed (see ``SpeedProbe``); the
raw time is printed beside them.
"""

from __future__ import annotations

import importlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE_EVERY_S = 0.05   # CPU time between two probe loops during a section
PROBE_EDGE = 10        # probe loops run just before and just after a section
PROBE_STEPS = 3000     # steps of the Python part of one probe loop
PROBE_SWEEPS = 3       # sweeps of the numpy part of one mixed probe loop
# Duration of one probe loop at the reference speed: its typical time on a
# 2-vCPU Intel Xeon VM under Python 3.11, numpy 2.4 and scipy 1.17. A scaled
# time is in seconds at that speed.
PROBE_REF_S = {"python": 6.1e-4, "mixed": 1.8e-3}

_PROBE_BITS = [i & 1 for i in range(1024)]


def _probe_step(a: int, q: int) -> bool:
    return a > 40 or (q > 0 and a > 3)


def python_work() -> None:
    """A fixed pure-Python loop, shaped like the simulator's per-slot step."""
    a = q = 0
    for t in range(PROBE_STEPS):
        if _probe_step(a & 127, q) and q > 0:
            q -= 1
        else:
            q += _PROBE_BITS[t & 1023]
        if q > 20:
            q = 20
        a += 1


def mixed_work():
    """The Python loop, then a few sweeps shaped like the solver's and the
    evaluator's: a sparse matrix-vector product on 4200 states and a minimum
    over actions. Needs numpy and scipy, so it is built only after the
    import."""
    import numpy as np
    from scipy import sparse

    n = 4200
    kernel = sparse.random(n, n, density=5 / n, format="csr", random_state=1)
    rng = np.random.default_rng(0)
    values, costs = rng.random(n), rng.random((n, 4))

    def work() -> None:
        python_work()
        for _ in range(PROBE_SWEEPS):
            kernel @ values + costs.min(axis=1)

    return work


class SpeedProbe:
    """Measures the CPU's speed while a section of this process runs.

    The host's CPU speed drifts by tens of percent within seconds, and each
    vCPU drifts on its own, so a reference loop run at another time or in
    another process does not see the speed the section saw. This probe runs
    a fixed piece of work every PROBE_EVERY_S of this process's CPU time (a
    SIGPROF handler, which Python runs between bytecodes on the main
    thread), plus PROBE_EDGE times just before and after the section.
    ``scaled(raw)`` removes the probe's own time from ``raw`` and rescales
    it by the work's PROBE_REF_S over its mean duration. A change to the
    program does not change the probe's work, so it moves the scaled time
    as much as the raw one.
    """

    def __init__(self, kind: str, work):
        self.ref_s = PROBE_REF_S[kind]
        self.work = work
        self.samples: list[float] = []
        self.inside = 0.0   # probe time spent inside the section
        self._loop()        # warm the work's code and data before it is timed

    def _loop(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def _sample(self, signum=None, frame=None) -> None:
        took = self._loop()
        self.samples.append(took)
        self.inside += took

    def __enter__(self):
        for _ in range(PROBE_EDGE):
            self.samples.append(self._loop())
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        for _ in range(PROBE_EDGE):
            self.samples.append(self._loop())
        return False

    def scaled(self, raw: float) -> float:
        return (raw - self.inside) * self.ref_s / statistics.fmean(self.samples)

    def record(self) -> dict:
        return {"probe_loops": len(self.samples),
                "probe_mean_s": statistics.fmean(self.samples),
                "probe_inside_s": self.inside,
                "probe_samples": self.samples}


# (module, public name, span name) of each layer boundary the CLI crosses.
# A name that no longer exists is skipped and reported as missing.
BOUNDARIES = (
    ("ehaoi.cli", "modified_via", "solver"),
    ("ehaoi.cli", "evaluate_exact", "evaluator.exact"),
    ("ehaoi.cli", "evaluate_periodic_exact", "evaluator.periodic"),
    ("ehaoi.cli", "simulate", "evaluator.sim"),
    ("ehaoi.evaluator", "stationary_actions", "policies.actions"),
)
EXACT_KIND = {"Optimal": "optimal", "ZeroWait": "zero_wait"}


class Tracer:
    """In-memory spans: name, start, end, parent span, run id, counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": 0.0,
            "end": 0.0,
            "counts": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        _count(span, result)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span_name = name
            if name == "evaluator.exact" and args:
                kind = type(args[0]).__name__
                span_name = f"{name}_{EXACT_KIND.get(kind, kind.lower())}"
            return self.call(span_name, fn, *args, **kwargs)

        return traced


def _count(span: dict, result) -> None:
    """Work counts read off a layer's return value, where it carries them."""
    counts = span["counts"]
    if span["name"] == "solver" and isinstance(result, tuple) and result:
        for key, attr in (("sweeps", "iterations"), ("argmin_evals", "argmin_evals")):
            value = getattr(result[0], attr, None)
            if isinstance(value, int):
                counts[key] = value
    elif span["name"] == "evaluator.sim":
        horizon = getattr(result, "horizon", None)
        if isinstance(horizon, int):
            counts["slots"] = horizon
    elif span["name"] == "model.kernel":
        counts["bytes"] = sum(
            getattr(v, "nbytes", 0) for v in getattr(result, "__dict__", {}).values()
        )


def _install(tracer: Tracer) -> dict[str, str]:
    """Rebind every boundary that exists; return {span name: missing name}."""
    missing = {}
    for module_name, attr, span_name in BOUNDARIES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing[span_name] = f"{module_name}.{attr}"
        else:
            setattr(module, attr, tracer.wrap(span_name, fn))
    return missing


def _record_simulations(cli) -> list[list[float]]:
    """Keep every simulator report at full precision for the output check."""
    reports: list[list[float]] = []
    simulate = getattr(cli, "simulate", None)
    if simulate is None:
        return reports

    def recorded(*args, **kwargs):
        rep = simulate(*args, **kwargs)
        reports.append(
            [rep.average_cost, rep.average_aoi, rep.reliable_energy_rate, rep.ci_halfwidth]
        )
        return rep

    cli.simulate = recorded
    return reports


def main(argv: list[str]) -> int:
    mode = argv[0]
    sys.path.insert(0, str(SRC))
    # numpy is not loaded yet, and loading it is part of what is timed
    with SpeedProbe("python", python_work) as probe:
        t0 = time.perf_counter()
        import ehaoi.cli as cli

        raw = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ehaoi.cli was imported from {cli.__file__}, not from {SRC}")
    out: dict = {
        "setup_s": probe.scaled(raw),
        "setup_raw_s": raw,
        "setup_probe": probe.record(),
        "versions": {name: sys.modules[name].__version__ for name in ("numpy", "scipy")},
    }
    if mode == "import":
        print(json.dumps(out))
        return 0

    spec = json.loads(argv[1])
    reports = _record_simulations(cli)
    # the probe's work is shaped like the work that dominates the workload
    kind = spec["probe"]
    work = python_work if kind == "python" else mixed_work()
    if mode == "run":
        with SpeedProbe(kind, work) as probe:
            t0 = time.perf_counter()
            out["exit_code"] = cli.main(spec["argv"])
            raw = time.perf_counter() - t0
    else:
        import ehaoi

        tracer = Tracer(spec["run_id"])
        out["missing"] = _install(tracer)
        kernel_arrays = getattr(ehaoi, "kernel_arrays", None)
        if kernel_arrays is None:
            out["missing"]["model.kernel"] = "ehaoi.kernel_arrays"
        with SpeedProbe(kind, work) as probe:
            t0 = time.perf_counter()
            for point in spec["points"] if kernel_arrays else ():
                tracer.call("model.kernel", kernel_arrays, ehaoi.ModelParams(**point))
            out["exit_code"] = tracer.call("cli", cli.main, spec["argv"])
            raw = time.perf_counter() - t0
        out["spans"] = tracer.spans
    out["wall_s"] = probe.scaled(raw)
    out["wall_raw_s"] = raw
    out["wall_probe"] = probe.record()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["simulations"] = reports
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
