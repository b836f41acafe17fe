"""Solve a grid of 200 models, then the same grid at larger battery caps,
and print a digest of each result; then digest a set of seeded simulations.

    python3 tools/scan_solver.py

The grid is lambda_e and p_block in {0.05, 0.2, 0.5, 0.8, 0.95}, weight in
{0.5, 10, 100, 1000} and battery_cap in {5, 20}, at cost_reliable 2 and
delta_max 200, solved at eps 1e-9 with the solver's cap on evaluations.
Each model gets one line: its parameters, ``ok`` or the name of the error
``modified_via`` raised, and the SHA-256 of the ``repr`` of its gain,
thresholds, iterations and gain bracket (or of the error's message). The
``all`` line is the SHA-256 of all the lines before it. Two checkouts that
print the same line for a model solve it alike, bit for bit. The
``results`` line is the SHA-256 of every model's gain, thresholds and gain
bracket (or of its error's class name), without the iterations: a change
to the search path alone moves the ``all`` line and leaves this one.

Each grid also evaluates, per model, the solved Optimal policy (where the
solve succeeded), ZeroWait and ``Periodic(5)`` with ``evaluate_exact``.
The ``exact`` line is the SHA-256 of the ``repr`` of those reports'
average cost, average age and paid rate (or of the error's class name),
and ``exact-csv`` the SHA-256 of the same values formatted ``%.12g``, as
the CSV writes them: a change to the exact evaluator's rounding alone moves
the first, and the second only where a value's twelfth digit moves.

After the digests, the ``evals`` line is the total number of policy
evaluations over the models that solve, so a change to the search states
its cost in one line.

The same grid at battery_cap 50 and 100 follows (another 200 models, some
of which raise ConvergenceError), with its own ``all-large``,
``results-large``, ``exact-large``, ``exact-csv-large`` and ``evals-large``
lines, so the first four digests keep covering the first 200 models only.

The large grid's digests depend on the BLAS thread count, so the script
sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads, and prints the count as
a ``threads`` line after each grid's digests.

Last come two digests of 96 seeded ``simulate`` runs at lambda_e 0.5,
p_block 0.2: at battery_cap 20 (delta_max 200) and 100 (delta_max 400),
at the paid prices 20, 0.6 and 0.51, the Optimal policy ``modified_via``
returns there, ZeroWait and ``Periodic(5)`` with and without skip, each at
horizons 19, 20, 5003 and 10**5, the i-th run with seed i. The ``sim`` line
is the SHA-256 of the ``repr`` of every field of their reports, and
``sim-avg`` of every field but ``ci_halfwidth``: a change to the batch
sums alone moves the first, and one to the streams or the averages both.

The package is imported from the ``src`` directory next to this script, so
the script measures the checkout it lives in. Standard library plus the
package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before the package loads numpy
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ehaoi import (  # noqa: E402
    ModelParams,
    Periodic,
    ZeroWait,
    evaluate_exact,
    modified_via,
    simulate,
)

PROBS = (0.05, 0.2, 0.5, 0.8, 0.95)
WEIGHTS = (0.5, 10.0, 100.0, 1000.0)
CAPS = (5, 20)
LARGE_CAPS = (50, 100)
# the simulated runs: (battery_cap, delta_max), (cost_reliable, weight)
# for the paid prices 20, 0.6 and 0.51, and the horizons
SIM_POINTS = ((20, 200), (100, 400))
SIM_PRICES = ((2.0, 10.0), (2.0, 0.3), (1.7, 0.3))
SIM_HORIZONS = (19, 20, 5003, 10**5)


def result_digest(m: ModelParams) -> tuple[str, str, str, list, int]:
    """(``ok`` or the error's class name, SHA-256 of the result's repr, the
    repr of the result without its iterations, the policies to evaluate
    exactly: the solved one if any, ZeroWait and Periodic(5), the policy
    evaluations of a solve that succeeded or 0)."""
    kinds = [ZeroWait(), Periodic(5)]
    try:
        res, tp = modified_via(m, eps=1e-9)
    except RuntimeError as exc:  # ConvergenceError among them
        status = type(exc).__name__
        return status, hashlib.sha256(str(exc).encode()).hexdigest(), status, kinds, 0
    fields = (res.gain, tp.thresholds, res.iterations, res.gain_bracket)
    result = (res.gain, tp.thresholds, res.gain_bracket)
    return ("ok", hashlib.sha256(repr(fields).encode()).hexdigest(), repr(result), [tp] + kinds,
            res.iterations)


def exact_values(kind, m: ModelParams) -> tuple | str:
    """``evaluate_exact``'s average cost, average age and paid rate, or the
    name of the error it raised."""
    try:
        r = evaluate_exact(kind, m)
    except RuntimeError as exc:  # UnboundedAgeError among them
        return type(exc).__name__
    return r.average_cost, r.average_aoi, r.reliable_energy_rate


def scan(caps: tuple[int, ...], suffix: str) -> None:
    """Print each model's line on the grid at ``caps``, then the ``all``,
    ``results``, ``exact`` and ``exact-csv`` digests and the ``evals`` total
    with ``suffix`` appended to their names."""
    total = hashlib.sha256()
    results = hashlib.sha256()
    exact = hashlib.sha256()
    exact_csv = hashlib.sha256()
    evals = 0
    for lam, p, w, cap in itertools.product(PROBS, PROBS, WEIGHTS, caps):
        m = ModelParams(lambda_e=lam, p_block=p, battery_cap=cap,
                        cost_reliable=2.0, weight=w, delta_max=200)
        status, digest, result, kinds, iterations = result_digest(m)
        evals += iterations
        line = f"lambda_e={lam} p_block={p} weight={w:g} battery_cap={cap} {status} {digest}"
        print(line, flush=True)
        total.update(line.encode() + b"\n")
        results.update(result.encode() + b"\n")
        for kind in kinds:
            values = exact_values(kind, m)
            exact.update(repr(values).encode() + b"\n")
            csv = values if isinstance(values, str) else " ".join(format(x, ".12g") for x in values)
            exact_csv.update(csv.encode() + b"\n")
    print(f"all{suffix} {total.hexdigest()}")
    print(f"results{suffix} {results.hexdigest()}")
    print(f"exact{suffix} {exact.hexdigest()}")
    print(f"exact-csv{suffix} {exact_csv.hexdigest()}")
    print(f"evals{suffix} {evals}")
    print(f"threads{suffix} {os.environ['OPENBLAS_NUM_THREADS']}")


def sims() -> None:
    """Print the ``sim`` and ``sim-avg`` digests of the simulated runs."""
    every = hashlib.sha256()
    averages = hashlib.sha256()
    seed = 0
    for (cap, delta_max), (c, w) in itertools.product(SIM_POINTS, SIM_PRICES):
        m = ModelParams(lambda_e=0.5, p_block=0.2, battery_cap=cap,
                        cost_reliable=c, weight=w, delta_max=delta_max)
        kinds = [modified_via(m)[1], ZeroWait(), Periodic(5), Periodic(5, skip_on_empty=True)]
        for kind, horizon in itertools.product(kinds, SIM_HORIZONS):
            r = simulate(kind, m, horizon, seed)
            seed += 1
            fields = dataclasses.asdict(r)
            every.update(repr(fields).encode() + b"\n")
            del fields["ci_halfwidth"]
            averages.update(repr(fields).encode() + b"\n")
    print(f"sim {every.hexdigest()}")
    print(f"sim-avg {averages.hexdigest()}")


def main() -> int:
    scan(CAPS, "")
    scan(LARGE_CAPS, "-large")
    sims()
    return 0


if __name__ == "__main__":
    sys.exit(main())
