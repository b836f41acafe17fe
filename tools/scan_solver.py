"""Solve a grid of 200 models and print a digest of each result.

    python3 tools/scan_solver.py

The grid is lambda_e and p_block in {0.05, 0.2, 0.5, 0.8, 0.95}, weight in
{0.5, 10, 100, 1000} and battery_cap in {5, 20}, at cost_reliable 2 and
delta_max 200, solved at eps 1e-9 with the solver's cap on evaluations.
Each model gets one line: its parameters, ``ok`` or the name of the error
``modified_via`` raised, and the SHA-256 of the ``repr`` of its gain,
thresholds, iterations and gain bracket (or of the error's message). The
last line is the SHA-256 of all the lines before it. Two checkouts that
print the same line for a model solve it alike, bit for bit.

The package is imported from the ``src`` directory next to this script, so
the script measures the checkout it lives in. Standard library plus the
package.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ehaoi import ModelParams, modified_via  # noqa: E402

PROBS = (0.05, 0.2, 0.5, 0.8, 0.95)
WEIGHTS = (0.5, 10.0, 100.0, 1000.0)
CAPS = (5, 20)


def result_digest(m: ModelParams) -> tuple[str, str]:
    """(``ok`` or the error's class name, SHA-256 of the result's repr)."""
    try:
        res, tp = modified_via(m, eps=1e-9)
    except RuntimeError as exc:  # ConvergenceError among them
        return type(exc).__name__, hashlib.sha256(str(exc).encode()).hexdigest()
    fields = (res.gain, tp.thresholds, res.iterations, res.gain_bracket)
    return "ok", hashlib.sha256(repr(fields).encode()).hexdigest()


def main() -> int:
    total = hashlib.sha256()
    for lam, p, w, cap in itertools.product(PROBS, PROBS, WEIGHTS, CAPS):
        m = ModelParams(lambda_e=lam, p_block=p, battery_cap=cap,
                        cost_reliable=2.0, weight=w, delta_max=200)
        status, digest = result_digest(m)
        line = f"lambda_e={lam} p_block={p} weight={w:g} battery_cap={cap} {status} {digest}"
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
