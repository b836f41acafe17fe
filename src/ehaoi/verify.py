"""Structural checks on converged value tables.

Five properties are expected of the solved system and together explain why
the optimal policy is a per-battery age threshold: values grow with age,
shrink with stored energy, age increments are at least one, increments at
a higher battery level dominate a p_block fraction of the lower level's,
and the idle-minus-transmit Q gap grows with age. Checks report the worst
violation instead of raising so a falsified property is easy to inspect.

A value table is a (battery, age 1..W) array of any width W, or the same
table flat, battery-major. Every pair of adjacent ages on it is checked,
and the submodularity check reads the Q values at the ages whose
successors lie on the table (1..W - 1), from the solver's own
``_q_values``.

On the solver's ``SolveResult.values``, the bias at ages 1..L + 3 for the
final table's width L, the checks cover every age of the untruncated
chain. Above L every row transmits and the bias is a * slope + kappa, with
slope = 1/(1 - p_block) in every row: the age increments, and each
battery step's difference, are the same at every age there, and the Q gap
rises by ``rise`` = 1 per age from age L on. The pairs at ages L + 1 to
L + 3 show each property's every later value, so none can fail only
further out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, State
from .solver import _q_values

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class StructureReport:
    name: str
    passed: bool
    worst: float  # largest violation; passing means worst <= tol
    witnesses: tuple  # offending state pair(s), empty when passed
    tol: float


def _table(v: np.ndarray, m: ModelParams) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(m.battery_cap + 1, -1)


def _report(name, viol, witness_at, tol):
    if viol.size == 0:
        return StructureReport(name, True, 0.0, (), tol)
    worst = float(viol.max())
    if worst <= tol:
        return StructureReport(name, True, worst, (), tol)
    where = np.unravel_index(int(np.argmax(viol)), viol.shape)
    return StructureReport(name, False, worst, (witness_at(*where),), tol)


def check_monotone_aoi(v, m: ModelParams, tol: float = DEFAULT_TOL) -> StructureReport:
    """Values never decrease as age grows (battery fixed)."""
    g = _table(v, m)
    return _report(
        "monotone-aoi",
        g[:, :-1] - g[:, 1:],
        lambda q, j: (State(j + 1, q), State(j + 2, q)),
        tol,
    )


def check_monotone_battery(v, m: ModelParams, tol: float = DEFAULT_TOL) -> StructureReport:
    """Values never increase as stored energy grows (age fixed)."""
    return _report(
        "monotone-battery",
        np.diff(_table(v, m), axis=0),
        lambda q, j: (State(j + 1, q), State(j + 1, q + 1)),
        tol,
    )


def check_increment_aoi(v, m: ModelParams, tol: float = DEFAULT_TOL) -> StructureReport:
    """Adjacent age increments are at least 1."""
    return _report(
        "increment-aoi",
        1.0 - np.diff(_table(v, m), axis=1),
        lambda q, j: (State(j + 1, q), State(j + 2, q)),
        tol,
    )


def check_increment_mixed(v, m: ModelParams, tol: float = DEFAULT_TOL) -> StructureReport:
    """Age increments at battery q+1 dominate p_block times those at q."""
    inc = np.diff(_table(v, m), axis=1)  # (battery, age 1..W - 1)
    return _report(
        "increment-mixed",
        m.p_block * inc[:-1] - inc[1:],
        lambda q, j: (State(j + 1, q + 1), State(j + 2, q + 1)),
        tol,
    )


def check_submodular(v, m: ModelParams, tol: float = DEFAULT_TOL) -> StructureReport:
    """The idle-minus-transmit Q gap never shrinks as age grows."""
    idle, tx = _q_values(_table(v, m).T, m)
    gap = (idle - tx).T  # (battery, age 1..W - 1)
    viol = gap[:, :-1] - gap[:, 1:]
    return _report(
        "submodular-gap",
        viol,
        lambda qq, j: (State(j + 1, qq), State(j + 2, qq)),
        tol,
    )


ALL_CHECKS = (
    check_monotone_aoi,
    check_monotone_battery,
    check_increment_aoi,
    check_increment_mixed,
    check_submodular,
)


def run_all_checks(v, m: ModelParams, tol: float = DEFAULT_TOL) -> list[StructureReport]:
    """Run the five structural checks on a value table."""
    return [check(v, m, tol) for check in ALL_CHECKS]
