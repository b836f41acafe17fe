"""Structural checks on converged value tables.

Five properties are expected of the solved system and together explain why
the optimal policy is a per-battery age threshold: values grow with age,
shrink with stored energy, age increments are at least one, increments at
a higher battery level dominate a p_block fraction of the lower level's,
and the idle-minus-transmit Q gap grows with age. Checks report the worst
violation instead of raising so a falsified property is easy to inspect.

Age pairs touching the grid's last age are excluded from the increment
checks, and the submodularity check reads the Q values at the ages whose
successors lie on the grid (1..delta_max - 1), from the solver's own
``_q_values``.
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


def _grid(v: np.ndarray, m: ModelParams) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(m.battery_cap + 1, m.delta_max)


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
    g = _grid(v, m)
    viol = g[:, :-1] - g[:, 1:]
    return _report(
        "monotone-aoi",
        viol,
        lambda q, j: (State(j + 1, q), State(j + 2, q)),
        tol,
    )


def check_monotone_battery(v, m: ModelParams, tol: float = DEFAULT_TOL) -> StructureReport:
    """Values never increase as stored energy grows (age fixed)."""
    g = _grid(v, m)
    viol = g[1:, :] - g[:-1, :]
    return _report(
        "monotone-battery",
        viol,
        lambda q, j: (State(j + 1, q), State(j + 1, q + 1)),
        tol,
    )


def check_increment_aoi(v, m: ModelParams, tol: float = DEFAULT_TOL) -> StructureReport:
    """Adjacent age increments are at least 1, away from the truncation cap."""
    g = _grid(v, m)
    inner = g[:, : m.delta_max - 1]  # ages 1 .. delta_max - 1
    viol = 1.0 - (inner[:, 1:] - inner[:, :-1])
    return _report(
        "increment-aoi",
        viol,
        lambda q, j: (State(j + 1, q), State(j + 2, q)),
        tol,
    )


def check_increment_mixed(v, m: ModelParams, tol: float = DEFAULT_TOL) -> StructureReport:
    """Age increments at battery q+1 dominate p_block times those at q."""
    g = _grid(v, m)
    inner = g[:, : m.delta_max - 1]
    inc = inner[:, 1:] - inner[:, :-1]  # (B+1, delta_max-2)
    viol = m.p_block * inc[:-1, :] - inc[1:, :]
    return _report(
        "increment-mixed",
        viol,
        lambda q, j: (State(j + 1, q + 1), State(j + 2, q + 1)),
        tol,
    )


def check_submodular(v, m: ModelParams, tol: float = DEFAULT_TOL) -> StructureReport:
    """The idle-minus-transmit Q gap never shrinks as age grows."""
    idle, tx = _q_values(_grid(v, m).T, m)
    gap = (idle - tx).T  # (battery, age 1..delta_max - 1)
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
