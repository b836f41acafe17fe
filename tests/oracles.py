"""Reference routes the tests check the package against.

Relative value iteration (RVI) on the chain truncated at ``delta_max``,
normalized against the state (age 1, battery_cap) and stopped on the span
seminorm of the Bellman update, with the greedy policy and the threshold
reading it gives. Every Bellman backup is one gather over ``kernel_arrays``,
the per-state kernel, so none of this shares code with the solver.
"""

import numpy as np

from ehaoi import (
    IDLE,
    TRANSMIT,
    ConvergenceError,
    ModelParams,
    Optimal,
    SolveResult,
    State,
    kernel_arrays,
    one_step_cost,
    state_count,
    state_index,
    transition,
)
from ehaoi.solver import TIE_TOL


class ThresholdStructureError(ValueError):
    """A policy row goes back to idling above an age that transmits.

    ``witnesses`` lists (battery, first transmitting age, later idle age)
    triples, one per offending row.
    """

    def __init__(self, message, witnesses):
        super().__init__(message)
        self.witnesses = witnesses


def q_value(v, s: State, a: int, m: ModelParams) -> float:
    """One-step lookahead value of (s, a) against value table ``v``."""
    total = one_step_cost(s, a, m)
    for ns, pr in transition(s, a, m).entries:
        total += pr * float(v[state_index(ns, m)])
    return float(total)


def bellman_backup_q(v, m: ModelParams) -> np.ndarray:
    """Q values for every (action, state) pair as a (2, n) array, from n
    values, flat or as the (battery, age) grid; any other size raises."""
    kern = kernel_arrays(m)
    v = np.reshape(np.asarray(v, dtype=float), state_count(m))
    terms = kern.prob * v[kern.next_idx]
    # left to right, in transition's entry order, as .sum(axis=2) adds
    # them, at twice its speed
    return kern.cost + (terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3])


def extract_policy(v, m: ModelParams) -> np.ndarray:
    """Greedy 0/1 action per state: transmit where the transmit Q value is
    below the idle one by more than TIE_TOL, so ties idle."""
    q = bellman_backup_q(v, m)
    return (q[TRANSMIT] < q[IDLE] - TIE_TOL).astype(np.int8)


def relative_value_iteration(m: ModelParams, eps=1e-9, max_iter=100_000) -> SolveResult:
    """RVI with the greedy policy by full argmin. ``gain_bracket`` is the
    Odoni bracket (min and max of the last Bellman update's change),
    ``gain`` its midpoint, ``iterations`` the sweeps."""
    ref = state_index(State(1, m.battery_cap), m)
    v = np.zeros(state_count(m))
    spans = []
    for k in range(max_iter):
        tv = bellman_backup_q(v, m).min(axis=0)
        diff = tv - v
        lo, hi = float(diff.min()), float(diff.max())
        spans.append(hi - lo)
        v = tv - tv[ref]
        if hi - lo <= eps:
            return SolveResult(
                0.5 * (hi + lo), v, k + 1, hi - lo, np.array(spans), state_count(m), (lo, hi)
            )
    raise ConvergenceError(
        f"span residual {spans[-1]:.3e} after {max_iter} iterations", max_iter, spans[-1]
    )


def _first_ages(hits: np.ndarray) -> list[int]:
    """Per row of a (battery, age) boolean table, its first age that is
    True, or delta_max + 1 for a row with none."""
    return np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, hits.shape[1] + 1).tolist()


def extract_thresholds(policy, m: ModelParams) -> Optimal:
    """Per-battery thresholds of a 0/1 policy table, a row that never
    transmits reading delta_max + 1. Raises ThresholdStructureError when
    some row idles again above its first transmitting age."""
    arr = np.asarray(policy).reshape(m.battery_cap + 1, m.delta_max)
    thresholds = _first_ages(arr == TRANSMIT)
    ages = np.arange(1, m.delta_max + 1)
    holes = _first_ages((arr == IDLE) & (ages > np.array(thresholds)[:, None]))
    witnesses = [
        (q, first, hole)
        for q, (first, hole) in enumerate(zip(thresholds, holes))
        if hole <= m.delta_max
    ]
    if witnesses:
        raise ThresholdStructureError(f"policy is not threshold-form: {witnesses}", witnesses)
    return Optimal(tuple(thresholds))
