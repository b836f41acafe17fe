"""Average-cost solver: relative value iteration and policy extraction.

The iteration keeps values normalized against a fixed reference state and
stops on the span seminorm of the Bellman update, so it converges even
though average-cost values themselves are only defined up to a constant.
Two extraction routes are provided: a full per-state argmin, and a
threshold-exploiting scan that walks each battery row in increasing age
and stops comparing once the row starts transmitting. Every sweep and the
full argmin use the grid-shift operator (``model.GridShift``): a sweep
takes its Bellman values from ``backup_padded``, which reads the
age-shifted values in place from the iteration's own buffer, and the
extraction compares the Q values of ``backup_q``. The thresholds come back
as a ``policies.ThresholdPolicy``, and the policy table as its
``stationary_actions``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    IDLE,
    TRANSMIT,
    DomainError,
    GridShift,
    ModelParams,
    State,
    is_int,
    is_real,
    one_step_cost,
    state_count,
    state_index,
    successors,
    transition,
)
from .policies import Optimal, ThresholdPolicy, stationary_actions

DEFAULT_EPS = 1e-9
DEFAULT_MAX_ITER = 100_000


class ConvergenceError(RuntimeError):
    """Value iteration did not reach the stopping tolerance."""

    def __init__(self, message: str, iterations: int, span_residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.span_residual = span_residual


class ThresholdStructureError(ValueError):
    """A policy row goes back to idling above an age that transmits.

    ``witnesses`` lists (battery, first transmitting age, later idle age)
    triples, one per offending row.
    """

    def __init__(self, message: str, witnesses: list[tuple[int, int, int]]):
        super().__init__(message)
        self.witnesses = witnesses


class TruncationWarning(UserWarning):
    """A threshold is high enough that the age cap may distort the solution."""


@dataclass
class SolveResult:
    gain: float               # long-run average cost per slot
    values: np.ndarray        # relative values, enumerate_states order
    policy: np.ndarray        # 0/1 action per state
    iterations: int
    span_residual: float      # span of the final Bellman update
    span_history: np.ndarray  # residual after each sweep
    argmin_evals: int         # states decided by comparing Q values in a row scan
    gain_bracket: tuple[float, float] = (-np.inf, np.inf)  # Odoni (lo, hi) on the gain


def q_value(v: np.ndarray, s: State, a: int, m: ModelParams) -> float:
    """One-step lookahead value of (s, a) against value table ``v``."""
    total = one_step_cost(s, a, m)
    for ns, pr in transition(s, a, m).entries:
        total += pr * float(v[state_index(ns, m)])
    return float(total)


def bellman_backup_q(v: np.ndarray, m: ModelParams) -> np.ndarray:
    """Q-values for every (action, state) pair as a (2, n) array."""
    return GridShift(m).backup_q(v)


def _iterate_values(m: ModelParams, eps: float, max_iter: int):
    if not (is_real(eps) and math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be a finite number > 0, got {eps!r}")
    if not (is_int(max_iter) and max_iter >= 1):
        raise DomainError(f"max_iter must be an int >= 1, got {max_iter!r}")
    op = GridShift(m)
    n = state_count(m)
    ref = state_index(State(1, m.battery_cap), m)
    # the values with the spare entry after them that the sweep reads the
    # age-shifted values from in place (GridShift.backup_padded)
    x = np.zeros(n + 1)
    v = x[:n]
    tv = np.empty(n)
    spans = np.empty(max_iter)
    span = np.inf
    for k in range(max_iter):
        op.backup_padded(x, out=tv)
        # the update into v's own buffer: v is renormalized from tv below
        np.subtract(tv, v, out=v)
        hi = float(v.max())
        lo = float(v.min())
        span = hi - lo
        spans[k] = span
        np.subtract(tv, tv[ref], out=v)
        if span <= eps:
            gain = 0.5 * (hi + lo)
            return v, gain, (lo, hi), k + 1, span, spans[: k + 1].copy()
    raise ConvergenceError(
        f"span residual {span:.3e} after {max_iter} iterations (eps={eps:.3e})",
        max_iter,
        span,
    )


def relative_value_iteration(
    m: ModelParams, eps: float = DEFAULT_EPS, max_iter: int = DEFAULT_MAX_ITER
) -> SolveResult:
    """Solve the average-cost problem; greedy policy via full argmin."""
    v, gain, bracket, iters, span, spans = _iterate_values(m, eps, max_iter)
    policy = extract_policy(v, m)
    return SolveResult(
        gain, v, policy, iters, span, spans, state_count(m), gain_bracket=bracket
    )


def extract_policy(v: np.ndarray, m: ModelParams) -> np.ndarray:
    """Greedy 0/1 action per state; exact Q ties resolve to idle."""
    q = bellman_backup_q(v, m)
    return (q[TRANSMIT] < q[IDLE]).astype(np.int8)


def modified_via(
    m: ModelParams, eps: float = DEFAULT_EPS, max_iter: int = DEFAULT_MAX_ITER
) -> tuple[SolveResult, ThresholdPolicy]:
    """Solve, then extract the policy with the threshold-exploiting scan.

    Each battery row is scanned in increasing age; the first state whose
    transmit Q value is strictly below its idle Q value is the row's
    threshold (delta_max + 1 if there is none), and every later age in the
    row transmits too without being compared. ``argmin_evals`` counts the
    states the scan decides by comparison, sum_q min(threshold_q,
    delta_max); it is not the number of Q values computed.

    The scan takes each Q value as a dot product over the state's
    ``successors`` row. That may round differently from
    ``bellman_backup_q``'s sum in the last bit, which on an exact tie
    decides the threshold (README, "Thresholds decided by rounding"); the
    dot product is what the recorded thresholds and CSV files rest on.
    """
    v, gain, bracket, iters, span, spans = _iterate_values(m, eps, max_iter)
    tp = ThresholdPolicy(_scan_thresholds(v, m))
    _warn_if_truncation_tight(tp, m)
    dm = m.delta_max
    evals = sum(min(t, dm) for t in tp.thresholds)
    result = SolveResult(
        gain, v, stationary_actions(Optimal(tp), m), iters, span, spans, evals,
        gain_bracket=bracket,
    )
    return result, tp


def _scan_thresholds(v: np.ndarray, m: ModelParams) -> tuple[int, ...]:
    op = GridShift(m)
    n = state_count(m)
    (idle_idx, idle_pr), (tx_idx, tx_pr) = (
        successors(np.full(n, a), m) for a in (IDLE, TRANSMIT)
    )
    dm = m.delta_max
    thresholds = []
    for b in range(m.battery_cap + 1):
        tx_cost = op.paid_age if b == 0 else op.age
        thr = dm + 1
        for d in range(1, dm + 1):
            i = b * dm + d - 1
            q_idle = op.age[d - 1] + idle_pr[i] @ v[idle_idx[i]]
            q_tx = tx_cost[d - 1] + tx_pr[i] @ v[tx_idx[i]]
            if q_tx < q_idle:
                thr = d
                break
        thresholds.append(thr)
    return tuple(thresholds)


def extract_thresholds(policy: np.ndarray, m: ModelParams) -> ThresholdPolicy:
    """Read per-battery thresholds off a 0/1 policy table.

    Raises ThresholdStructureError when some row idles again above its
    first transmitting age, i.e. the policy is not of threshold form.
    """
    arr = np.asarray(policy).reshape(m.battery_cap + 1, m.delta_max)
    thresholds = []
    witnesses = []
    for q, row in enumerate(arr):
        ones = np.flatnonzero(row == TRANSMIT)
        if ones.size == 0:
            thresholds.append(m.delta_max + 1)
            continue
        first = int(ones[0]) + 1
        holes = np.flatnonzero(row[ones[0]:] == IDLE)
        if holes.size:
            witnesses.append((q, first, first + int(holes[0])))
        thresholds.append(first)
    if witnesses:
        detail = ", ".join(
            f"(q={q}, transmit at age {lo}, idle at age {hi})" for q, lo, hi in witnesses
        )
        raise ThresholdStructureError(
            f"policy is not threshold-form: {detail}", witnesses
        )
    tp = ThresholdPolicy(tuple(thresholds))
    _warn_if_truncation_tight(tp, m)
    return tp


def _warn_if_truncation_tight(tp: ThresholdPolicy, m: ModelParams) -> None:
    worst = max(tp.thresholds)
    if worst > m.delta_max / 2:
        warnings.warn(
            f"largest threshold {worst} exceeds half the age cap "
            f"(delta_max={m.delta_max}); increase delta_max to keep the "
            f"truncation inert",
            TruncationWarning,
            stacklevel=3,
        )
