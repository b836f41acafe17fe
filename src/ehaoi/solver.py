"""Average-cost solver: relative value iteration and policy extraction.

The iteration keeps values normalized against a fixed reference state and
stops on the span seminorm of the Bellman update, so it converges even
though average-cost values themselves are only defined up to a constant.
Every sweep and the extraction use the grid-shift operator
(``model.GridShift``): a sweep is ``GridShift.sweep``, which reads the
values and writes their Bellman values in buffers the operator owns, and
the extraction compares the Q values of ``backup_q``. There is one tie
rule: a state transmits when its transmit Q value is strictly below its
idle Q value, so exact ties idle. The full argmin returns that 0/1 table;
the threshold route reads each battery row's first transmitting age off
it, returns those thresholds as a ``policies.ThresholdPolicy``, and the
policy table as their ``stationary_actions``.
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
    argmin_evals: int         # sum_q min(threshold_q, delta_max); n for the full argmin
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
    ref = state_index(State(1, m.battery_cap), m)
    # the sweep reads the values and writes the Bellman values into buffers
    # the operator owns (GridShift.sweep)
    v, tv = op.values, op.out
    v[:] = 0.0
    spans = []  # grows with the sweeps run, not with max_iter
    span = np.inf
    for k in range(max_iter):
        op.sweep()
        # the update into v's own buffer: v is renormalized from tv below
        np.subtract(tv, v, out=v)
        hi = float(v.max())
        lo = float(v.min())
        span = hi - lo
        spans.append(span)
        np.subtract(tv, tv[ref], out=v)
        if span <= eps:
            gain = 0.5 * (hi + lo)
            # a copy, so the result does not hold the operator's block
            return v.copy(), gain, (lo, hi), k + 1, span, np.array(spans)
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
    """Solve, then read one threshold per battery row off the greedy policy.

    A row's threshold is its first age whose transmit Q value is strictly
    below its idle Q value (``extract_policy``'s rule, so exact ties idle),
    or delta_max + 1 if there is none; the returned policy transmits at
    every age from the threshold on. ``argmin_evals`` is sum_q
    min(threshold_q, delta_max), the states up to and including each row's
    threshold; it is not the number of Q values computed.
    """
    v, gain, bracket, iters, span, spans = _iterate_values(m, eps, max_iter)
    greedy = extract_policy(v, m).reshape(m.battery_cap + 1, m.delta_max)
    tp = ThresholdPolicy(tuple(_first_ages(greedy == TRANSMIT)))
    _warn_if_truncation_tight(tp, m)
    dm = m.delta_max
    evals = sum(min(t, dm) for t in tp.thresholds)
    result = SolveResult(
        gain, v, stationary_actions(Optimal(tp), m), iters, span, spans, evals,
        gain_bracket=bracket,
    )
    return result, tp


def _first_ages(hits: np.ndarray) -> list[int]:
    """Per row of a (battery, age) boolean table, its first age that is
    True, or delta_max + 1 for a row with none."""
    return np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, hits.shape[1] + 1).tolist()


def extract_thresholds(policy: np.ndarray, m: ModelParams) -> ThresholdPolicy:
    """Read per-battery thresholds off a 0/1 policy table.

    Raises ThresholdStructureError when some row idles again above its
    first transmitting age, i.e. the policy is not of threshold form.
    """
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
