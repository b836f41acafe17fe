"""Average-cost solver: policy iteration on the untruncated chain, and
relative value iteration as its oracle.

``modified_via`` solves by policy iteration: each policy, a (battery,
age <= L) table that transmits above L, is evaluated exactly on the chain
whose age is never truncated (``_evaluate``: above L the bias is affine in
the age), improved on the Q values at ages <= L + 1 with the tail in closed
form (``_improve``), and the gain of the result is certified by one Bellman
backup of its bias (``_certificate``). One tie rule holds throughout: a
state transmits only where its transmit Q value is below its idle one by
more than ``TIE_TOL``, so ties idle. Models whose transmissions can never
lower the battery or never reset the age have no untruncated solution to
evaluate; ``modified_via`` solves those by relative value iteration and
says so (``SolveResult.truncated`` and a TruncationWarning).

``relative_value_iteration`` runs value iteration on the chain truncated at
``delta_max``, normalized against a fixed reference state and stopped on the
span seminorm of the Bellman update. Every sweep is ``GridShift.sweep``, and
its full argmin (``extract_policy``) compares the Q values of ``backup_q``
under the same tie rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .evaluator import _blocks
from .model import (
    IDLE,
    TRANSMIT,
    DomainError,
    GridShift,
    ModelParams,
    State,
    _coefficients,
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
# Q values closer than this count as tied. Where transmitting is the better
# action at the solved policies of the README and acceptance points, it is
# better by at most 1.1e-14 (weight 0.5: a tie in exact arithmetic, left in
# rounding) or by at least 1.4e-12 (battery_cap=100, delta_max=400).
TIE_TOL = 1e-13
# A policy iteration table holds at most this many (battery, age) cells.
# Each cell costs about 60 bytes across the table, its bias and Q values,
# and an evaluation walks at most every age of the table, so the cap bounds
# an evaluation to about 120 MB and a few seconds. The carries kept between
# evaluations (``_Kept``) hold at most this many floats, 16 MB.
MAX_TABLE_CELLS = 2_000_000


class ConvergenceError(RuntimeError):
    """The solver did not meet its stopping rule within its caps."""

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
    iterations: int           # policy evaluations (PI) or sweeps (RVI)
    span_residual: float      # width of gain_bracket
    span_history: np.ndarray  # that width after each evaluation or sweep
    argmin_evals: int         # sum_q min(threshold_q, delta_max); n for the full argmin
    gain_bracket: tuple[float, float] = (-np.inf, np.inf)  # (lo, hi) around the optimal gain
    truncated: bool = False   # solved by RVI on the chain truncated at delta_max


def q_value(v: np.ndarray, s: State, a: int, m: ModelParams) -> float:
    """One-step lookahead value of (s, a) against value table ``v``."""
    total = one_step_cost(s, a, m)
    for ns, pr in transition(s, a, m).entries:
        total += pr * float(v[state_index(ns, m)])
    return float(total)


def bellman_backup_q(v: np.ndarray, m: ModelParams) -> np.ndarray:
    """Q-values for every (action, state) pair as a (2, n) array."""
    return GridShift(m).backup_q(v)


def _check_stopping(eps: float, max_iter: int) -> None:
    if not (is_real(eps) and math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be a finite number > 0, got {eps!r}")
    if not (is_int(max_iter) and max_iter >= 1):
        raise DomainError(f"max_iter must be an int >= 1, got {max_iter!r}")


def _iterate_values(m: ModelParams, eps: float, max_iter: int):
    _check_stopping(eps, max_iter)
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
    """Solve the truncated average-cost problem by value iteration; greedy
    policy via full argmin. ``gain_bracket`` is the Odoni bracket (min and
    max of the last Bellman update's change), ``gain`` its midpoint."""
    v, gain, bracket, iters, span, spans = _iterate_values(m, eps, max_iter)
    policy = extract_policy(v, m)
    return SolveResult(
        gain, v, policy, iters, span, spans, state_count(m), gain_bracket=bracket,
        truncated=True,
    )


def extract_policy(v: np.ndarray, m: ModelParams) -> np.ndarray:
    """Greedy 0/1 action per state: transmit where the transmit Q value is
    below the idle one by more than TIE_TOL, so ties idle."""
    q = bellman_backup_q(v, m)
    return (q[TRANSMIT] < q[IDLE] - TIE_TOL).astype(np.int8)


class _Tail(NamedTuple):
    """What evaluating any policy of one model needs, from ``_blocks``.

    ``cols``/``weights`` hold each row's (at most two) advancing moves by
    action, as battery columns and probabilities; ``reset_cols``/
    ``reset_weights`` the transmit resets. With M = (I - U_transmit)^-1, the
    bias above the table is a*slope + kappa, kappa = kappa0 + MR h_1 -
    slope*g; ``rise`` is the idle-minus-transmit Q gap's growth per age
    there, (U_idle - U_transmit) slope.
    """

    R: np.ndarray              # (2, B1, B1) reset blocks by action
    cols: np.ndarray           # (2, B1, 2)
    weights: np.ndarray        # (2, B1, 2)
    reset_cols: np.ndarray     # (B1, 2)
    reset_weights: np.ndarray  # (B1, 2)
    paid: float                # weight * cost_reliable
    slope: np.ndarray          # M 1, 1/(1 - p_block) in every row
    rise: np.ndarray           # 1 in every row
    MR: np.ndarray             # M R_transmit
    kappa0: np.ndarray         # M (c0 + U_transmit slope)


@lru_cache(maxsize=8)
def _tail(m: ModelParams) -> _Tail:
    U, R = _blocks(m)
    B1 = m.battery_cap + 1
    cols = np.argsort(U == 0.0, axis=-1, kind="stable")[..., :2]
    weights = np.take_along_axis(U, cols, axis=-1)
    reset_cols = np.argsort(R[TRANSMIT] == 0.0, axis=-1, kind="stable")[:, :2]
    reset_weights = np.take_along_axis(R[TRANSMIT], reset_cols, axis=-1)
    stay = np.linalg.inv(np.eye(B1) - U[TRANSMIT])
    slope = stay.sum(axis=1)
    sent = _advance(slope, cols[TRANSMIT], weights[TRANSMIT])
    paid = m.weight * m.cost_reliable
    c0 = np.zeros(B1)
    c0[0] = paid
    return _Tail(
        R, cols, weights, reset_cols, reset_weights, paid, slope,
        _advance(slope, cols[IDLE], weights[IDLE]) - sent,
        stay @ R[TRANSMIT],
        stay @ (c0 + sent),
    )


def _advance(x: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """U x along x's first axis (the battery), U given by its rows' two
    moves ``cols`` and ``weights``."""
    w = weights.reshape(weights.shape + (1,) * (x.ndim - 1))
    return w[:, 0] * x[cols[:, 0]] + w[:, 1] * x[cols[:, 1]]


def _runs(send: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """(first age, last age, column) of each run of equal columns of the
    (battery, age <= L) table ``send``, the last run first."""
    L = send.shape[1]
    if L == 0:
        return []
    starts = np.flatnonzero(np.r_[True, (send[:, 1:] != send[:, :-1]).any(axis=0)])
    ends = np.r_[starts[1:], L]
    return [(int(lo) + 1, int(hi), send[:, lo]) for lo, hi in zip(starts[::-1], ends[::-1])]


class _Kept:
    """What ``_evaluate`` keeps from one evaluation for the next, within one
    ``modified_via`` call: its runs from the top as (first age, last age,
    column bytes), the carry A reached at the bottom of each run (one
    (B1, B1 + 2) float matrix per run, for the top runs that fit in
    MAX_TABLE_CELLS floats), and each column's gathered moves."""

    def __init__(self):
        self.runs: list[tuple[int, int, bytes]] = []
        self.carries: list[np.ndarray] = []
        self.moves: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _evaluate(
    send: np.ndarray, m: ModelParams, kept: _Kept | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact gain and bias of the policy that follows ``send`` (a (battery,
    age <= L) boolean table, True transmitting) and transmits at every age
    above L, on the chain whose age is never truncated.

    Returns the gain g, the bias at ages 1..L + 3 as an (L + 3, B1) array,
    and kappa: at every age a > L the bias is a * slope + kappa. The bias is
    0 at (age 1, battery_cap). Each row of a block has at most two nonzero
    advancing moves, so U_a X is one gather of both moves' rows; the one
    dense solve is the (battery_cap + 1)-square system for (h_1, g). Both
    passes over the ages take each run of equal columns' moves once.

    ``kept`` carries work from the previous evaluation of the same model
    over to this one, and is then updated to this one's. The first pass
    carries A from age L + 1 down, so the carry at the bottom of a run is a
    function of L and the runs above it alone, and the top run ends at L.
    The pass starts from the kept carry below the longest top prefix of
    runs the two tables share and re-walks only the runs below it. The
    result is bit for bit the one without ``kept``.
    """
    t = _tail(m)
    B1, L = send.shape
    q = np.arange(B1)
    runs = _runs(send)
    if kept is None:
        kept = _Kept()
    keys = [(lo, hi, col.tobytes()) for lo, hi, col in runs]
    moves = []  # by run: both moves' rows, their weights, the action column
    for (_, _, key), (_, _, col) in zip(keys, runs):
        mv = kept.moves.get(key)
        if mv is None:
            ac = col.astype(np.intp)
            mv = (t.cols[ac, q].T.ravel(), t.weights[ac, q].T.ravel(), ac)
        moves.append(mv)
    start = 0
    while start < min(len(keys), len(kept.carries)) and keys[start] == kept.runs[start]:
        start += 1
    # h_a = A (h_1, g, 1), from a = L + 1 down to 1
    if start:
        A = kept.carries[start - 1].copy()
    else:
        A = np.empty((B1, B1 + 2))
        A[:, :B1] = t.MR
        A[:, B1] = -t.slope
        A[:, B1 + 1] = (L + 1) * t.slope + t.kappa0
    carries = kept.carries[:start]
    both = np.empty((2 * B1, B1 + 2))
    forcing = np.empty((B1, B1 + 2))  # resets, -1 for g, the age
    forcing[:, B1] = -1.0
    for (lo, hi, _), (rows, w, ac) in zip(runs[start:], moves[start:]):
        w = w[:, None]
        forcing[:, :B1] = t.R[ac, q]
        for a in range(hi, lo - 1, -1):
            np.take(A, rows, axis=0, out=both)
            both *= w
            np.add(both[:B1], both[B1:], out=A)
            forcing[:, B1 + 1] = a
            A += forcing
            if ac[0]:
                A[0, B1 + 1] += t.paid
        if (len(carries) + 1) * A.size <= MAX_TABLE_CELLS:
            carries.append(A.copy())
    kept.runs, kept.carries = keys, carries
    kept.moves = {key: mv for (_, _, key), mv in zip(keys, moves)}
    # (I - A_h) h_1 - A_g g = A_1, with h_1 = 0 at battery_cap: that
    # unknown's column carries g instead
    lhs = -A[:, : B1 + 1]
    lhs[q, q] += 1.0
    lhs[:, B1 - 1] = lhs[:, B1]
    x = np.linalg.solve(lhs[:, :B1], A[:, B1 + 1])
    gain = float(x[-1])
    h1 = x.copy()
    h1[-1] = 0.0
    kappa = t.kappa0 + t.MR @ h1 - t.slope * gain
    H = np.empty((L + 3, B1))
    H[L:] = np.arange(L + 1, L + 4)[:, None] * t.slope + kappa
    reset = _advance(h1, t.reset_cols, t.reset_weights)
    adv = np.empty(B1)
    for (lo, hi, _), (rows, w, ac) in zip(runs, moves):
        resets = np.where(ac == TRANSMIT, reset, 0.0)
        for a in range(hi, max(lo, 2) - 1, -1):
            both = H[a][rows]
            both *= w
            np.add(both[:B1], both[B1:], out=adv)
            np.add(a - gain, adv, out=H[a - 1])
            H[a - 1] += resets
            if ac[0]:
                H[a - 1, 0] += t.paid
    H[0] = h1
    return gain, H, kappa


def _q_values(H: np.ndarray, m: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Idle and transmit Q values at ages 1..len(H) - 1, by (age, battery),
    from the bias ``H`` at ages 1..len(H)."""
    t = _tail(m)
    ages = np.arange(1.0, len(H))[:, None]
    nxt = H[1:]
    q = []
    for c, w in zip(t.cols, t.weights):
        q.append(ages + (w[:, 0] * nxt[:, c[:, 0]] + w[:, 1] * nxt[:, c[:, 1]]))
    idle, tx = q
    tx += _advance(H[0], t.reset_cols, t.reset_weights)
    tx[:, 0] += t.paid
    return idle, tx


def _certificate(H: np.ndarray, idle: np.ndarray, tx: np.ndarray) -> tuple[float, float]:
    """[min(Th - h), max(Th - h)] over ages 1..len(H) - 1, from the bias
    ``H`` and its Q values: it holds the optimal gain (Puterman, Markov
    Decision Processes, 1994, section 8.5), and max(Th - h) is at most the
    evaluated policy's gain, up to rounding."""
    backed = np.minimum(idle, tx) - H[:-1]
    return float(backed.min()), float(backed.max())


def _improve(
    send: np.ndarray, gap: np.ndarray, rise: np.ndarray, keep: bool, reach: int
) -> np.ndarray | None:
    """The next table from the idle-minus-transmit Q ``gap`` at ages
    1..L + 1 (by age, battery) of the policy ``send``, or None if it would
    hold more than MAX_TABLE_CELLS (battery, age) cells.

    With ``keep`` a state keeps its action unless the other one is better
    by more than TIE_TOL; without, a state transmits iff transmitting is
    better by more than TIE_TOL. Above L + 1 the gap is gap_{L+1} + k*rise
    at age L + 1 + k, and every state there transmits now, so each row's
    idle ages there are counted in closed form; at most ``reach`` of them
    switch (switching only some of the states that gain still improves the
    policy). The table is cut after its last idle age.
    """
    B1, L = send.shape
    gap = gap.T
    if keep:
        now = np.ones((B1, L + 1), dtype=bool)
        now[:, :L] = send
        head = np.where(now, gap >= -TIE_TOL, gap > TIE_TOL)
        # idle at age L + 1 + k while gap_{L+1} + k*rise < -TIE_TOL
        idle = np.ceil((-TIE_TOL - gap[:, -1]) / rise) - 1
    else:
        head = gap > TIE_TOL
        idle = np.floor((TIE_TOL - gap[:, -1]) / rise)
    idle = np.clip(idle, 0.0, reach)
    ages = L + 1 + idle.max()
    if not ages * B1 <= MAX_TABLE_CELLS:  # NaN too
        return None
    table = np.ones((B1, int(ages)), dtype=bool)
    table[:, : L + 1] = head
    table[:, L + 1 :] = np.arange(1, table.shape[1] - L) > idle[:, None]
    width = int(np.flatnonzero(~table.all(axis=0)).max(initial=-1)) + 1
    return table[:, :width]


def modified_via(
    m: ModelParams, eps: float = DEFAULT_EPS, max_iter: int = DEFAULT_MAX_ITER
) -> tuple[SolveResult, ThresholdPolicy]:
    """Solve by policy iteration on the untruncated chain and return the
    optimal thresholds.

    Starts from all-transmit and evaluates each policy exactly
    (``_evaluate``). A state keeps its action unless the other one is better
    by more than ``TIE_TOL``. Once no state changes, the table transmits
    where transmitting is better by more than ``TIE_TOL`` (ties idle), and
    is evaluated again if that changed it; the search ends at a table that
    rule leaves unchanged. A row's threshold is its first transmitting age,
    which may lie beyond delta_max; the returned policy transmits at every
    age from the threshold on. An evaluation re-walks the table from its
    first changed run of equal columns down (``_evaluate`` keeps the
    previous evaluation's carry at the bottom of each run, one (B1, B1 + 2)
    float matrix per run); when the width L changes it walks every age, so
    the work grows with the largest threshold (about weight *
    cost_reliable / 2 at the reference point).

    ``gain`` is the exact gain of those thresholds; ``values`` their exact
    bias on the (battery, age <= delta_max) grid, 0 at (age 1,
    battery_cap); ``iterations`` the number of evaluations;
    ``gain_bracket`` the certificate [min(Th - h), max(Th - h)] over the
    ages up to L + 2 (the rows above repeat), which holds the optimal gain;
    ``span_residual`` its width and ``span_history`` that width after each
    evaluation. ``argmin_evals`` is sum_q min(threshold_q, delta_max).

    Raises ConvergenceError when the policy still changes after
    ``max_iter`` evaluations, when a table would hold more than
    ``MAX_TABLE_CELLS`` (battery, age) cells, or when the final certificate
    is wider than ``eps``. No TruncationWarning: nothing here depends on delta_max.

    A model in which no transmission can lower the battery, or none can
    reset the age, is solved by relative value iteration on the chain
    truncated at delta_max instead (``_truncated_thresholds``), with a
    TruncationWarning and ``truncated`` set in the result: ``_coefficients``
    drops both branches of the kind (below PROB_FLOOR) when lambda_e or
    p_block lies within about 1e-15 of 1. The untruncated chain then has
    no unique bias (every battery level above 0 is a closed class of its
    own under all-transmit) or no finite gain (the age grows for ever).
    """
    _check_stopping(eps, max_iter)
    _, c1, c2, c3 = _coefficients(m)[TRANSMIT]
    if not (c2 or c3):
        return _truncated_thresholds(m, eps, max_iter, "lower the battery")
    if not (c1 or c3):
        return _truncated_thresholds(m, eps, max_iter, "reset the age")
    t = _tail(m)
    send = np.zeros((m.battery_cap + 1, 0), dtype=bool)  # all-transmit
    widths = []  # grows with the evaluations run, not with max_iter
    kept = _Kept()
    for k in range(max_iter):
        gain, H, kappa = _evaluate(send, m, kept)
        idle, tx = _q_values(H, m)
        bracket = _certificate(H, idle, tx)
        widths.append(bracket[1] - bracket[0])
        gap = (idle - tx)[: send.shape[1] + 1]
        # a table at most doubles per step: a far threshold takes a few
        # steps, and a transient policy cannot ask for a table of tens of
        # thousands of ages, as unbounded moves did
        reach = send.shape[1] + 1
        nxt = _improve(send, gap, t.rise, True, reach)
        if nxt is not None and np.array_equal(nxt, send):
            nxt = _improve(send, gap, t.rise, False, reach)
            if nxt is not None and np.array_equal(nxt, send):
                break
        if nxt is None:
            raise ConvergenceError(
                f"the policy after {k + 1} evaluations would need a table of "
                f"more than {MAX_TABLE_CELLS} (battery, age) cells: a threshold "
                f"lies that far out (weight * cost_reliable = {t.paid:g})",
                k + 1,
                widths[-1],
            )
        send = nxt
    else:
        raise ConvergenceError(
            f"policy still changing after {max_iter} evaluations "
            f"(certificate width {widths[-1]:.3e})",
            max_iter,
            widths[-1],
        )
    width = widths[-1]
    if not width <= eps:  # NaN too
        raise ConvergenceError(
            f"certificate width {width:.3e} after {k + 1} evaluations (eps={eps:.3e})",
            k + 1,
            width,
        )
    B1, L = send.shape
    tp = ThresholdPolicy(tuple(_first_ages(np.hstack([send, np.ones((B1, 1), dtype=bool)]))))
    dm = m.delta_max
    grid = np.empty((dm, B1))
    known = min(dm, len(H))
    grid[:known] = H[:known]
    grid[known:] = np.arange(known + 1, dm + 1)[:, None] * t.slope + kappa
    evals = sum(min(th, dm) for th in tp.thresholds)
    result = SolveResult(
        gain, grid.T.reshape(-1), stationary_actions(Optimal(tp), m), k + 1, width,
        np.array(widths), evals, gain_bracket=bracket,
    )
    return result, tp


def _truncated_thresholds(
    m: ModelParams, eps: float, max_iter: int, reason: str
) -> tuple[SolveResult, ThresholdPolicy]:
    """``modified_via`` by relative value iteration on the truncated chain:
    ``iterations`` counts sweeps, the gain is the midpoint of the Odoni
    bracket, and a row that never transmits within delta_max ages gets
    threshold delta_max + 1."""
    warnings.warn(
        f"no transmission can {reason}; "
        f"solved on the chain truncated at delta_max={m.delta_max}, where "
        f"threshold {m.delta_max + 1} means never",
        TruncationWarning,
        stacklevel=3,
    )
    v, gain, bracket, iters, span, spans = _iterate_values(m, eps, max_iter)
    greedy = extract_policy(v, m).reshape(m.battery_cap + 1, m.delta_max)
    tp = ThresholdPolicy(tuple(_first_ages(greedy == TRANSMIT)))
    _warn_if_truncation_tight(tp, m)
    evals = sum(min(th, m.delta_max) for th in tp.thresholds)
    result = SolveResult(
        gain, v, stationary_actions(Optimal(tp), m), iters, span, spans, evals,
        gain_bracket=bracket, truncated=True,
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
