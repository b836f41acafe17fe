"""Average-cost solver: policy iteration on the untruncated chain.

``modified_via`` solves by policy iteration on ``model._blocks``: each
policy, a (battery, age <= L) table that transmits above L, is evaluated
exactly on the chain whose age is never truncated (``_evaluate``: above L
the bias is affine in the age), improved on the Q values at ages <= L + 1
with the tail in closed form (``_improve``), and the gain of the result is
certified by one Bellman backup of its bias (``_certificate``), a bracket
accepted when no wider than eps times the gain. One tie rule holds
throughout: a state transmits only where its transmit Q value is below its
idle one by more than ``TIE_TOL``, so ties idle.

Two kinds of model degenerate. Where no transmission can lower the battery
(lambda_e within about 1e-15 of 1), the search starts from, and keeps, a
table that idles at age 1 on batteries 1..battery_cap - 1, so battery_cap
is the one closed class. Where none can reset the age (p_block that close
to 1), the gain is infinite and ``modified_via`` raises UnboundedAgeError.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import IDLE, TRANSMIT, DomainError, ModelParams, UnboundedAgeError, _blocks, is_real
from .policies import Optimal

DEFAULT_EPS = 1e-9
# Policy iteration stops at a table it leaves unchanged or has evaluated
# before; it took at most 24 evaluations on the 200 models of
# tools/scan_solver.py and 28 on its grid at battery_cap 50 and 100, so
# this cap only turns a search that would never end into an error.
MAX_EVALUATIONS = 100_000
# Q values closer than this count as tied. Where transmitting is the better
# action at the solved policies of the README and acceptance points, it is
# better by at most 1.1e-14 (weight 0.5: a tie in exact arithmetic, left in
# rounding) or by at least 1.4e-12 (battery_cap=100).
TIE_TOL = 1e-13
# A policy iteration table holds at most this many (battery, age) cells.
# Each cell costs about 60 bytes across the table, its bias and Q values,
# and an evaluation walks at most every age of the table, so the cap bounds
# an evaluation to about 120 MB and a few seconds. The run-bottom carries
# that ``modified_via`` keeps between evaluations hold at most this many
# floats, 16 MB.
MAX_TABLE_CELLS = 2_000_000


class ConvergenceError(RuntimeError):
    """The solver did not meet its stopping rule within its caps."""

    def __init__(self, message: str, iterations: int, span_residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.span_residual = span_residual


@dataclass
class SolveResult:
    gain: float               # exact gain of the returned Optimal policy
    values: np.ndarray        # its exact bias by (battery, age 1..L + 3)
    iterations: int           # policy evaluations
    span_residual: float      # width of gain_bracket
    span_history: np.ndarray  # (iterations,): that width after each evaluation
    argmin_evals: int         # sum_q min(threshold_q, delta_max)
    gain_bracket: tuple[float, float]  # (lo, hi) around the optimal gain


def _check_stopping(eps: float) -> None:
    if not (is_real(eps) and math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be a finite number > 0, got {eps!r}")


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
    stay: np.ndarray           # M
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
        R, cols, weights, reset_cols, reset_weights, paid, stay, slope,
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
    starts = np.flatnonzero(np.concatenate([[True], (send[:, 1:] != send[:, :-1]).any(axis=0)]))
    ends = np.append(starts[1:], L)
    return [(int(lo) + 1, int(hi), send[:, lo]) for lo, hi in zip(starts[::-1], ends[::-1])]


def _evaluate(
    send: np.ndarray, m: ModelParams, kept: list | None = None
) -> tuple[float, np.ndarray]:
    """Exact gain and bias of the policy that follows ``send`` (a (battery,
    age <= L) boolean table, True transmitting) and transmits at every age
    above L, on the chain whose age is never truncated.

    Returns the gain g and the bias at ages 1..L + 3 as an (L + 3, B1)
    array; at every age a > L the bias is a * slope + kappa, so its last
    increment repeats at every later age. The bias is 0 at (age 1,
    battery_cap). Each row of a block has at most two nonzero advancing
    moves, so U_a X is one gather of both moves' rows; the one
    dense solve is the (battery_cap + 1)-square system for (h_1, g). Both
    passes over the ages take each run of equal columns' moves once.

    ``kept`` carries work from the previous evaluation of the same model
    over to this one: a list of (run, carry) pairs, a run being (first age,
    last age, column bytes), for the top runs of that table whose carries
    fit in MAX_TABLE_CELLS floats. The first pass carries A from age L + 1
    down, so the carry A reached at the bottom of a run, a (B1, B1 + 2)
    float matrix, is a function of L and the runs above it alone, and the
    top run ends at L. The pass starts from the kept carry below the
    longest top prefix of runs the two tables share, re-walks only the runs
    below it, and rewrites ``kept`` in place for this table. The result is
    bit for bit the one without ``kept``.
    """
    t = _tail(m)
    B1, L = send.shape
    q = np.arange(B1)
    runs = _runs(send)
    if kept is None:
        kept = []
    keys = [(lo, hi, col.tobytes()) for lo, hi, col in runs]
    moves = []  # by run: both moves' rows, their weights, the action column
    for _, _, col in runs:
        ac = col.astype(np.intp)
        moves.append((t.cols[ac, q].T.ravel(), t.weights[ac, q].T.ravel(), ac))
    start = 0
    while start < min(len(keys), len(kept)) and keys[start] == kept[start][0]:
        start += 1
    # h_a = A (h_1, g, 1), from a = L + 1 down to 1
    if start:
        A = kept[start - 1][1].copy()
    else:
        A = np.empty((B1, B1 + 2))
        A[:, :B1] = t.MR
        A[:, B1] = -t.slope
        A[:, B1 + 1] = (L + 1) * t.slope + t.kappa0
    del kept[start:]
    both = np.empty((2 * B1, B1 + 2))
    forcing = np.empty((B1, B1 + 2))  # resets, -1 for g, the age
    forcing[:, B1] = -1.0
    for key, (lo, hi, _), (rows, w, ac) in zip(keys[start:], runs[start:], moves[start:]):
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
        if (len(kept) + 1) * A.size <= MAX_TABLE_CELLS:
            kept.append((key, A.copy()))
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
    return gain, H


def _q_values(H: np.ndarray, m: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Idle and transmit Q values at ages 1..len(H) - 1, by (age, battery),
    from the bias ``H`` at ages 1..len(H)."""
    t = _tail(m)
    ages = np.arange(1.0, len(H))[:, None]
    idle, tx = (ages + _advance(H[1:].T, c, w).T for c, w in zip(t.cols, t.weights))
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
    send: np.ndarray, gap: np.ndarray, rise: np.ndarray, keep: bool, reach: int, pin: bool
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
    policy). With ``pin`` batteries 1..battery_cap - 1 idle at age 1
    whatever the gap. The table is cut after its last idle age.
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
    if pin:
        table[1:-1, 0] = False
    return _cut(table)


def _cut(table: np.ndarray) -> np.ndarray:
    """``table`` cut after its last idle age."""
    width = int(np.flatnonzero(~table.all(axis=0)).max(initial=-1)) + 1
    return table[:, :width]


def _damp(
    send: np.ndarray, nxt: np.ndarray, prev: np.ndarray, last: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The step from ``send`` to ``nxt``, halved where it walks back, and
    the states it switches back to their action in ``prev``, the table
    evaluated before ``send``.

    The tables are compared at one width with their transmit-above-L
    columns filled in. If some of the states that ``nxt`` switches back
    are also in ``last`` (the states the previous step switched back),
    each battery run of switched-back states in an age column switches
    only in its half next to a row that already takes the action they
    return to (all of it if neither or both neighbours do; the half
    rounds up, so a one-row run switches); every other change is made in
    full. Otherwise the step is ``nxt`` as it is.
    """
    B1 = send.shape[0]
    width = max(send.shape[1], nxt.shape[1], prev.shape[1], last.shape[1])

    def wide(t: np.ndarray, fill: bool) -> np.ndarray:
        out = np.full((B1, width), fill)
        out[:, : t.shape[1]] = t
        return out

    now, to = wide(send, True), wide(nxt, True)
    back = (to != now) & (to == wide(prev, True))
    if not (back & wide(last, False)).any():
        return nxt, back
    for a in np.flatnonzero(back.any(axis=0)):
        for act in (False, True):
            edges = np.flatnonzero(np.diff(np.r_[0, back[:, a] & (to[:, a] == act), 0]))
            for lo, hi in zip(edges[::2], edges[1::2]):  # rows lo..hi - 1
                below = lo > 0 and now[lo - 1, a] == act
                above = hi < B1 and now[hi, a] == act
                half = (hi - lo) // 2  # the rows that stay
                if below and not above:
                    to[hi - half : hi, a] = now[hi - half : hi, a]
                elif above and not below:
                    to[lo : lo + half, a] = now[lo : lo + half, a]
    return _cut(to), back & (to != now)


def modified_via(m: ModelParams, eps: float = DEFAULT_EPS) -> tuple[SolveResult, Optimal]:
    """Solve by policy iteration on the untruncated chain and return the
    optimal thresholds as an ``Optimal`` policy.

    Starts from all-transmit and evaluates each policy exactly
    (``_evaluate``). A state keeps its action unless the other one is better
    by more than ``TIE_TOL``. Where that rule would walk a boundary back
    and forth, switching states back to their action in the table evaluated
    before, the step is halved (``_damp``): once some of those states also
    switched back in the step before, each battery run of them in an age
    column switches only in its half next to a row that already takes the
    action they return to, so the search bisects the boundary instead of
    closing in on it a few rows per two evaluations (8 evaluations instead
    of 37 at ``battery_cap=100``). Each such step still switches states
    whose other action is better by more than ``TIE_TOL``, so it improves
    the policy as a full step does. Once no state changes, the table transmits
    where transmitting is better by more than ``TIE_TOL`` (ties idle), and
    is evaluated again if that changed it; the search ends at a table that
    rule leaves unchanged, or at the first table it evaluates a second
    time. Such a repeat is a cycle: at exact ties the rounding of the Q
    gaps depends on the table, and can exceed ``TIE_TOL``, so Puterman's
    termination argument (Markov Decision Processes, 1994, section 8.6),
    made in exact arithmetic, does not hold. A table is recognized by its
    SHA-256 digest, 32 bytes per evaluation. A row's threshold is its first
    transmitting age, which no age cap bounds; the returned ``Optimal``
    transmits at every age from the threshold on, and ``decide``,
    ``evaluate_exact`` and ``simulate`` take it as is. An evaluation re-walks
    the table from its first changed run of equal columns down (the
    previous evaluation's carry at the bottom of each run is kept, one
    (B1, B1 + 2) float matrix per run); when the width L changes it walks
    every age, so the work grows with the largest threshold (about
    weight * cost_reliable / 2 at the reference point).

    Where no transmission can lower the battery (``_blocks`` drops both of
    those branches, below PROB_FLOOR, when lambda_e lies within about 1e-15
    of 1), a row that transmitted at every age would be a closed class of
    its own and the bias would not be unique. There the search starts from
    the table that idles at age 1 on every battery below battery_cap, and
    batteries 1..battery_cap - 1 stay idle at age 1: those rows are
    transient, and battery_cap is the one closed class.

    ``gain`` is the exact gain of that policy; ``values`` its exact bias
    as ``_evaluate`` computes it, a (battery, age 1..L + 3) array for the
    final table's width L, 0 at (age 1, battery_cap): past its last column
    the bias is affine in the age, and its last increment repeats;
    ``iterations`` the number of evaluations; ``gain_bracket`` the
    certificate [min(Th - h), max(Th - h)] over the ages up to L + 2 (the
    rows above repeat), which holds the optimal gain; ``span_residual`` its
    width and ``span_history`` that width after each evaluation.
    ``argmin_evals`` is sum_q min(threshold_q, delta_max).

    Raises ConvergenceError when the policy still changes after
    ``MAX_EVALUATIONS`` evaluations, when a table would hold more than
    ``MAX_TABLE_CELLS`` (battery, age) cells, or when the final certificate
    is wider than ``eps`` times the gain (the gain is at least 1, as the age
    is). Raises UnboundedAgeError where no transmission can reset the age
    (p_block within about 1e-15 of 1): the age then grows for ever and the
    gain is infinite.
    """
    _check_stopping(eps)
    U, R = _blocks(m)
    if not R[TRANSMIT].any():  # as evaluate_exact finds for every policy here
        raise UnboundedAgeError()
    t = _tail(m)
    B1 = m.battery_cap + 1
    pin = not (U[TRANSMIT, 1, 0] or R[TRANSMIT, 1, 0])  # the battery never falls
    send = np.zeros((B1, 0), dtype=bool)  # all-transmit
    if pin:  # idle at age 1 below battery_cap
        send = np.arange(B1)[:, None] == m.battery_cap
    widths = []
    seen = set()  # the evaluated tables' digests
    kept = []  # the last evaluated table's (run, carry) pairs
    prev = send  # the table evaluated before send
    last = send[:, :0]  # the states the last keep-rule step switched back
    for k in range(MAX_EVALUATIONS):
        gain, H = _evaluate(send, m, kept)
        idle, tx = _q_values(H, m)
        bracket = _certificate(H, idle, tx)
        widths.append(bracket[1] - bracket[0])
        digest = hashlib.sha256(send.tobytes() + repr(send.shape).encode()).digest()
        if digest in seen:
            break
        seen.add(digest)
        gap = (idle - tx)[: send.shape[1] + 1]
        # a table at most doubles per step: a far threshold takes a few
        # steps, and a transient policy cannot ask for a table of tens of
        # thousands of ages, as unbounded moves did
        reach = send.shape[1] + 1
        nxt = _improve(send, gap, t.rise, True, reach, pin)
        if nxt is not None and np.array_equal(nxt, send):
            nxt = _improve(send, gap, t.rise, False, reach, pin)
            if nxt is not None and np.array_equal(nxt, send):
                break
        elif nxt is not None:  # halve a step that walks back again
            nxt, last = _damp(send, nxt, prev, last)
        if nxt is None:
            raise ConvergenceError(
                f"the policy after {k + 1} evaluations would need a table of "
                f"more than {MAX_TABLE_CELLS} (battery, age) cells: a threshold "
                f"lies that far out (weight * cost_reliable = {t.paid:g})",
                k + 1,
                widths[-1],
            )
        prev, send = send, nxt
    else:
        raise ConvergenceError(
            f"policy still changing after {MAX_EVALUATIONS} evaluations "
            f"(certificate width {widths[-1]:.3e})",
            MAX_EVALUATIONS,
            widths[-1],
        )
    width = widths[-1]
    if not width <= eps * gain:  # NaN too
        raise ConvergenceError(
            f"certificate width {width:.3e} after {k + 1} evaluations, more than "
            f"eps={eps:.3e} times the gain {gain:.6g}",
            k + 1,
            width,
        )
    # every row transmits above the table: its threshold is its first
    # transmitting age
    ends = np.hstack([send, np.ones((B1, 1), dtype=bool)])
    policy = Optimal((ends.argmax(axis=1) + 1).tolist())
    evals = sum(min(th, m.delta_max) for th in policy.thresholds)
    result = SolveResult(gain, H.T, k + 1, width, np.array(widths), evals, gain_bracket=bracket)
    return result, policy
