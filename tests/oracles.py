"""Reference routes the tests check the package against.

Relative value iteration (RVI) on the chain truncated at ``delta_max``,
normalized against the state (age 1, battery_cap) and stopped on the span
seminorm of the Bellman update, with the greedy policy and the threshold
reading it gives. Every Bellman backup is one gather over ``kernel_arrays``,
the per-state kernel, so none of this shares code with the solver.
``grid_actions`` lays a policy out on that truncated chain's states, and
``grid_values`` a solved bias. ``exact_evaluate`` redoes the solver's
evaluation of a table in ``fractions.Fraction``, without rounding.
"""

from fractions import Fraction

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
    stationary_actions,
    transition,
)
from ehaoi.model import _blocks
from ehaoi.solver import TIE_TOL


class ThresholdStructureError(ValueError):
    """A policy row goes back to idling above an age that transmits.

    ``witnesses`` lists (battery, first transmitting age, later idle age)
    triples, one per offending row.
    """

    def __init__(self, message, witnesses):
        super().__init__(message)
        self.witnesses = witnesses


def grid_actions(kind, m: ModelParams) -> np.ndarray:
    """``stationary_actions``' table on the truncated chain's grid: 0/1 per
    (phase, battery, age <= delta_max), flat in that order, age a reading
    the table's column min(a, width) - 1."""
    table = stationary_actions(kind, m)
    cols = np.minimum(np.arange(m.delta_max), table.shape[-1] - 1)
    return table[..., cols].reshape(-1).astype(np.int8)


def grid_values(res: SolveResult, m: ModelParams) -> np.ndarray:
    """``res.values``, the bias at ages 1..W, on the truncated chain's grid:
    (battery, age <= delta_max), flat in that order. Past age W the bias
    is affine, rising by 1/(1 - p_block) per age in every row."""
    v = np.asarray(res.values, dtype=float).reshape(m.battery_cap + 1, -1)
    W = v.shape[1]
    past = np.arange(1, m.delta_max - W + 1) / (1.0 - m.p_block)
    return np.hstack([v[:, : m.delta_max], v[:, -1:] + past]).reshape(-1)


def q_value(v, s: State, a: int, m: ModelParams) -> float:
    """One-step lookahead value of (s, a) against value table ``v``."""
    total = one_step_cost(s, a, m)
    for ns, pr in transition(s, a, m):
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


def _solve_exact(A, B):
    """X with A X = B, for a square list-of-rows matrix A and a list of
    rows B, by Gauss-Jordan elimination in the entries' own exact
    arithmetic."""
    n = len(A)
    rows = [list(a) + list(b) for a, b in zip(A, B)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def exact_evaluate(send, m: ModelParams):
    """The solver's evaluation of the (battery, age <= L) table ``send``
    (True transmitting, every age above L transmitting) redone in
    ``fractions.Fraction`` on ``_blocks``' own float entries, so without
    rounding: the tail's M = (I - U_transmit)^-1 exactly, the bordered
    solve for (h_1, g) with h_1 = 0 at battery_cap, and the bias above L as
    a * M 1 + kappa. Returns the gain, the bias at ages 1..L + 3 by (age,
    battery), and every idle-minus-transmit Q gap at ages 1..L + 1 by
    (age, battery), all as Fractions."""
    U, R = _blocks(m)
    B1, L = send.shape
    blocks = [[[Fraction(float(x)) for x in row] for row in U[a]] for a in (IDLE, TRANSMIT)]
    reset = [[Fraction(float(x)) for x in row] for row in R[TRANSMIT]]
    paid = Fraction(m.weight * m.cost_reliable)
    unit = [[Fraction(int(i == j)) for j in range(B1)] for i in range(B1)]
    sent = blocks[TRANSMIT]
    stay = _solve_exact([[unit[i][j] - sent[i][j] for j in range(B1)] for i in range(B1)], unit)

    def apply(P, x):
        return [sum((p * y for p, y in zip(row, x) if p), Fraction(0)) for row in P]

    slope = [sum(row) for row in stay]
    kappa0 = apply(stay, [a + paid * (i == 0) for i, a in enumerate(apply(sent, slope))])
    MR = [[sum(s * r[j] for s, r in zip(row, reset)) for j in range(B1)] for row in stay]
    # h_a as affine forms in (h_1, g, 1), from age L + 1 down to 1
    forms = [None] * (L + 2)
    forms[L + 1] = [MR[i] + [-slope[i], (L + 1) * slope[i] + kappa0[i]] for i in range(B1)]
    for a in range(L, 0, -1):
        above = forms[a + 1]
        form = []
        for i in range(B1):
            act = TRANSMIT if send[i, a - 1] else IDLE
            row = [sum((p * f[k] for p, f in zip(blocks[act][i], above) if p), Fraction(0))
                   for k in range(B1 + 2)]
            if act == TRANSMIT:
                for j in range(B1):
                    row[j] += reset[i][j]
                row[B1 + 1] += paid * (i == 0)
            row[B1] -= 1
            row[B1 + 1] += a
            form.append(row)
        forms[a] = form
    # (I - A_h) h_1 - A_g g = A_1, with h_1 = 0 at battery_cap: that
    # unknown's column carries g instead
    A = forms[1]
    lhs = [[unit[i][j] - A[i][j] for j in range(B1 - 1)] + [-A[i][B1]] for i in range(B1)]
    x = [v for v, in _solve_exact(lhs, [[A[i][B1 + 1]] for i in range(B1)])]
    gain, h1 = x[-1], x[:-1] + [Fraction(0)]
    unknowns = h1 + [gain, Fraction(1)]
    kappa = [k + r - s * gain for k, r, s in zip(kappa0, apply(MR, h1), slope)]
    H = [[sum(c * u for c, u in zip(row, unknowns)) for row in forms[a]] for a in range(1, L + 1)]
    H += [[a * s + k for s, k in zip(slope, kappa)] for a in range(L + 1, L + 4)]
    back = apply(reset, h1)
    gaps = [
        [i - t - r - paid * (q == 0)
         for q, (i, t, r) in enumerate(zip(apply(blocks[IDLE], H[a]), apply(sent, H[a]), back))]
        for a in range(1, L + 2)
    ]
    return gain, H, gaps
