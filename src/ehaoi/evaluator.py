"""Policy evaluation along two independent routes.

``evaluate_exact`` analyzes the policy-induced Markov chain on the
truncated state space: it builds the sparse transition matrix, locates the
closed communicating class reachable from the system's start state
(age 1, empty battery), computes the stationary distribution on it by an
exact linear level reduction over the age (no iteration, any size), and
returns exact long-run averages together with their evidence: the balance
residual of the distribution and its mass at the age cap. If several
closed classes were reachable the long-run average would depend on chance,
so that raises ReducibleChainError; the kernel's one-step battery moves
make this impossible for sane policies, and any occurrence signals a bug.

``simulate`` runs the physical system forward without any age truncation,
drawing the energy and channel Bernoulli streams from two independently
seeded PCG64 generators, and reports time averages with a batch-means 95%
confidence half-width.

Periodic schedules are not stationary on the base space; they get their own
exact evaluator on the chain augmented with the slot phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.stats import t as student_t

from .model import (
    TRANSMIT,
    DomainError,
    ModelParams,
    State,
    state_count,
    successors,
)
from .policies import (
    Explicit,
    Optimal,
    Periodic,
    PolicyKind,
    ZeroWait,
    is_stationary,
    stationary_actions,
)

RNG_NAME = "pcg64"        # numpy default_rng bit generator
CI_BATCHES = 20


class ReducibleChainError(RuntimeError):
    """More than one closed communicating class is reachable from the start
    state, so the long-run average is not well defined."""

    def __init__(self, message: str, closed_classes: int):
        super().__init__(message)
        self.closed_classes = closed_classes


@dataclass(frozen=True)
class StepRecord:
    """One slot of the physical system, before any truncation."""

    t: int
    state: State
    action: int
    energy_arrival: int    # 1 if a free packet arrived this slot
    channel_blocked: int   # 1 if the channel blocked this slot
    cost: float
    next_state: State


@dataclass(frozen=True)
class EvalReport:
    """Long-run averages; the cost always equals
    average_aoi + weight * cost_reliable * reliable_energy_rate."""

    average_cost: float
    average_aoi: float
    reliable_energy_rate: float  # paid transmissions per slot
    horizon: int | None = None   # simulation only
    seed: int | None = None      # simulation only
    ci_halfwidth: float | None = None  # simulation only, 95% batch means
    rng: str | None = None       # simulation only
    balance_residual: float | None = None  # exact only, ||mu P - mu||_1
    cap_mass: float | None = None  # exact only, stationary mass at age delta_max


def step(
    t: int,
    state: State,
    action: int,
    energy_arrival: int,
    channel_blocked: int,
    m: ModelParams,
) -> StepRecord:
    """Advance the physical system one slot. The age is not truncated."""
    if state.aoi < 1 or not 0 <= state.battery <= m.battery_cap:
        raise DomainError(f"invalid physical state {state}")
    if action not in (0, 1) or energy_arrival not in (0, 1) or channel_blocked not in (0, 1):
        raise DomainError("action, energy_arrival, channel_blocked must be 0 or 1")
    success = action == TRANSMIT and not channel_blocked
    next_aoi = 1 if success else state.aoi + 1
    drain = 1 if (action == TRANSMIT and state.battery > 0) else 0
    next_battery = min(state.battery + energy_arrival - drain, m.battery_cap)
    paid = m.weight * m.cost_reliable if (action == TRANSMIT and state.battery == 0) else 0.0
    return StepRecord(
        t=t,
        state=state,
        action=action,
        energy_arrival=int(energy_arrival),
        channel_blocked=int(channel_blocked),
        cost=float(state.aoi) + paid,
        next_state=State(next_aoi, next_battery),
    )


@dataclass(frozen=True)
class _Chain:
    """A chain on (slot phase, state), phase outer, in the views the exact
    evaluation needs."""

    idx: np.ndarray      # (size, 4) successor indices, laid out as ``successors``'
    prob: np.ndarray     # (size, 4) their probabilities
    matrix: sparse.csr_matrix
    paid: np.ndarray     # states that transmit on an empty battery


def _phase_chain(tables: list[np.ndarray], period: int, m: ModelParams) -> _Chain:
    """Chain on (slot phase, state): phase r takes the actions
    ``tables[min(r, len(tables) - 1)]`` and moves to phase r + 1 mod
    ``period``. A stationary policy is one table with period 1."""
    n = state_count(m)
    tables = tables[:period]
    moves = [successors(act, m) for act in tables]
    phase_of = [min(r, len(tables) - 1) for r in range(period)]
    idx = np.concatenate(
        [((r + 1) % period) * n + moves[t][0] for r, t in enumerate(phase_of)]
    )
    prob = np.concatenate([moves[t][1] for t in phase_of])
    # CSR straight from the rows, zero entries dropped: ``successors`` lists
    # a row's targets in decreasing index order, so reversed they come out
    # sorted, as a COO build would leave them
    size = idx.shape[0]
    live = prob[:, ::-1] > 0.0
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(live.sum(axis=1), out=indptr[1:])
    matrix = sparse.csr_matrix(
        (prob[:, ::-1][live], idx[:, ::-1][live], indptr), shape=(size, size)
    )
    empty = _battery_of(m) == 0
    paid = np.concatenate([(tables[t] == TRANSMIT) & empty for t in phase_of])
    return _Chain(idx, prob, matrix, paid)


def _periodic_chain(kind: Periodic, m: ModelParams) -> _Chain:
    """Phase 0 follows the schedule's transmit slot, the others idle."""
    n = state_count(m)
    send = np.ones(n, dtype=np.int64)
    if kind.skip_on_empty:
        send[_battery_of(m) == 0] = 0
    return _phase_chain([send, np.zeros(n, dtype=np.int64)], kind.period, m)


def _recurrent_class(P: sparse.csr_matrix, start: int) -> np.ndarray:
    """Indices of the closed communicating class the chain settles in when
    started from ``start``. Raises if that class is not unique."""
    _, labels = connected_components(P, directed=True, connection="strong")
    coo = P.tocoo()
    crossing = labels[coo.row] != labels[coo.col]
    open_labels = np.unique(labels[coo.row[crossing]])
    reachable = breadth_first_order(P, start, directed=True, return_predecessors=False)
    candidates = np.setdiff1d(np.unique(labels[reachable]), open_labels)
    if candidates.size != 1:
        raise ReducibleChainError(
            f"{candidates.size} closed communicating classes reachable from "
            f"the start state; the long-run average is ambiguous",
            int(candidates.size),
        )
    return np.flatnonzero(labels == candidates[0])


def _gth(P: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible stochastic matrix by GTH state
    reduction (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985). It never
    subtracts: each pivot is the sum of the eliminated state's exits."""
    A = np.array(P, dtype=float)
    n = A.shape[0]
    for k in range(n - 1, 0, -1):  # censor state k out of the chain
        into, out = A[:k, k], A[k, :k]
        into /= out.sum()
        A[:k, :k] += np.multiply.outer(into, out)
    pi = np.ones(n)
    total = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
        total += pi[k]
        if total > 1e150:  # the masses can span more than a double's range
            pi[: k + 1] /= total
            total = 1.0
    return pi / pi.sum()


def _level_stationary(chain: _Chain, cls: np.ndarray, period: int, m: ModelParams) -> np.ndarray:
    """Stationary distribution of ``chain`` on its closed class ``cls``, by
    linear level reduction with the age as the level (Latouche & Ramaswami,
    Introduction to Matrix Analytic Methods, SIAM 1999).

    Every move takes the age from a to min(a + 1, D) or resets it to 1, so
    with K = period * (battery_cap + 1) phase-battery pairs per level, U_a
    (age-advancing) and R_a (reset) are K x K blocks and, for a + 1 < D,

        pi_{a+1} = pi_a U_a,   pi_D = pi_{D-1} U_{D-1} (I - U_D)^-1,

    while pi_1 is the stationary vector of the reset chain G_1, given by
    G_D = (I - U_D)^-1 R_D and G_a = R_a + U_a G_{a+1}. G keeps only the
    columns of the class's age-1 states; each age step gathers the four
    successor rows of every state, where a reset's row is one of an
    identity block below G. At the cap the phase still turns: U_D takes
    phase r to r + 1 by a (battery_cap + 1)-square block U^r, so
    (I - U_D)^-1 is applied once around the phases, through
    W = U^0 U^1 ... U^{T-1}, never as a K x K matrix. A class without
    age-1 states lives at the cap (as under a never-transmit table) and is
    solved there alone. Returns the distribution in chain order, zero off
    the class.
    """
    D = m.delta_max
    B1 = m.battery_cap + 1
    K = period * B1
    inside = np.zeros((K, D), dtype=bool)  # (phase * battery, age)
    inside.flat[cls] = True
    # the successor rows by age: (age, phase * battery, successor)
    coef = chain.prob.reshape(K, D, 4).transpose(1, 0, 2).copy()
    by_age = chain.idx.reshape(K, D, 4).transpose(1, 0, 2)
    entry = np.flatnonzero(inside[:, 0])  # the class's age-1 states
    M = entry.size
    L = K + M + 1
    # a reset to an age-1 state reads that state's row of the identity
    # block below G; the last row (column M) collects the other resets
    ident = np.full(K, L - 1)
    ident[entry] = np.arange(K, K + M)
    rows = by_age // D  # successor's phase * battery
    reset = by_age % D == 0
    rows[reset] = ident[rows[reset]]
    # the cap by phase, [U^r | R^r]: U^r to the batteries of phase r + 1,
    # R^r to the columns of G; states off the class keep no moves
    width = B1 + M + 1
    cap = np.bincount(
        (np.arange(K)[:, None] * width
         + np.where(rows[-1] < K, rows[-1] % B1, rows[-1] - K + B1)).ravel(),
        (coef[-1] * inside[:, -1:]).ravel(),
        K * width,
    ).reshape(period, B1, width)
    U, R = cap[..., :B1], cap[..., B1:]
    W, C = U[-1], R[-1]  # W = U^0 U^1 ... U^{T-1}, C = R^0 + U^0 R^1 + ...
    for u, r in zip(U[-2::-1], R[-2::-1]):
        W, C = u @ W, r + u @ C
    mu = np.zeros((D, K))
    at_cap = mu[-1].reshape(period, B1)
    if M == 0:  # the class lives at the cap
        inflow = np.zeros((period, B1))
        phase0 = np.flatnonzero(inside[:B1, -1])
        at_cap[0, phase0] = _gth(W[np.ix_(phase0, phase0)])
    else:
        stay = np.linalg.inv(np.eye(B1) - W)
        G = np.eye(L, M + 1, -K)  # G_a on top of the identity block
        G_cap = G[:K].reshape(period, B1, M + 1)
        G_cap[0] = stay @ C
        for r in range(period - 1, 0, -1):
            G_cap[r] = R[r] + U[r] @ G_cap[(r + 1) % period]
        top, weights = G[:K, None, :], coef[:, :, None, :]
        for a in range(D - 2, -1, -1):
            np.matmul(weights[a], G[rows[a]], out=top)
        mu[0, entry] = _gth(G[entry, :M])
        flat = rows.reshape(D, -1)
        for a in range(D - 1):
            mu[a + 1] = np.bincount(flat[a], (mu[a, :, None] * coef[a]).ravel(), L)[:K]
        # pi_D = inflow (I - U_D)^-1, phase 0 first, once around the cycle
        inflow, around = at_cap.copy(), np.zeros(B1)
        for r in range(1, period):
            around = (around + inflow[r]) @ U[r]
        at_cap[0] = (inflow[0] + around) @ stay
    for r in range(1, period):
        at_cap[r] = inflow[r] + at_cap[r - 1] @ U[r - 1]
    mu = mu.T.ravel()
    return mu / mu.sum()


def _battery_of(m: ModelParams) -> np.ndarray:
    return np.repeat(np.arange(m.battery_cap + 1), m.delta_max)


def _stationary_dist(P: sparse.csr_matrix) -> np.ndarray:
    """Stationary distribution of an irreducible chain by one sparse direct
    solve, the last balance equation replaced by the normalization. The
    reference the level reduction is tested against."""
    n = P.shape[0]
    A = (P.T - sparse.identity(n, format="csr")).tolil()
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    mu = np.clip(sparse.linalg.spsolve(A.tocsc(), rhs), 0.0, None)
    return mu / mu.sum()


def _exact_report(chain: _Chain, period: int, m: ModelParams) -> EvalReport:
    cls = _recurrent_class(chain.matrix, start=0)  # (age 1, battery 0) at phase 0
    mu = _level_stationary(chain, cls, period, m)
    by_age = mu.reshape(-1, m.delta_max).sum(axis=0)
    average_aoi = float(by_age @ np.arange(1.0, m.delta_max + 1))
    rate = float(mu[chain.paid].sum())
    flow = np.bincount(chain.idx.ravel(), (mu[:, None] * chain.prob).ravel(), mu.size)
    return EvalReport(
        average_cost=average_aoi + m.weight * m.cost_reliable * rate,
        average_aoi=average_aoi,
        reliable_energy_rate=rate,
        balance_residual=float(np.abs(flow - mu).sum()),  # flow = mu P
        cap_mass=float(by_age[-1]),
    )


def evaluate_exact(kind: PolicyKind, m: ModelParams) -> EvalReport:
    """Exact long-run averages of a stationary policy on the truncated chain."""
    if not is_stationary(kind):
        raise ValueError(
            "periodic policies are time-dependent; use evaluate_periodic_exact"
        )
    return _exact_report(_phase_chain([stationary_actions(kind, m)], 1, m), 1, m)


def evaluate_periodic_exact(kind: Periodic, m: ModelParams) -> EvalReport:
    """Exact averages of a periodic schedule via the phase-augmented chain.

    The product chain over (slot mod period, state) makes the schedule
    stationary. Its moves still only advance or reset the age, so the same
    level reduction solves it, with the phase joining the battery level in
    each age block.
    """
    if not isinstance(kind, Periodic):
        raise ValueError(f"expected a Periodic policy, got {kind!r}")
    return _exact_report(_periodic_chain(kind, m), kind.period, m)


def _action_fn(kind: PolicyKind, m: ModelParams):
    """Specialized (aoi, battery, t) -> 0/1 closure for the simulation loop."""
    if isinstance(kind, ZeroWait):
        return lambda aoi, q, t: 1
    if isinstance(kind, Periodic):
        period, skip = kind.period, kind.skip_on_empty
        if skip:
            return lambda aoi, q, t: 1 if (t % period == 0 and q > 0) else 0
        return lambda aoi, q, t: 1 if t % period == 0 else 0
    if isinstance(kind, Optimal):
        thr = kind.thresholds.thresholds
        if len(thr) != m.battery_cap + 1:
            raise DomainError(
                f"expected {m.battery_cap + 1} thresholds, got {len(thr)}"
            )
        return lambda aoi, q, t: 1 if aoi >= thr[q] else 0
    if isinstance(kind, Explicit):
        if kind.actions.shape[0] != m.battery_cap + 1:
            raise DomainError("action table does not match battery_cap")
        table = kind.actions.tolist()
        last = kind.actions.shape[1]
        return lambda aoi, q, t: table[q][aoi - 1 if aoi < last else last - 1]
    raise TypeError(f"unknown policy kind {kind!r}")


def simulate(kind: PolicyKind, m: ModelParams, horizon: int, seed: int) -> EvalReport:
    """Monte Carlo estimate from one seeded run of the physical system.

    Starts at (age 1, empty battery). The energy and channel streams come
    from independent generators spawned off ``seed``. Averages use every
    slot; the confidence half-width uses 20 equal batches over the first
    20 * (horizon // 20) slots and is NaN for horizons below 20.
    """
    if not (isinstance(horizon, int) and horizon >= 1):
        raise DomainError(f"horizon must be an int >= 1, got {horizon}")
    act = _action_fn(kind, m)
    ss = np.random.SeedSequence(seed)
    seq_energy, seq_channel = ss.spawn(2)
    harvest = (np.random.default_rng(seq_energy).random(horizon) < m.lambda_e).tolist()
    blocked = (np.random.default_rng(seq_channel).random(horizon) < m.p_block).tolist()

    paid_price = m.weight * m.cost_reliable
    cap = m.battery_cap
    batch = horizon // CI_BATCHES
    batched = batch * CI_BATCHES
    batch_sums = [0.0] * CI_BATCHES

    aoi = 1
    q = 0
    aoi_sum = 0
    paid_count = 0
    for t in range(horizon):
        a = act(aoi, q, t)
        aoi_sum += aoi
        if a and q == 0:
            paid_count += 1
            c = aoi + paid_price
        else:
            c = float(aoi)
        if t < batched:
            batch_sums[t // batch] += c
        if a and not blocked[t]:
            next_aoi = 1
        else:
            next_aoi = aoi + 1
        q = q + harvest[t] - (1 if (a and q > 0) else 0)
        if q > cap:
            q = cap
        aoi = next_aoi

    average_aoi = aoi_sum / horizon
    rate = paid_count / horizon
    average_cost = average_aoi + paid_price * rate
    if horizon >= CI_BATCHES:
        means = np.array(batch_sums) / batch
        ci = float(
            student_t.ppf(0.975, CI_BATCHES - 1)
            * means.std(ddof=1)
            / np.sqrt(CI_BATCHES)
        )
    else:
        ci = float("nan")
    return EvalReport(
        average_cost=average_cost,
        average_aoi=average_aoi,
        reliable_energy_rate=rate,
        horizon=horizon,
        seed=seed,
        ci_halfwidth=ci,
        rng=RNG_NAME,
    )
