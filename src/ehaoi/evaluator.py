"""Policy evaluation along two independent routes.

``evaluate_exact`` analyzes the policy-induced Markov chain on the
truncated state space: it builds the sparse transition matrix, locates the
closed communicating class reachable from the system's start state
(age 1, empty battery), computes the stationary distribution on it
(direct linear solve up to 5000 states, damped power iteration beyond),
and returns exact long-run averages. If several closed classes were
reachable the long-run average would depend on chance, so that raises
ReducibleChainError; the kernel's one-step battery moves make this
impossible for sane policies, and any occurrence signals a bug.

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
DIRECT_SOLVE_MAX = 5000   # largest chain handed to the direct linear solve
POWER_RESIDUAL = 1e-13    # max-norm residual target for power iteration
POWER_MAX_ITER = 2_000_000
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


def _induced_chain(actions: np.ndarray, m: ModelParams) -> sparse.csr_matrix:
    n = state_count(m)
    idx, pr = successors(actions, m)
    rows = np.repeat(np.arange(n), 4)
    cols = idx.ravel()
    vals = pr.ravel()
    mask = vals > 0.0
    return sparse.csr_matrix((vals[mask], (rows[mask], cols[mask])), shape=(n, n))


def _periodic_chain(kind: Periodic, m: ModelParams) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Chain on (slot phase, state), phase outer, and its paid-transmission
    mask: phase 0 follows the schedule's transmit slot, the others idle."""
    n = state_count(m)
    T = kind.period
    base = np.arange(n)
    battery = _battery_of(m)
    send = np.ones(n, dtype=np.int64)
    if kind.skip_on_empty:
        send[battery == 0] = 0
    idle = np.zeros(n, dtype=np.int64)
    tables = [(act, successors(act, m)) for act in (send, idle)[: min(T, 2)]]
    rows, cols, vals = [], [], []
    paid_mass = []
    for r in range(T):
        act, (idx, pr) = tables[min(r, 1)]
        mask = pr.ravel() > 0.0
        rows.append((r * n + np.repeat(base, 4))[mask])
        cols.append((((r + 1) % T) * n + idx.ravel())[mask])
        vals.append(pr.ravel()[mask])
        paid_mass.append((act == TRANSMIT) & (battery == 0))
    P = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * T, n * T),
    )
    return P, np.concatenate(paid_mass)


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


def _stationary_dist(P: sparse.csr_matrix, method: str = "auto") -> np.ndarray:
    n = P.shape[0]
    if method == "auto":
        method = "direct" if n <= DIRECT_SOLVE_MAX else "power"
    if method == "direct":
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        if n <= 2000:
            A = P.toarray().T - np.eye(n)
            A[-1, :] = 1.0
            mu = np.linalg.solve(A, rhs)
        else:
            A = (P.T - sparse.identity(n, format="csr")).tolil()
            A[-1, :] = 1.0
            mu = sparse.linalg.spsolve(A.tocsc(), rhs)
    elif method == "power":
        # mixing with the identity keeps periodic chains from oscillating
        mu = np.full(n, 1.0 / n)
        for _ in range(POWER_MAX_ITER):
            stepped = mu @ P
            nxt = 0.5 * (mu + stepped)
            nxt /= nxt.sum()
            mu = nxt
            if np.abs(stepped - mu).max() <= POWER_RESIDUAL:
                break
        else:
            raise RuntimeError(
                f"power iteration failed to reach residual {POWER_RESIDUAL:g}"
            )
    else:
        raise ValueError(f"unknown method {method!r}")
    mu = np.clip(mu, 0.0, None)
    return mu / mu.sum()


def _aoi_of(m: ModelParams) -> np.ndarray:
    return np.tile(np.arange(1, m.delta_max + 1, dtype=float), m.battery_cap + 1)


def _battery_of(m: ModelParams) -> np.ndarray:
    return np.repeat(np.arange(m.battery_cap + 1), m.delta_max)


def evaluate_exact(kind: PolicyKind, m: ModelParams) -> EvalReport:
    """Exact long-run averages of a stationary policy on the truncated chain."""
    if not is_stationary(kind):
        raise ValueError(
            "periodic policies are time-dependent; use evaluate_periodic_exact"
        )
    actions = stationary_actions(kind, m)
    P = _induced_chain(actions, m)
    cls = _recurrent_class(P, start=0)  # (age 1, battery 0) is state 0
    mu = _stationary_dist(P[np.ix_(cls, cls)].tocsr())
    average_aoi = float(mu @ _aoi_of(m)[cls])
    paid = (actions == TRANSMIT) & (_battery_of(m) == 0)
    rate = float(mu[paid[cls]].sum())
    return EvalReport(
        average_cost=average_aoi + m.weight * m.cost_reliable * rate,
        average_aoi=average_aoi,
        reliable_energy_rate=rate,
    )


def evaluate_periodic_exact(kind: Periodic, m: ModelParams) -> EvalReport:
    """Exact averages of a periodic schedule via the phase-augmented chain.

    The product chain over (state, slot mod period) makes the schedule
    stationary; it is solved directly regardless of size since each row
    still has at most four entries.
    """
    if not isinstance(kind, Periodic):
        raise ValueError(f"expected a Periodic policy, got {kind!r}")
    P, paid = _periodic_chain(kind, m)
    cls = _recurrent_class(P, start=0)  # (age 1, battery 0) at phase 0
    mu = _stationary_dist(P[np.ix_(cls, cls)].tocsr(), method="direct")
    average_aoi = float(mu @ np.tile(_aoi_of(m), kind.period)[cls])
    rate = float(mu[paid[cls]].sum())
    return EvalReport(
        average_cost=average_aoi + m.weight * m.cost_reliable * rate,
        average_aoi=average_aoi,
        reliable_energy_rate=rate,
    )


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
