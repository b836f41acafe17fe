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
confidence half-width over 20 batches, scaled by the 97.5% Student-t
quantile with 19 degrees of freedom (hard-coded as ``T_975_19``, so the
package needs no ``scipy.stats``). It is table-driven: a policy decides
from the battery, the age capped where the policy stops telling ages apart
and, for a periodic schedule, whether the slot is scheduled, so the run is a
finite-state machine whose tables come from ``decide`` and the simulator's
own one-slot rule, never from the exact side's ``successors``. One table
lookup per block of slots carries the state; everything else is array work,
one CI batch at a time, mostly in place: the slots' symbols and states fill
(block, slot) grids, and the ages come from one running maximum. Every
report is bit-identical to stepping the slots one by one with ``decide``
and ``step``.

A periodic schedule is not stationary on the base space, but it is on the
chain augmented with the slot phase. ``stationary_actions`` gives its
action table there, one base table per phase, and ``evaluate_exact``
solves that chain like any other; ``evaluate_periodic_exact`` is the same
evaluation for periodic schedules only.

Importing this module loads numpy and the top-level ``scipy`` package only.
``scipy.sparse`` and ``scipy.sparse.csgraph`` (about 0.3 s and 30 MiB
together) load on the first exact evaluation, in the functions that build
the chain and find its recurrent class, so a command that only solves or
simulates never pays for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# Only annotations name scipy here, but the import stays: the benchmark
# (perfbench/worker.py) reads sys.modules["scipy"].__version__ right after
# `import ehaoi.cli`, and test_import_loads_top_level_scipy_only pins it.
import scipy  # the top level only; scipy.sparse and csgraph load where used

from .model import (
    TRANSMIT,
    DomainError,
    ModelParams,
    State,
    is_int,
    state_count,
    successors,
)
from .policies import (
    Explicit,
    Optimal,
    Periodic,
    PolicyKind,
    ZeroWait,
    decide,
    stationary_actions,
)

RNG_NAME = "pcg64"        # numpy default_rng bit generator
CI_BATCHES = 20
# The batch-means 95% CI uses the 97.5% quantile of Student's t with
# CI_BATCHES - 1 = 19 degrees of freedom, the exact double that
# scipy.stats.t.ppf(0.975, 19) returns; the two change together.
T_975_19 = 2.0930240544083087  # 0x1.0be83653b666cp+1
assert CI_BATCHES == 20, "T_975_19 is the t quantile for 19 degrees of freedom"
BLOCK_SLOTS = 4           # slots per simulator table lookup, fewer if
TABLE_ENTRIES = 1 << 18   # the block table would outgrow this


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
    matrix: scipy.sparse.csr_matrix
    paid: np.ndarray     # states that transmit on an empty battery


def _phase_chain(actions: np.ndarray, m: ModelParams) -> _Chain:
    """Chain on (slot phase, state) under ``actions``, one base table per
    phase laid end to end as ``stationary_actions`` gives them: phase r
    follows its table and moves to phase r + 1 mod the number of tables. A
    stationary policy is one table, one phase."""
    from scipy import sparse

    n = state_count(m)
    size = actions.size
    period = size // n
    idx, prob = successors(actions, m)
    # every move lands in the next phase's copy of the states
    idx.reshape(period, -1)[:] += (np.arange(1, period + 1) % period * n)[:, None]
    # CSR straight from the rows, zero entries dropped: ``successors`` lists
    # a row's targets in decreasing index order, so reversed they come out
    # sorted, as a COO build would leave them
    live = prob[:, ::-1] > 0.0
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(live.sum(axis=1), out=indptr[1:])
    matrix = sparse.csr_matrix(
        (prob[:, ::-1][live], idx[:, ::-1][live], indptr), shape=(size, size)
    )
    paid = (actions == TRANSMIT) & (np.arange(size) % n < m.delta_max)  # battery 0
    return _Chain(idx, prob, matrix, paid)


def _recurrent_class(P: scipy.sparse.csr_matrix, start: int) -> np.ndarray:
    """Indices of the closed communicating class the chain settles in when
    started from ``start``. Raises if that class is not unique."""
    from scipy.sparse import csgraph

    count, labels = csgraph.connected_components(P, directed=True, connection="strong")
    row_labels = labels[np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))]
    closed = np.ones(count, dtype=bool)
    closed[row_labels[row_labels != labels[P.indices]]] = False  # an edge leaves
    reachable = csgraph.breadth_first_order(
        P, start, directed=True, return_predecessors=False
    )
    reached = np.zeros(count, dtype=bool)
    reached[labels[reachable]] = True
    candidates = np.flatnonzero(reached & closed)
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


def _level_stationary(chain: _Chain, cls: np.ndarray, m: ModelParams) -> np.ndarray:
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
    K = chain.prob.shape[0] // D
    period = K // B1
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


def _exact_report(chain: _Chain, m: ModelParams) -> EvalReport:
    cls = _recurrent_class(chain.matrix, start=0)  # (age 1, battery 0) at phase 0
    mu = _level_stationary(chain, cls, m)
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
    """Exact long-run averages of ``kind`` on the truncated chain.

    A periodic schedule is evaluated on the product chain over
    (slot mod period, state), which makes it stationary. Its moves still
    only advance or reset the age, so the same level reduction solves it,
    with the phase joining the battery level in each age block.
    """
    return _exact_report(_phase_chain(stationary_actions(kind, m), m), m)


def evaluate_periodic_exact(kind: Periodic, m: ModelParams) -> EvalReport:
    """``evaluate_exact`` for periodic schedules only."""
    if not isinstance(kind, Periodic):
        raise ValueError(f"expected a Periodic policy, got {kind!r}")
    return evaluate_exact(kind, m)


@dataclass(frozen=True)
class _Machine:
    """The simulator as a finite-state machine.

    A policy decides from the battery q, the capped age min(aoi, A) and, for
    a periodic schedule, whether the slot is scheduled; so (q, capped age)
    is the state, and each slot reads a symbol of ``bits`` bits: harvest
    (bit 0), blocked (bit 1) and, when ``period`` > 1, t % period == 0
    (bit 2). The one-slot tables are indexed by state * 2**bits + symbol;
    ``table`` does ``block`` slots in one lookup, indexed by
    state * 2**(bits * block) + code, the code packing the block's symbols
    first slot lowest, and holds the next state in that same scale.
    """

    bits: int
    period: int
    move: np.ndarray   # next state * 2**bits
    paid: np.ndarray   # the slot transmits on an empty battery
    reset: np.ndarray  # the slot's update gets through
    block: int
    table: list[int]


@lru_cache(maxsize=4)
def _machine(kind: PolicyKind, m: ModelParams, horizon: int) -> _Machine:
    """Tabulate ``decide`` on every (slot class, battery, capped age) and
    step the physics once from every state and symbol.

    Cached, so the seeds of one command share one machine: its arrays are
    read-only and ``_run`` never writes to its table."""
    levels = m.battery_cap + 1
    if isinstance(kind, Optimal):
        # a row whose threshold exceeds the horizon never transmits, so the
        # ages need telling apart only up to the other rows' thresholds
        thr = kind.thresholds.thresholds
        rows, span = len(thr), max((a for a in thr if a <= horizon), default=1)
    elif isinstance(kind, Explicit):
        rows, span = kind.actions.shape
    elif isinstance(kind, (ZeroWait, Periodic)):
        rows, span = levels, 1
    else:
        raise TypeError(f"unknown policy kind {kind!r}")
    if rows != levels:
        raise DomainError(f"policy has {rows} battery levels, the model {levels}")
    # no age in the run exceeds the horizon, so a wider table decides nothing
    A = min(span, horizon)
    period = kind.period if isinstance(kind, Periodic) else 1
    slots = (1, 0) if period > 1 else (0,)  # an unscheduled, a scheduled t
    decision = np.array(
        [[[decide(kind, State(a, q), t) for a in range(1, A + 1)]
          for q in range(levels)] for t in slots],
        dtype=bool,
    )
    bits = 1 + len(slots)
    S = 1 << bits
    K = levels * A

    # one slot from every (state, symbol), as ``step`` moves it
    state, symbol = np.divmod(np.arange(K * S), S)
    q, age = np.divmod(state, A)  # age: capped age - 1
    act = decision[symbol >> 2, q, age]
    reset = act & (symbol & 2 == 0)
    drain = act & (q > 0)
    q_next = np.minimum(q + (symbol & 1) - drain, m.battery_cap)
    age_next = np.where(reset, 0, np.minimum(age + 1, A - 1))
    move = (q_next * A + age_next) * S

    k = BLOCK_SLOTS
    while k > 1 and K * S**k > TABLE_ENTRIES:
        k -= 1
    state, code = np.divmod(np.arange(K * S**k), S**k)
    s = state * S
    for j in range(k):
        s = move[s + (code >> (bits * j) & S - 1)]
    # entries naming the same state share one int object: a compact list
    # keeps the lookups in cache
    scaled = list(range(0, K * S**k, S**k))
    table = [scaled[i] for i in (s >> bits).tolist()]
    paid = act & (q == 0)
    for arr in (move, paid, reset):
        arr.flags.writeable = False
    return _Machine(bits, period, move, paid, reset, k, table)


def _run(machine: _Machine, m: ModelParams, seed: int, sizes: list[int]):
    """Run ``machine`` from (age 1, empty battery) over consecutive stretches
    of ``sizes`` slots; yields each stretch's untruncated ages and the mask
    of its paid slots. Each stretch draws its own piece of the energy and
    channel streams, which continue as one draw of every slot would.

    Per stretch, the symbols are written straight into a zero-padded
    (block, slot) grid and one integer matrix product packs each block's
    code. The table walk, the only Python loop, gives every block's first
    state, written in place into the first column of the (block, slot)
    state grid; ``block`` - 1 gathers fill the other columns. The ages come
    from one running maximum over the positions after a reset, with the
    slots before the stretch's first reset continuing the carried-in age."""
    bits, k, move, table = machine.bits, machine.block, machine.move, machine.table
    S = 1 << bits
    energy, channel = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    t = 0
    state = 0  # (battery 0, age 1), times S
    aoi = 1
    for n in sizes:
        # the symbols, straight into the zero-padded (block, slot) grid
        blocks = -(-n // k)
        grid = np.zeros((blocks, k), dtype=np.intp)
        flat = grid.reshape(-1)[:n]
        np.less(channel.random(n), m.p_block, out=flat, casting="unsafe")
        flat <<= 1
        flat += energy.random(n) < m.lambda_e
        if machine.period > 1:
            flat[-t % machine.period :: machine.period] += 4  # t % period == 0
        code = grid @ S ** np.arange(k)  # first slot lowest; exact in integers
        # the sequential part: each block's first state from the one before
        s = state * S ** (k - 1)
        idx = np.empty((blocks, k), dtype=np.intp)
        idx[0, 0] = state
        idx[1:, 0] = [s := table[s + c] for c in code[:-1].tolist()]
        idx[1:, 0] >>= bits * (k - 1)
        idx[:, 0] += grid[:, 0]
        for j in range(1, k):
            np.add(move[idx[:, j - 1]], grid[:, j], out=idx[:, j])
        idx = idx.reshape(-1)[:n]
        state = int(move[idx[-1]])

        # a reset at slot j makes the age 1 at slot j + 1; before the first
        # reset the ages continue from the carried-in one
        reset = machine.reset[idx]
        ages = np.arange(1, n + 1)
        origin = np.empty(n, dtype=np.intp)
        np.multiply(ages[:-1], reset[:-1], out=origin[1:])
        first = int(reset.argmax())
        origin[: first + 1 if reset[first] else n] = 1 - aoi
        ages -= np.maximum.accumulate(origin, out=origin)
        aoi = 1 if reset[-1] else int(ages[-1]) + 1
        t += n
        yield ages, machine.paid[idx]


def simulate(kind: PolicyKind, m: ModelParams, horizon: int, seed: int) -> EvalReport:
    """Monte Carlo estimate from one seeded run of the physical system.

    Starts at (age 1, empty battery). The energy and channel streams come
    from independent generators spawned off ``seed``. Averages use every
    slot; the confidence half-width uses 20 equal batches over the first
    20 * (horizon // 20) slots and is NaN for horizons below 20.

    The run is table-driven (``_Machine``): the only Python loop is one
    table lookup per block of slots, which finds the state at each block's
    start; the states inside the blocks, the paid slots, the untruncated
    age (rebuilt from the slots whose update got through) and the costs are
    array operations, one CI batch at a time. Each batch draws its own
    stretch of the two streams and sums its costs in slot order, so every
    field is bit-identical to stepping the slots one by one with ``decide``
    and ``step``.
    """
    if not (is_int(horizon) and horizon >= 1):
        raise DomainError(f"horizon must be an int >= 1, got {horizon!r}")
    if not (is_int(seed) and seed >= 0):
        raise DomainError(f"seed must be an int >= 0, got {seed!r}")
    machine = _machine(kind, m, horizon)
    paid_price = m.weight * m.cost_reliable
    batch = horizon // CI_BATCHES
    rest = horizon - batch * CI_BATCHES  # in the averages, not in the CI
    sizes = [batch] * CI_BATCHES + [rest] if batch else [horizon]

    aoi_sum = 0
    paid_count = 0
    batch_sums = []
    for i, (ages, paid) in enumerate(_run(machine, m, seed, [n for n in sizes if n])):
        aoi_sum += int(ages.sum())
        paid_count += int(np.count_nonzero(paid))
        if batch and i < CI_BATCHES:
            costs = ages.astype(float)
            costs[paid] += paid_price
            batch_sums.append(float(np.cumsum(costs)[-1]))  # in slot order, as +=

    average_aoi = aoi_sum / horizon
    rate = paid_count / horizon
    average_cost = average_aoi + paid_price * rate
    if horizon >= CI_BATCHES:
        means = np.array(batch_sums) / batch
        ci = float(T_975_19 * means.std(ddof=1) / np.sqrt(CI_BATCHES))
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
