"""Policy evaluation along two independent routes.

``evaluate_exact`` analyzes the policy-induced Markov chain with the age
never truncated, so ``delta_max`` changes none of its numbers. Every move
advances the age by one or resets it to 1, and from the age W where the
action table stops changing every age moves alike, so the chain is per-age
blocks on (phase, battery) with the ages from W on lumped into one. On that
chain it finds the closed class reachable from the start state (age 1,
empty battery), solves it by an exact level reduction over the age, with
the tail past W in closed form, and returns exact long-run averages with
their evidence: the balance residual and the tail's mass. Several
reachable closed classes raise ReducibleChainError (the one-step battery
moves rule that out for sane policies), and a class that never resets the
age, whose average age is infinite, raises UnboundedAgeError.

``simulate`` runs the physical system forward without any age truncation,
drawing the energy and channel Bernoulli streams from two independently
seeded PCG64 generators, and reports time averages with a batch-means 95%
confidence half-width over 20 batches, scaled by the 97.5% Student-t
quantile with 19 degrees of freedom (hard-coded as ``T_975_19``, so the
package needs no ``scipy.stats``). It is table-driven: a policy decides
from the battery, the age capped where the policy stops telling ages apart
and, for a periodic schedule, whether the slot is scheduled, so the run is a
finite-state machine whose tables come from ``decide`` and the simulator's
own one-slot rule, never from the exact side's blocks. One table
lookup per block of slots carries the state; everything else is array work,
one stretch of at most ``STRETCH_SLOTS`` slots at a time, mostly in place:
the slots' symbols and states fill (block, slot) grids, and the ages come
from one running maximum. Every report is bit-identical to stepping the
slots one by one with ``decide`` and ``step``.

A periodic schedule is not stationary on the base space, but it is on the
chain augmented with the slot phase. ``stationary_actions`` gives its
action table there, one base table per phase, and ``evaluate_exact``
solves that chain like any other; ``evaluate_periodic_exact`` is the same
evaluation for periodic schedules only.

Importing this module loads numpy and the top-level ``scipy`` package
only; the recurrent class is found by this module's own search, so no
command loads ``scipy.sparse`` or ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
# Nothing here uses scipy, but the import stays until the benchmark reads
# versions another way (ROADMAP direction 4): perfbench/worker.py reads
# sys.modules["scipy"].__version__ right after `import ehaoi.cli`, and
# test_import_loads_top_level_scipy_only pins it.
import scipy  # the top level only; no command loads scipy.sparse

from .model import (
    IDLE,
    TRANSMIT,
    DomainError,
    ModelParams,
    State,
    _coefficients,
    is_int,
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
STRETCH_SLOTS = 1 << 16   # most slots the simulator holds in memory at once


class ReducibleChainError(RuntimeError):
    """More than one closed communicating class is reachable from the start
    state, so the long-run average is not well defined."""

    def __init__(self, message: str, closed_classes: int):
        super().__init__(message)
        self.closed_classes = closed_classes


class UnboundedAgeError(RuntimeError):
    """Nothing in the chain's closed class resets the age: no finite average."""

    def __init__(self, message: str = "no state of the closed class resets the age: "
                 "the average age is unbounded"):
        super().__init__(message)


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
    cap_mass: float | None = None  # exact only, tail mass: ages >= W (see _stationary)


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


@lru_cache(maxsize=8)
def _blocks(m: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The chain's moves as blocks on (phase, battery), by action.

    Every move takes the age from a to a + 1 or resets it to 1, and the
    slot phase r to r + 1 mod the period. A row's moves depend only on its
    action and battery, so each action has a (battery_cap + 1)-square
    advancing block U and reset block R, row q holding ``transition``'s
    probabilities by the battery moved to. Cached; the arrays are read-only.
    """
    (up, stay), (c0, c1, c2, c3) = _coefficients(m)
    B1 = m.battery_cap + 1
    q = np.arange(B1)
    spent = np.maximum(q - 1, 0)  # an empty battery pays for backup
    U, R = np.zeros((2, 2, B1, B1))
    U[IDLE, q, np.minimum(q + 1, B1 - 1)] = up
    U[IDLE, q, q] = stay
    U[IDLE, -1, -1] = 1.0  # a full battery idles in place
    U[TRANSMIT, q, spent + 1], R[TRANSMIT, q, spent + 1] = c0, c1
    U[TRANSMIT, q, spent], R[TRANSMIT, q, spent] = c2, c3
    U.flags.writeable = R.flags.writeable = False
    return U, R


def _recurrent_class(indptr: np.ndarray, indices: np.ndarray, start: int) -> np.ndarray:
    """Indices, sorted, of the closed communicating class the chain settles
    in when started from ``start``; state v moves to
    ``indices[indptr[v]:indptr[v + 1]]``. Raises if that class is not
    unique.

    Tarjan's strongly-connected-components search (SIAM J. Comput. 1(2),
    1972), iterative so that no chain is too long for it, over the states
    reachable from ``start`` only. A class is complete when its root
    leaves the path, and every class it has an edge into is complete
    before it; so an edge to a completed state leaves the class, an edge
    to a state still on the stack stays inside it, and the class is
    closed if no edge of its states leaves it.
    """
    ptr, succ = indptr.tolist(), indices.tolist()
    n = len(ptr) - 1
    number = [0] * n  # visit order from 1; 0 until visited
    low = [0] * n     # the least number on the stack reached from the subtree
    done = [False] * n  # in a completed class
    leaves = [False] * n  # an edge of the state leaves its class
    stack: list[int] = []
    closed: list[list[int]] = []
    visited = 1
    number[start] = low[start] = 1
    stack.append(start)
    path, edge = [start], [ptr[start]]  # the search path, each state's next edge
    while path:
        v = path[-1]
        for i in range(edge[-1], ptr[v + 1]):
            w = succ[i]
            if not number[w]:  # descend to w, back at edge i + 1 later
                edge[-1] = i + 1
                visited += 1
                number[w] = low[w] = visited
                stack.append(w)
                path.append(w)
                edge.append(ptr[w])
                break
            if done[w]:
                leaves[v] = True
            elif number[w] < low[v]:
                low[v] = number[w]
        else:  # every edge of v seen
            path.pop()
            edge.pop()
            if low[v] == number[v]:  # v roots a class: pop it
                members, u = [], -1
                while u != v:
                    u = stack.pop()
                    done[u] = True
                    members.append(u)
                if not any(leaves[u] for u in members):
                    closed.append(members)
            if path:  # back in the parent, through its edge to v
                p = path[-1]
                if done[v]:
                    leaves[p] = True
                elif low[v] < low[p]:
                    low[p] = low[v]
    if len(closed) != 1:
        raise ReducibleChainError(
            f"{len(closed)} closed communicating classes reachable from "
            f"the start state; the long-run average is ambiguous",
            len(closed),
        )
    return np.sort(np.array(closed[0], dtype=np.intp))


def _gth(P: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible stochastic matrix by GTH state
    reduction (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985). It never
    subtracts: each pivot is the sum of the eliminated state's exits, at
    least 1e-150; below that (or where it underflowed to 0) the states
    before it hold no visible mass, and the floor keeps every mass finite."""
    A = np.array(P, dtype=float)
    n = A.shape[0]
    for k in range(n - 1, 0, -1):  # censor state k out of the chain
        into, out = A[:k, k], A[k, :k]
        into /= max(out.sum(), 1e-150)
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


def _around(v: np.ndarray, Ut: np.ndarray, stay: np.ndarray) -> np.ndarray:
    """v (I - U)^-1 by (phase, battery), U taking phase r to r + 1 by Ut[r]:
    phase 0 through stay = (I - U^0 ... U^{T-1})^-1, then phase by phase."""
    around = np.zeros(v.shape[1])
    for r in range(1, len(v)):
        around = (around + v[r]) @ Ut[r]
    y = np.empty_like(v)
    y[0] = (v[0] + around) @ stay
    for r in range(1, len(v)):
        y[r] = v[r] + y[r - 1] @ Ut[r - 1]
    return y


def _stationary(actions: np.ndarray, m: ModelParams) -> tuple[np.ndarray, float, float]:
    """Stationary distribution, with the age never truncated, of the chain
    under ``actions`` (one base table per phase, as ``stationary_actions``
    lays them out; later ages take the last column) on its closed class:
    by (age, phase, battery), zero off the class, the last level W holding
    every age from W on. Also the tail's age excess sum_k k pi_{W+k}, and
    the balance residual ||mu P - mu||_1 on those W levels.

    From W, the first age (at least 2) from which the actions equal the
    last column, every age moves alike, so ``_recurrent_class`` finds the
    class on the chain with those ages lumped into one. Then a level
    reduction over the age (Latouche & Ramaswami, Introduction to Matrix
    Analytic Methods, SIAM 1999): G_a, the probabilities of first reaching
    each of the class's age-1 states, is R_a + U_a G_{a+1}, and
    G = (I - U)^-1 R from W on, the rows off the class zero. pi_1 is the
    stationary vector of G_1, pi_{a+1} = pi_a U_a up to pi_W, the tail's
    mass is x = pi_W (I - U)^-1 and its excess the sum of
    (x - pi_W)(I - U)^-1. A class without age-1 states never resets the
    age and raises UnboundedAgeError.
    """
    U, R = _blocks(m)
    B1 = m.battery_cap + 1
    send = actions.reshape(-1, B1, m.delta_max) == TRANSMIT  # (phase, battery, age)
    T = send.shape[0]
    K = T * B1
    W = int(np.flatnonzero((send != send[..., -1:]).any(axis=(0, 1))).max(initial=0)) + 2
    act = send[..., list(range(W - 1)) + [-1]].transpose(2, 0, 1).astype(np.intp)
    q = np.arange(B1)
    prev, after = (np.arange(T) - 1) % T, (np.arange(T) + 1) % T  # phases r - 1, r + 1
    # the lumped chain, age outer, in CSR form; a row lists its resets,
    # then its advances, each by the battery moved to
    moves = np.concatenate([R, U], axis=-1)
    cols = np.argsort(moves == 0, axis=-1, kind="stable")[..., :4][act, q]
    prob = moves[act[..., None], q[:, None], cols]
    aged = np.minimum(np.arange(1, W + 1), W - 1)[:, None, None, None] * K - B1
    index = np.where(cols < B1, cols, cols + aged) + after[:, None, None] * B1
    live = prob > 0.0
    indptr = np.zeros(W * K + 1, dtype=np.intp)
    np.cumsum(live.sum(axis=-1), out=indptr[1:])
    cls = _recurrent_class(indptr, index[live], start=0)
    entry = cls[cls < K]  # the class's age-1 states, by phase * battery
    M = entry.size
    if M == 0:
        raise UnboundedAgeError()
    # the blocks from W on, by phase, the rows off the class zero; R keeps
    # the columns of those age-1 states, into which phase r resets at r + 1
    inside = np.isin(np.arange((W - 1) * K, W * K), cls).reshape(T, B1, 1)
    Ut = U[act[-1], q] * inside
    Rt = R[act[-1], q][..., entry % B1] * inside * (entry // B1 == after[:, None])[:, None]
    Wc, C = Ut[-1], Rt[-1]  # Wc = U^0 U^1 ... U^{T-1}, C = R^0 + U^0 R^1 + ...
    for u, r in zip(Ut[-2::-1], Rt[-2::-1]):
        Wc, C = u @ Wc, r + u @ C
    stay = np.linalg.inv(np.eye(B1) - Wc)
    G = np.empty((T, B1, M))
    G[0] = stay @ C
    for r in range(T - 1, 0, -1):
        G[r] = Rt[r] + Ut[r] @ G[(r + 1) % T]
    # below W, G_a row by row from the lumped chain's moves: an advance
    # reads G_{a+1}'s row, a reset the row of an identity block for its
    # age-1 state if that is in the class (else a zero row)
    place = np.full(K, K + M)
    place[entry] = np.arange(K, K + M)
    rows = np.where(cols < B1, place[index % K], index % K)
    X, Xn = np.zeros((2, K + M + 1, M))
    X[K : K + M] = Xn[K : K + M] = np.eye(M)
    X[:K] = G.reshape(K, M)
    weights = prob[..., None, :]
    for i in range(W - 2, -1, -1):
        np.matmul(weights[i], np.take(X, rows[i], axis=0), out=Xn[:K].reshape(T, B1, 1, M))
        X, Xn = Xn, X
    mu = np.zeros((W, T, B1))
    mu[0].flat[entry] = _gth(X[entry])
    # forward to pi_W, each advance adding to its age + 1 state in the
    # order of the states it comes from; resets go to a spare slot
    aging = np.where(cols < B1, K, index % K)
    for i in range(W - 1):
        into = np.bincount(aging[i].ravel(), (mu[i, ..., None] * prob[i]).ravel(), K + 1)
        mu[i + 1].flat = into[:K]
    inflow = mu[-1].copy()
    mu[-1] = _around(inflow, Ut, stay)
    excess = _around(mu[-1] - inflow, Ut, stay).sum()
    total = mu.sum()
    mu /= total
    # flow = mu P on the W levels: a row moves by its action's blocks into
    # the next phase, the tail level into itself too
    sent = mu * act
    moved = ((mu - sent) @ U[IDLE] + sent @ U[TRANSMIT])[:, prev]
    flow = np.concatenate([(sent.sum(axis=0) @ R[TRANSMIT])[None, prev], moved[:-1]])
    flow[-1] += moved[-1]
    return mu, float(excess / total), float(np.abs(flow - mu).sum())


def evaluate_exact(kind: PolicyKind, m: ModelParams) -> EvalReport:
    """Exact long-run averages of ``kind`` on the chain whose age is never
    truncated; ``delta_max`` does not change them.

    A threshold above delta_max means "transmit from that age on", as in
    ``decide``: an Optimal kind's table is built on the model widened to
    its largest threshold. A periodic schedule is evaluated on the product
    chain over (slot mod period, state), which makes it stationary, with
    the phase joining the battery level in each age block. ``cap_mass`` is
    the mass at the ages from W on, where the action table stops changing.
    Raises UnboundedAgeError if nothing in the closed class resets the age.
    """
    if isinstance(kind, Optimal):
        m = replace(m, delta_max=max(m.delta_max, *kind.thresholds))
    actions = stationary_actions(kind, m)
    mu, excess, residual = _stationary(actions, m)
    W = len(mu)
    by_age = mu.reshape(W, -1).sum(axis=1)
    average_aoi = float(by_age @ np.arange(1.0, W + 1) + excess)
    # the paid states: battery 0, transmitting, at the W levels by phase
    paid = actions.reshape(-1, m.battery_cap + 1, m.delta_max)[:, 0, list(range(W - 1)) + [-1]]
    rate = float(mu[..., 0][paid.T == TRANSMIT].sum())
    cost = average_aoi + m.weight * m.cost_reliable * rate
    return EvalReport(cost, average_aoi, rate, balance_residual=residual, cap_mass=float(by_age[-1]))


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
        thr = kind.thresholds
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
    slots before the stretch's first reset continuing the carried-in age.
    The stretch buffers are allocated once per run, for the longest
    stretch, so the yielded arrays are views that the next stretch
    overwrites."""
    bits, k, move, table = machine.bits, machine.block, machine.move, machine.table
    S = 1 << bits
    powers = S ** np.arange(k)
    energy, channel = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    t = 0
    state = 0  # (battery 0, age 1), times S
    aoi = 1
    cap = max(sizes)
    draw_buf = np.empty(cap)
    harvest_buf = np.empty(cap, dtype=bool)
    grid_buf = np.empty((-(-cap // k), k), dtype=np.intp)
    code_buf = np.empty(len(grid_buf), dtype=np.intp)
    state_buf = np.empty_like(grid_buf)
    count = np.arange(1, cap + 1)
    origin_buf = np.empty(cap, dtype=np.intp)
    reset_buf = np.empty(cap, dtype=machine.reset.dtype)
    paid_buf = np.empty(cap, dtype=machine.paid.dtype)
    for n in sizes:
        # the symbols, straight into the zero-padded (block, slot) grid
        blocks = -(-n // k)
        grid = grid_buf[:blocks]
        grid.reshape(-1)[n:] = 0
        flat = grid.reshape(-1)[:n]
        np.less(channel.random(out=draw_buf[:n]), m.p_block, out=flat, casting="unsafe")
        flat <<= 1
        flat += np.less(energy.random(out=draw_buf[:n]), m.lambda_e, out=harvest_buf[:n])
        if machine.period > 1:
            flat[-t % machine.period :: machine.period] += 4  # t % period == 0
        # first slot lowest; exact in integers
        code = np.matmul(grid, powers, out=code_buf[:blocks])
        # the sequential part: each block's first state from the one before
        s = state * S ** (k - 1)
        idx = state_buf[:blocks]
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
        reset = np.take(machine.reset, idx, out=reset_buf[:n])
        origin = origin_buf[:n]
        np.multiply(count[: n - 1], reset[:-1], out=origin[1:])
        first = int(reset.argmax())
        origin[: first + 1 if reset[first] else n] = 1 - aoi
        ages = np.subtract(count[:n], np.maximum.accumulate(origin, out=origin), out=origin)
        aoi = 1 if reset[-1] else int(ages[-1]) + 1
        t += n
        yield ages, np.take(machine.paid, idx, out=paid_buf[:n])


def check_run(horizon: int, seed: int) -> None:
    """Raise DomainError unless ``simulate`` accepts ``horizon`` and ``seed``."""
    if not (is_int(horizon) and horizon >= 1):
        raise DomainError(f"horizon must be an int >= 1, got {horizon!r}")
    if not (is_int(seed) and seed >= 0):
        raise DomainError(f"seed must be an int >= 0, got {seed!r}")


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
    array operations, one stretch of at most ``STRETCH_SLOTS`` slots at a
    time, so memory does not grow with the horizon. A CI batch longer than
    that runs as several stretches. Each stretch draws its own piece of the
    two streams, and each batch sums its costs in slot order, carrying the
    running sum from one stretch to the next, so every field is
    bit-identical to stepping the slots one by one with ``decide`` and
    ``step``.
    """
    check_run(horizon, seed)
    machine = _machine(kind, m, horizon)
    paid_price = m.weight * m.cost_reliable
    batch = horizon // CI_BATCHES
    rest = horizon - batch * CI_BATCHES  # in the averages, not in the CI
    sizes = [batch] * CI_BATCHES + [rest] if batch else [horizon]
    # each batch as stretches of at most STRETCH_SLOTS slots, with the
    # batch each stretch belongs to
    cap = STRETCH_SLOTS
    owner, stretches = zip(
        *((i, min(cap, n - s)) for i, n in enumerate(sizes) for s in range(0, n, cap))
    )

    aoi_sum = 0
    paid_count = 0
    batch_sums = [0.0] * CI_BATCHES
    cost_buf = np.empty(max(stretches))
    for i, (ages, paid) in zip(owner, _run(machine, m, seed, stretches)):
        aoi_sum += int(ages.sum())
        paid_count += int(np.count_nonzero(paid))
        if batch and i < CI_BATCHES:
            costs = cost_buf[: len(ages)]
            costs[:] = ages
            np.add(costs, paid_price, out=costs, where=paid)
            costs[0] += batch_sums[i]  # the batch's running sum so far
            batch_sums[i] = float(np.cumsum(costs, out=costs)[-1])  # in slot order, as +=

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
