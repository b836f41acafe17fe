"""Policy evaluation along two independent routes.

``evaluate_exact`` analyzes the policy-induced Markov chain on the
truncated state space. Every move advances the age by one (capped at
``delta_max``) or resets it to 1, and from the age where the policy's
action table stops changing every age moves alike, so the chain is built
as per-age blocks on (phase, battery) with those ages collapsed into one.
On that lumped chain it locates the closed communicating class reachable
from the system's start state (age 1, empty battery), computes the
stationary distribution by an exact linear level reduction over the age (no
iteration, any size), and returns exact long-run averages together with
their evidence: the balance residual of the distribution and its mass at
the age cap. If several closed classes were reachable the long-run average
would depend on chance, so that raises ReducibleChainError; the kernel's
one-step battery moves make this impossible for sane policies, and any
occurrence signals a bug.

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
only, and no command loads more of scipy: the exact evaluation finds the
recurrent class with its own search over the lumped chain's CSR arrays, so
``scipy.sparse`` and ``scipy.sparse.csgraph`` are never imported. The
top-level import stays only for the benchmark's read of scipy's version
(ROADMAP direction 4).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@lru_cache(maxsize=8)
def _blocks(m: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The chain's moves as blocks on (phase, battery), by action.

    Every move takes the age from a to min(a + 1, delta_max) or resets it
    to 1, and the slot phase r to r + 1 mod the period. A row's moves
    depend only on its action and battery, so each action has a
    (battery_cap + 1)-square advancing block U and reset block R, row q
    holding ``transition``'s probabilities by the battery moved to.
    Cached; the arrays are read-only.
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


def _stationary(actions: np.ndarray, m: ModelParams) -> tuple[np.ndarray, float]:
    """Stationary distribution of the chain under ``actions`` (one base
    table per phase, laid end to end as ``stationary_actions`` gives them)
    on its closed class, by (age, phase, battery) and zero off the class,
    and its balance residual ||mu P - mu||_1.

    From W on, the first age (at least 2) from which every age's actions
    equal those at delta_max, the chain is the same at every age, so the
    class is the one ``_recurrent_class`` finds from (age 1, battery 0) at
    phase 0 on the chain with those ages lumped into one; the lumping is
    exact. The search reads that chain's moves as plain CSR arrays, not as
    a ``scipy.sparse`` matrix: no command loads ``scipy.sparse``, and the
    module's top-level ``import scipy`` stays only for the benchmark's
    version read (ROADMAP direction 4). Then a linear level reduction with
    the age as the level (Latouche & Ramaswami, Introduction to Matrix
    Analytic Methods, SIAM 1999): G_a, the probabilities of first reaching
    age 1 at each of the class's age-1 states, is R_a + U_a G_{a+1}. From W
    on it is the same at every age, G = (I - U)^-1 R with the rows off the
    class zero, solved once around the phases through U^0 U^1 ... U^{T-1},
    never as a (phase, battery)-square matrix. pi_1 is the stationary
    vector of the reset chain G_1, and pi_{a+1} = pi_a U_a below the cap D,
    where pi_D = pi_{D-1} U_{D-1} (I - U)^-1. A class without age-1 states
    lives at the cap (as under a never-transmit table) and is solved there
    alone. Below W the passes read the lumped chain's rows: a row off the
    class has no mass, and no class row moves to it.
    """
    U, R = _blocks(m)
    B1, D = m.battery_cap + 1, m.delta_max
    send = actions.reshape(-1, B1, D) == TRANSMIT  # (phase, battery, age)
    T = send.shape[0]
    K = T * B1
    W = int(np.flatnonzero((send != send[..., -1:]).any(axis=(0, 1))).max(initial=0)) + 2
    act = send[..., list(range(W - 1)) + [D - 1]].transpose(2, 0, 1).astype(np.intp)
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
    # the blocks from W on, by phase, the rows off the class zero; R keeps
    # the columns of those age-1 states, into which phase r resets at r + 1
    inside = np.zeros(W * K, dtype=bool)
    inside[cls] = True
    inside = inside[-K:].reshape(T, B1, 1)
    Ut = U[act[-1], q] * inside
    Rt = R[act[-1], q][..., entry % B1] * inside * (entry // B1 == after[:, None])[:, None]
    Wc, C = Ut[-1], Rt[-1]  # Wc = U^0 U^1 ... U^{T-1}, C = R^0 + U^0 R^1 + ...
    for u, r in zip(Ut[-2::-1], Rt[-2::-1]):
        Wc, C = u @ Wc, r + u @ C
    mu = np.zeros((D, T, B1))
    if M == 0:  # the class lives at the cap
        inflow = np.zeros((T, B1))
        phase0 = np.flatnonzero(inside[0])
        mu[-1, 0, phase0] = _gth(Wc[np.ix_(phase0, phase0)])
    else:
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
        mu[0].flat[entry] = _gth(X[entry])
        # forward, each advance adds to its age + 1 state in the order of
        # the states it comes from; resets go to a spare slot
        aging = np.where(cols < B1, K, index % K)
        for i in range(D - 1):
            k = min(i, W - 1)
            into = np.bincount(aging[k].ravel(), (mu[i, ..., None] * prob[k]).ravel(), K + 1)
            mu[i + 1].flat = into[:K]
        # pi_D = inflow (I - U)^-1, phase 0 first, once around the cycle
        inflow, around = mu[-1].copy(), np.zeros(B1)
        for r in range(1, T):
            around = (around + inflow[r]) @ Ut[r]
        mu[-1, 0] = (inflow[0] + around) @ stay
    for r in range(1, T):
        mu[-1, r] = inflow[r] + mu[-1, r - 1] @ Ut[r - 1]
    mu /= mu.sum()
    # flow = mu P, from the action table: a transmitting row moves by the
    # transmit blocks and an idle one by the idle block, into the next phase
    sent = mu * send.transpose(2, 0, 1)
    moved = ((mu - sent) @ U[IDLE] + sent @ U[TRANSMIT])[:, prev]
    flow = np.zeros_like(mu)
    flow[1:] = moved[:-1]
    flow[-1] += moved[-1]
    flow[0] = (sent.sum(axis=0) @ R[TRANSMIT])[prev]
    return mu, float(np.abs(flow - mu).sum())


def evaluate_exact(kind: PolicyKind, m: ModelParams) -> EvalReport:
    """Exact long-run averages of ``kind`` on the truncated chain.

    A periodic schedule is evaluated on the product chain over
    (slot mod period, state), which makes it stationary. Its moves still
    only advance or reset the age, so the same level reduction solves it,
    with the phase joining the battery level in each age block.
    ``cap_mass`` is the stationary mass at age delta_max.
    """
    actions = stationary_actions(kind, m)
    mu, residual = _stationary(actions, m)
    by_age = mu.reshape(m.delta_max, -1).sum(axis=1)
    average_aoi = float(by_age @ np.arange(1.0, m.delta_max + 1))
    # the paid states: battery 0, transmitting, by (age, phase)
    paid = actions.reshape(-1, m.battery_cap + 1, m.delta_max)[:, 0].T == TRANSMIT
    rate = float(mu[..., 0][paid].sum())
    return EvalReport(
        average_cost=average_aoi + m.weight * m.cost_reliable * rate,
        average_aoi=average_aoi,
        reliable_energy_rate=rate,
        balance_residual=residual,
        cap_mass=float(by_age[-1]),
    )


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
    for i, (ages, paid) in zip(owner, _run(machine, m, seed, stretches)):
        aoi_sum += int(ages.sum())
        paid_count += int(np.count_nonzero(paid))
        if batch and i < CI_BATCHES:
            costs = ages.astype(float)
            costs[paid] += paid_price
            costs[0] += batch_sums[i]  # the batch's running sum so far
            batch_sums[i] = float(np.cumsum(costs)[-1])  # in slot order, as +=

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
