"""Policy evaluation along two independent routes.

``evaluate_exact`` analyzes the policy-induced Markov chain with the age
never truncated, so ``delta_max`` changes none of its numbers. Every move
advances the age by one or resets it to 1, so the long-run averages are
renewal-reward ratios on the reset chain, the (phase, battery) at
successive resets: one backward walk over the ages gives it, the tail in
closed form, and GTH solves it on the closed class reachable from the
start state (age 1, empty battery). The report carries its evidence, the
balance residual and the tail's mass. Several reachable closed classes
raise ReducibleChainError (the one-step battery moves rule that out for
sane policies), and a class that never resets the age, whose average age
is infinite, raises UnboundedAgeError.

``simulate`` runs the physical system forward without any age truncation,
drawing the energy and channel Bernoulli streams from two independently
seeded PCG64 generators, and reports time averages with a batch-means 95%
confidence half-width over 20 batches, scaled by the 97.5% Student-t
quantile with 19 degrees of freedom (hard-coded as ``T_975_19``, so the
package needs no ``scipy.stats``). It is table-driven: a policy decides
from the battery, the age capped where the policy stops telling ages apart
and, for a periodic schedule, whether the slot is scheduled, so the run is a
finite-state machine whose tables come from ``decide`` and the simulator's
own one-slot rule, never from the exact side's blocks. One row lookup per
block of up to four slots carries the state; everything else is array work,
one stretch of at most ``STRETCH_SLOTS`` slots at a time, mostly in place:
the slots' symbols pack into one code per block, and one gather per flag
word reads every slot's reset and paid flags by (block's first state,
code). The ages' sum comes in closed form from the reset positions, and so
does each CI batch's cost sum, in exact integers, wherever the paid price
makes the slot-order float sum exact (a whole or dyadic price whose sums
stay below 2**53); any other price sums its batches slot by slot. A
machine of more than ``MACHINE_STATES`` states raises DomainError before
it is built. Every report is bit-identical to stepping the slots one by
one with ``decide`` and ``step``.

A periodic schedule is not stationary on the base space, but it is on the
chain augmented with the slot phase. ``stationary_actions`` gives its
action table there, one base table per phase, and ``evaluate_exact``
solves that chain like any other.

Importing this module loads numpy and the top-level ``scipy`` package
only; the recurrent class is found by this module's own search, so no
command loads ``scipy.sparse`` or ``scipy.sparse.csgraph``.
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
    TRANSMIT,
    DomainError,
    ModelParams,
    State,
    UnboundedAgeError,
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
from .solver import MAX_TABLE_CELLS, _advance, _runs, _tail

RNG_NAME = "pcg64"        # numpy default_rng bit generator
CI_BATCHES = 20
# The batch-means 95% CI uses the 97.5% quantile of Student's t with
# CI_BATCHES - 1 = 19 degrees of freedom, the exact double that
# scipy.stats.t.ppf(0.975, 19) returns; the two change together.
T_975_19 = 2.0930240544083087  # 0x1.0be83653b666cp+1
assert CI_BATCHES == 20, "T_975_19 is the t quantile for 19 degrees of freedom"
BLOCK_SLOTS = 4           # slots per simulator row lookup, fewer if the
TABLE_ENTRIES = 1 << 18   # (state, block code) tables would outgrow this
STRETCH_SLOTS = 1 << 16   # most slots the simulator holds in memory at once
# Most states a simulator machine may have. The solver's tables hold at
# most MAX_TABLE_CELLS (battery, age) cells and its thresholds lie at most
# one age past them, so every policy it returns fits.
MACHINE_STATES = 2 * MAX_TABLE_CELLS


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
    balance_residual: float | None = None  # exact only, ||pi G - pi||_1 on the reset chain
    cap_mass: float | None = None  # exact only, the mass at ages >= W (see _renewal)


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


def _renewal(send: np.ndarray, m: ModelParams) -> EvalReport:
    """Exact long-run averages, the age never truncated, under ``send``, a
    boolean (phase, battery, age) table as ``stationary_actions`` gives it.

    With pi the stationary vector of the reset chain G (the phase and
    battery at successive resets) and tau each reset's slots to the next,
    the average age is pi c_age / pi tau, the paid rate pi c_paid / pi tau.
    From W, the first age (at least 2) from which the actions equal the
    last column, every age moves alike, so one backward walk over the ages
    W - 1 ... 1 (a two-move gather per age) carries G's columns and the
    costs tau, c_age, c_paid and tau_W (the slots at ages >= W) down from
    the tail: with U its advancing block around the phase cycle, tau =
    (I - U)^-1 1 and c_age = W tau + (I - U)^-1 U tau there, U tau being
    tau - 1. The same walk over booleans gives the structure, which no
    underflow hides: ``_recurrent_class`` searches the states a reset
    enters, the start and the tail's phase-0 states, each joined to the
    first of them it reaches (every closed class holds one), and GTH
    solves G on the class.
    """
    t = _tail(m)
    T, B1, _ = send.shape
    K = T * B1
    W = int(np.flatnonzero((send != send[..., -1:]).any(axis=(0, 1))).max(initial=0)) + 2
    act = send[..., list(range(W - 1)) + [-1]].reshape(K, W)  # by (phase, battery), age
    tail = act[:, -1]
    runs = _runs(act[:, :-1])  # the ages below W, the last run first
    q = np.arange(K) % B1
    after = (np.arange(K) // B1 + 1) % T * B1  # the next phase's first row
    dest, rw = after[:, None] + t.reset_cols[q], t.reset_weights[q]  # each row's resets
    into = np.zeros(K, dtype=bool)  # the states a reset enters
    into[dest[act.any(axis=1)[:, None] & (rw > 0.0)]] = True
    into[0] = True  # the start: age 1, phase 0, empty battery
    targets = np.flatnonzero(into)
    ac = tail.reshape(T, B1).astype(np.intp)
    cycle = list(zip(t.cols[ac, q[:B1]], t.weights[ac, q[:B1]]))  # the tail's moves by phase

    def forcing(x: np.ndarray, place: np.ndarray, width: int, dtype) -> np.ndarray:
        # resets under actions x into place's columns and, as floats, the slot and paid send
        F = np.zeros((K, width), dtype)
        col = place[dest]
        live = x[:, None] & (col >= 0)
        F[live.nonzero()[0], col[live]] = rw[live]
        if F.dtype == float:
            F[:, width - 4] = 1.0
            F[:, width - 2] = x & (q == 0)
        return F

    def around(F: np.ndarray, end: np.ndarray, phases) -> list:
        # each phase's U end + F, backward from end after the last; F adds to the last columns
        out = []
        for r in reversed(phases):
            cols, w = cycle[r]
            end = _advance(end, cols, w.astype(end.dtype))
            end[:, end.shape[1] - F.shape[2] :] += F[r]
            out.append(end)
        return out[::-1]

    def walk(X: np.ndarray, place: np.ndarray, keep: np.ndarray) -> np.ndarray:
        # X at age W carried back to age 1, at the rows keep
        for lo, hi, x in runs:
            xi = x.astype(np.intp)
            rows, w = after[:, None] + t.cols[xi, q], t.weights[xi, q].astype(X.dtype)
            F = forcing(x, place, X.shape[1], X.dtype)
            for a in range(hi, lo - 1, -1):
                if a == 1:
                    rows, w, F = rows[keep], w[keep], F[keep]
                both = X.take(rows, axis=0)  # by row, its two moves' rows
                if w.dtype == bool:
                    both &= w[..., None]
                    X = both[:, 0] | both[:, 1] | F
                else:  # a (1, 2) @ (2, columns) product per row
                    F[:, -3] = a
                    X = np.matmul(w[:, None], both)[:, 0] + F
        return X

    # the structure: the targets' columns, then the tail's phase-0 states'
    E = targets.size
    place = np.full(K, -1)
    place[targets] = np.arange(E)
    arrive = np.hstack([np.zeros((B1, E), dtype=bool), np.eye(B1, dtype=bool)])
    reach = around(forcing(tail, place, E + B1, bool).reshape(T, B1, -1), arrive, range(T))
    edges = np.vstack([walk(np.vstack([arrive] + reach[1:]), place, targets), reach[0]])
    indptr = np.concatenate([[0], np.cumsum(edges.sum(axis=1))])
    cls = _recurrent_class(indptr, edges.nonzero()[1], start=0)
    entry = targets[cls[cls < E]]
    M = entry.size
    if M == 0:
        raise UnboundedAgeError()
    inside = (np.bincount(cls, minlength=E + B1)[E:] > 0)[:, None]  # the tail's class states
    # the values: G's columns by the class's reset states, then the costs
    place[:] = -1
    place[entry] = np.arange(M)
    stay = t.stay  # Optimal, ZeroWait: the solver's (I - U_transmit)^-1
    if T > 1 or not tail.all():  # the tail states off the class may never reset
        around_once = around(np.zeros((T, B1, 0)), np.eye(B1), range(T))[0]
        stay = np.linalg.inv(np.eye(B1) - around_once * inside)

    def solve(F: np.ndarray) -> np.ndarray:  # (I - U)^-1 F on the tail, F by phase
        Y = stay @ (around(F, np.zeros_like(F[0]), range(T))[0] * inside)
        return np.vstack([Y] + around(F, Y, range(1, T)))

    F = forcing(tail, place, M + 4, float)
    F[:, -1] = 1.0
    Y = solve(F.reshape(T, B1, -1))
    Y[:, M + 1] = W * Y[:, M] + solve((Y[:, M] - 1.0).reshape(T, B1, 1)).ravel()
    G = walk(Y, place, entry)
    pi = _gth(G[:, :M])
    per_reset = pi @ G[:, M:]  # slots, age sum, paid sends, slots at ages >= W
    aoi, rate, cap = (float(x) for x in per_reset[1:] / per_reset[0])
    cost = aoi + m.weight * m.cost_reliable * rate
    residual = float(np.abs(pi @ G[:, :M] - pi).sum())
    return EvalReport(cost, aoi, rate, balance_residual=residual, cap_mass=cap)


def evaluate_exact(kind: PolicyKind, m: ModelParams) -> EvalReport:
    """Exact long-run averages of ``kind`` on the chain whose age is never
    truncated; ``delta_max`` does not change them.

    The chain follows ``stationary_actions``' table, which reads a policy
    as ``decide`` does: an Optimal threshold at any age transmits from that
    age on, and an Explicit table of any width holds its last column at
    the later ages. A periodic schedule is evaluated on the product chain
    over (slot mod period, state), which makes it stationary. ``cap_mass``
    is the mass at the ages from W on, where the action table stops
    changing, and ``balance_residual`` the reset chain's ||pi G - pi||_1.
    Raises UnboundedAgeError if nothing in the closed class resets the age.
    """
    return _renewal(stationary_actions(kind, m), m)


@dataclass(frozen=True)
class _Machine:
    """The simulator as a finite-state machine.

    A policy decides from the battery q, the capped age min(aoi, A) and, for
    a periodic schedule, whether the slot is scheduled; so (q, capped age)
    is the state, numbered q * A + capped age - 1, and each slot reads a
    symbol of ``bits`` bits: harvest (bit 0), blocked (bit 1) and, when
    ``period`` > 1, t % period == 0 (bit 2). ``move[state, symbol]`` is the
    next state. A block of ``block`` slots reads one code, its symbols
    packed first slot lowest. ``rows[state][code]`` is the state after the
    block: a row is a bytes object when there are at most 256 states, and
    otherwise a tuple of shared ints. The flag words ``reset`` and ``paid``
    hold ``block`` bytes per (state, code), at state * 2**(bits * block) +
    code: byte j is 1 where slot j's update gets through, or where slot j
    transmits on an empty battery.
    """

    bits: int
    period: int
    block: int
    move: np.ndarray   # (state, symbol): the next state
    rows: list         # per state: the state after a block, by its code
    reset: np.ndarray  # (state * code, block) bool: the slots' resets
    paid: np.ndarray   # (state * code, block) bool: the slots' paid sends


@lru_cache(maxsize=4)
def _machine(kind: PolicyKind, m: ModelParams, horizon: int) -> _Machine:
    """Tabulate ``decide`` on every (slot class, battery, capped age), step
    the physics once from every state and symbol, and compose ``block``
    slots from every state and code into the rows and flag words. Raises
    DomainError, before building anything, if the machine would have more
    than ``MACHINE_STATES`` states.

    Cached, so the seeds of one command share one machine: its arrays are
    read-only and ``_run`` never writes to its rows."""
    levels = m.battery_cap + 1
    if isinstance(kind, Optimal):
        # a row whose threshold exceeds the horizon never transmits, so the
        # ages need telling apart only up to the other rows' thresholds
        thr = kind.thresholds
        height, span = len(thr), max((a for a in thr if a <= horizon), default=1)
    elif isinstance(kind, Explicit):
        height, span = kind.actions.shape
    elif isinstance(kind, (ZeroWait, Periodic)):
        height, span = levels, 1
    else:
        raise TypeError(f"unknown policy kind {kind!r}")
    if height != levels:
        raise DomainError(f"policy has {height} battery levels, the model {levels}")
    # no age in the run exceeds the horizon, so a wider table decides nothing
    A = min(span, horizon)
    K = levels * A
    if K > MACHINE_STATES:
        raise DomainError(
            f"simulating this policy needs {levels} battery levels times {A} ages = "
            f"{K} states, more than {MACHINE_STATES}"
        )
    period = kind.period if isinstance(kind, Periodic) else 1
    slots = (1, 0) if period > 1 else (0,)  # an unscheduled, a scheduled t
    decision = np.array(
        [[[decide(kind, State(a, q), t) for a in range(1, A + 1)]
          for q in range(levels)] for t in slots],
        dtype=bool,
    )
    bits = 1 + len(slots)
    S = 1 << bits

    # one slot from every (state, symbol), as ``step`` moves it
    q = np.arange(levels, dtype=np.int32)[:, None, None]
    age = np.arange(A, dtype=np.int32)[:, None]  # capped age - 1
    symbol = np.arange(S, dtype=np.int32)
    act = decision[symbol >> 2, q, age]
    reset = act & (symbol & 2 == 0)
    q_next = np.minimum(q + (symbol & 1) - (act & (q > 0)), m.battery_cap)
    move = (q_next * A + np.where(reset, 0, np.minimum(age + 1, A - 1))).reshape(K, S)
    reset, paid = reset.reshape(K, S), (act & (q == 0)).reshape(K, S)

    # a block of k slots from every (state, code): slot j reads the code's
    # symbol j from the state after its symbols 0..j-1, the state ``ends``
    # gives by (state, those symbols' code)
    k = BLOCK_SLOTS
    while k > 1 and K * S**k > TABLE_ENTRIES:
        k -= 1
    C = S**k
    flags = np.zeros((2, K, C, k), dtype=bool)
    ends = np.arange(K, dtype=np.int32)[:, None]
    each = np.arange(S)[:, None]
    for j in range(k):
        for flag, one in zip(flags, (reset, paid)):
            flag.reshape(K, C // S ** (j + 1), S, S**j, k)[..., j] = one[ends[:, None], each][:, None]
        ends = move[ends[:, None], each].reshape(K, S ** (j + 1))
    if K <= 256:
        rows = [row.tobytes() for row in ends.astype(np.uint8)]
    else:
        # entries naming the same state share one int object: compact rows
        # keep the lookups in cache
        ints = list(range(K))
        rows = list(zip(*(map(ints.__getitem__, memoryview(col)) for col in ends.T)))
    words = flags.reshape(2, K * C, k)
    for arr in (move, words):
        arr.flags.writeable = False
    return _Machine(bits, period, k, move, rows, words[0], words[1])


def _run(machine: _Machine, m: ModelParams, seed: int, sizes: list[int]):
    """Run ``machine`` from (age 1, empty battery) over consecutive stretches
    of ``sizes`` slots; yields each stretch's masks of the slots whose
    update gets through (resets) and of its paid slots. Each stretch draws
    its own piece of the energy and channel streams, which continue as one
    draw of every slot would.

    Per stretch, the symbols are written into a zero-padded uint8 buffer,
    and each block's code is one product of its symbols with their place
    values. The row walk, ``s = rows[s][code]`` block by block, is the only
    Python loop and does no arithmetic; ``bytes`` packs the states it passes
    (past 256 states numpy converts the list). One gather of each flag word by
    (block's first state, code) gives every slot's reset and paid byte.
    The state carried to the next stretch steps the last block's real slots
    by ``move``. The stretch buffers are allocated once per run, for the
    longest stretch, so the yielded arrays are views that the next stretch
    overwrites."""
    bits, k, move, rows = machine.bits, machine.block, machine.move, machine.rows
    C = 1 << bits * k
    small = isinstance(rows[0], bytes)
    energy, channel = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    t = 0
    state = 0  # (battery 0, age 1)
    cap = max(sizes)
    most = -(-cap // k)  # blocks
    draw_buf = np.empty(cap)
    symbol_buf = np.empty(most * k, dtype=np.uint8)
    code_buf = np.empty(most, dtype=np.uint8 if bits * k <= 8 else np.uint16)
    place = (1 << bits * np.arange(k)).astype(code_buf.dtype)  # first slot lowest
    index_buf = np.empty(most, dtype=np.intp)
    flag_buf = np.empty((2, most, k), dtype=bool)  # reset, paid
    for n in sizes:
        blocks = -(-n // k)
        symbols = symbol_buf[: blocks * k]
        symbols[n:] = 0
        flat = symbols[:n]
        np.less(channel.random(out=draw_buf[:n]), m.p_block, out=flat.view(bool))
        flat <<= 1
        flat |= energy.random(out=draw_buf[:n]) < m.lambda_e
        if machine.period > 1:
            flat[-t % machine.period :: machine.period] |= 4  # t % period == 0
        grid = symbols.reshape(blocks, k)
        code = np.matmul(place, grid.T, out=code_buf[:blocks])  # faster than grid @ place
        # the sequential part: each block's first state from the one before
        s = state
        walked = [s := rows[s][c] for c in memoryview(code[:-1])]
        index = index_buf[:blocks]
        index[0] = state
        index[1:] = np.frombuffer(bytes(walked), dtype=np.uint8) if small else walked
        for c in grid[-1, : n - (blocks - 1) * k].tolist():  # the last block's real slots
            s = int(move[s, c])
        state = s
        index *= C
        index += code
        np.take(machine.reset, index, axis=0, out=flag_buf[0, :blocks])
        np.take(machine.paid, index, axis=0, out=flag_buf[1, :blocks])
        t += n
        yield flag_buf.reshape(2, -1)[:, :n]


def _age_sum(reset: np.ndarray, aoi: int) -> tuple[int, int]:
    """The sum of a stretch's untruncated ages, and the age carried out of
    it, from the positions r_0 < ... < r_m of its resets and the carried-in
    age ``aoi``. A reset at slot r makes the age 1 at slot r + 1, so slots
    0 ... r_0 count up from ``aoi`` and each later segment of d slots, up
    to the next reset or the stretch's last slot, counts 1 ... d. Python
    ints, so the sum is exact."""
    n = len(reset)
    at = np.flatnonzero(reset)
    if not at.size:
        return n * aoi + n * (n - 1) // 2, aoi + n
    r = int(at[0])
    d = np.diff(at, append=n - 1)  # sum d(d + 1)/2, with sum d = n - 1 - r
    return (r + 1) * aoi + r * (r + 1) // 2 + (int(d @ d) + n - 1 - r) // 2, n - int(at[-1])


def _ages(reset: np.ndarray, aoi: int, count: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A stretch's untruncated ages into ``out``, one running maximum over
    the positions after a reset, with the slots up to the first reset
    continuing the carried-in age ``aoi``; ``count`` holds 1, 2, ... at
    least as long as the stretch."""
    n = len(reset)
    out = out[:n]
    np.multiply(count[: n - 1], reset[:-1], out=out[1:])
    first = int(reset.argmax())
    out[: first + 1 if reset[first] else n] = 1 - aoi
    return np.subtract(count[:n], np.maximum.accumulate(out, out=out), out=out)


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
    row lookup per block of slots, which finds the state at each block's
    start; each slot's reset and paid flags are array operations, one
    stretch of at most ``STRETCH_SLOTS`` slots at a time, so memory does not
    grow with the horizon. A CI batch longer than that runs as several
    stretches. Each stretch draws its own piece of the two streams, so every
    field is bit-identical to stepping the slots one by one with ``decide``
    and ``step``.

    The untruncated ages are summed in closed form from each stretch's
    reset positions (``_age_sum``) in Python ints, so exactly. A batch's
    cost sum takes the same route where the slot-order float sum rounds
    nothing: the paid price is num / den with den a power of two, so den
    times each cost and each partial sum is an integer of at most
    den * batch * (horizon + 1) + num * batch. Below 2**53 every partial sum
    is a double, and the float sum equals (den * ages + num * paid) / den,
    one exact division. That covers every whole price whose sums stay below
    2**53 (20 at the reference point) and dyadic ones such as 0.5. Any other
    price, such as 0.6, builds each slot's age (``_ages``) and cost in its
    batches and sums them in slot order with ``np.cumsum``, carrying the
    running sum from one stretch to the next, as ``+=`` would.
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
    num, den = float(paid_price).as_integer_ratio()  # the price the costs carry
    slotwise = batch * (den * (horizon + 1) + num) >= 2**53
    if slotwise:
        # the smallest signed int type that holds the horizon holds every
        # age and 1 minus it; int32 rather than int64 at 10**6 slots is faster
        count = np.arange(1, max(stretches) + 1, dtype=np.min_scalar_type(-horizon - 1))
        age_buf, cost_buf = np.empty_like(count), np.empty(len(count))

    aoi = 1  # carried from one stretch to the next
    aoi_sums = [0] * len(sizes)  # per batch (the rest last): the ages' sum
    paid_sums = [0] * len(sizes)  # and the paid slots
    batch_sums = [0.0] * CI_BATCHES
    for i, (reset, paid) in zip(owner, _run(machine, m, seed, stretches)):
        paid_sums[i] += int(np.count_nonzero(paid))
        if slotwise and i < CI_BATCHES:
            age = _ages(reset, aoi, count, age_buf)
            aoi_sums[i] += int(age.sum())
            aoi = 1 if reset[-1] else int(age[-1]) + 1
            # price + age where paid, 0.0 + age (exactly the age) elsewhere
            costs = np.multiply(paid, paid_price, out=cost_buf[: len(age)])
            costs += age
            costs[0] += batch_sums[i]  # the batch's running sum so far
            batch_sums[i] = float(np.cumsum(costs, out=costs)[-1])  # in slot order, as +=
        else:
            total, aoi = _age_sum(reset, aoi)
            aoi_sums[i] += total
    if not slotwise:
        batch_sums = [(den * a + num * p) / den
                      for a, p in zip(aoi_sums[:CI_BATCHES], paid_sums)]
    aoi_sum, paid_count = sum(aoi_sums), sum(paid_sums)

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
