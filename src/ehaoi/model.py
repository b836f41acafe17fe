"""Core MDP model: parameters, states, transition kernel, one-step cost.

A sensor sends status updates over a channel that blocks each slot with
probability ``p_block``. Every transmission consumes one energy packet.
Free packets arrive Bernoulli(``lambda_e``) into a battery of capacity
``battery_cap``; when the battery is empty, a transmission instead draws
a paid backup packet at cost ``cost_reliable``, weighted by ``weight`` in
the objective. The state is (age of information, battery level). The
kernel, the value grids and relative value iteration truncate the age at
``delta_max`` with saturating dynamics; policy iteration (the solver) and
the exact evaluator work on the chain whose age is never truncated.

Value tables throughout the package are plain float arrays indexed in
``enumerate_states`` order (battery level outer, age inner). Reshaped to
``(battery_cap + 1, delta_max)`` they form the (battery, age) grid on which
every successor is a fixed shift. ``_coefficients`` gives the branch
probabilities, which ``GridShift`` (the solver's Bellman operator) and the
evaluator's per-age blocks are built from; ``transition``/``kernel_arrays``
stay as the per-state reference they are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

IDLE = 0
TRANSMIT = 1
ACTIONS = (IDLE, TRANSMIT)

PROB_FLOOR = 1e-15  # entries below this are dropped after coalescing


class DomainError(ValueError):
    """A parameter, state, or action lies outside its admissible range."""


def is_int(x) -> bool:
    """An int, but not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A real number, but not a bool."""
    return isinstance(x, Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class ModelParams:
    lambda_e: float       # energy packet arrival probability, in (0, 1]
    p_block: float        # channel blocking probability, in (0, 1)
    battery_cap: int      # battery capacity B, at least 2
    cost_reliable: float  # cost of one paid backup packet, >= 0
    weight: float         # objective weight on the paid-energy term, > 0
    delta_max: int = 200  # ages in the kernel and value grids, at least 2

    def __post_init__(self):
        for name in ("lambda_e", "p_block", "cost_reliable", "weight"):
            x = getattr(self, name)
            # NaN slips past the one-sided range tests below, and a price of
            # inf * 0 is NaN
            if not (is_real(x) and math.isfinite(x)):
                raise DomainError(f"{name} must be a finite real number, got {x!r}")
        if not 0.0 < self.lambda_e <= 1.0:
            raise DomainError(f"lambda_e must be in (0, 1], got {self.lambda_e}")
        if not 0.0 < self.p_block < 1.0:
            raise DomainError(f"p_block must be in (0, 1), got {self.p_block}")
        if not (isinstance(self.battery_cap, int) and self.battery_cap >= 2):
            raise DomainError(f"battery_cap must be an int >= 2, got {self.battery_cap}")
        if self.cost_reliable < 0.0:
            raise DomainError(f"cost_reliable must be >= 0, got {self.cost_reliable}")
        if self.weight <= 0.0:
            raise DomainError(f"weight must be > 0, got {self.weight}")
        if not math.isfinite(self.weight * self.cost_reliable):
            raise DomainError(
                f"weight * cost_reliable must be finite, got {self.weight} * {self.cost_reliable}"
            )
        if not (isinstance(self.delta_max, int) and self.delta_max >= 2):
            raise DomainError(f"delta_max must be an int >= 2, got {self.delta_max}")


@dataclass(frozen=True)
class State:
    aoi: int      # age of information, >= 1 (capped at delta_max inside the kernel)
    battery: int  # stored free energy packets, 0..battery_cap


@dataclass(frozen=True)
class TransitionDist:
    """Sparse next-state distribution: distinct states, probabilities sum to 1."""

    entries: tuple[tuple[State, float], ...]

    def as_dict(self) -> dict[State, float]:
        return {s: p for s, p in self.entries}

    def total(self) -> float:
        return sum(p for _, p in self.entries)


def _check_state(s: State, m: ModelParams) -> None:
    if not (is_int(s.aoi) and 1 <= s.aoi <= m.delta_max):
        raise DomainError(f"aoi must be in 1..{m.delta_max}, got {s.aoi}")
    if not (is_int(s.battery) and 0 <= s.battery <= m.battery_cap):
        raise DomainError(f"battery must be in 0..{m.battery_cap}, got {s.battery}")


def _check_action(a: int) -> None:
    if a not in ACTIONS:
        raise DomainError(f"action must be 0 (idle) or 1 (transmit), got {a}")


def _coalesce(raw):
    # merge duplicate successors (arises when lambda_e = 1), then drop dust
    acc: dict[State, float] = {}
    for s, p in raw:
        acc[s] = acc.get(s, 0.0) + p
    return tuple((s, p) for s, p in acc.items() if p >= PROB_FLOOR)


def transition(s: State, a: int, m: ModelParams) -> TransitionDist:
    """Next-state distribution for taking action ``a`` in state ``s``.

    Idle lets the age grow (saturating at delta_max) while the battery
    harvests. Transmitting resets the age to 1 whenever the channel is
    not blocked; the packet comes from the battery if it holds energy,
    otherwise from the paid backup supply (the same-slot harvest is then
    banked rather than consumed).
    """
    _check_state(s, m)
    _check_action(a)
    lam = m.lambda_e
    p = m.p_block
    aged = min(s.aoi + 1, m.delta_max)
    q = s.battery
    if a == IDLE:
        if q < m.battery_cap:
            raw = [
                (State(aged, q + 1), lam),
                (State(aged, q), 1.0 - lam),
            ]
        else:
            raw = [(State(aged, q), 1.0)]
    else:
        spent = q - 1 if q > 0 else 0  # empty battery draws backup instead
        raw = [
            (State(aged, spent + 1), p * lam),
            (State(1, spent + 1), (1.0 - p) * lam),
            (State(aged, spent), p * (1.0 - lam)),
            (State(1, spent), (1.0 - p) * (1.0 - lam)),
        ]
    return TransitionDist(_coalesce(raw))


def one_step_cost(s: State, a: int, m: ModelParams) -> float:
    """Instantaneous cost: current age, plus the weighted backup-energy price
    when transmitting on an empty battery."""
    _check_state(s, m)
    _check_action(a)
    paid = m.weight * m.cost_reliable if (a == TRANSMIT and s.battery == 0) else 0.0
    return float(s.aoi) + paid


def enumerate_states(m: ModelParams) -> list[State]:
    """All states, battery level outer (ascending), age inner (ascending)."""
    return [
        State(d, q)
        for q in range(m.battery_cap + 1)
        for d in range(1, m.delta_max + 1)
    ]


def state_index(s: State, m: ModelParams) -> int:
    """Position of ``s`` in ``enumerate_states(m)``."""
    _check_state(s, m)
    return s.battery * m.delta_max + (s.aoi - 1)


def state_count(m: ModelParams) -> int:
    return m.delta_max * (m.battery_cap + 1)


@dataclass(frozen=True)
class KernelArrays:
    """Dense per-action view of the kernel in ``enumerate_states`` order.

    ``cost[a, i]`` is the one-step cost, and row ``(a, i)`` of
    ``next_idx``/``prob`` lists up to four successor indices with their
    probabilities (zero-padded). Arrays are read-only.
    """

    cost: np.ndarray      # (2, n)
    next_idx: np.ndarray  # (2, n, 4)
    prob: np.ndarray      # (2, n, 4)


@lru_cache(maxsize=8)
def kernel_arrays(m: ModelParams) -> KernelArrays:
    """Build (and cache) the vectorized kernel for ``m``."""
    states = enumerate_states(m)
    n = len(states)
    cost = np.zeros((2, n))
    next_idx = np.zeros((2, n, 4), dtype=np.int64)
    prob = np.zeros((2, n, 4))
    for i, s in enumerate(states):
        for a in ACTIONS:
            cost[a, i] = one_step_cost(s, a, m)
            for j, (ns, pr) in enumerate(transition(s, a, m).entries):
                next_idx[a, i, j] = state_index(ns, m)
                prob[a, i, j] = pr
    for arr in (cost, next_idx, prob):
        arr.flags.writeable = False
    return KernelArrays(cost, next_idx, prob)


def _coefficients(m: ModelParams) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Idle and transmit branch probabilities, in ``transition``'s entry order.

    An entry ``transition`` drops (below PROB_FLOOR) becomes 0 here, which
    leaves a sum over the others, and a chain built from them, unchanged.
    """
    lam, p = m.lambda_e, m.p_block
    raw = (
        (lam, 1.0 - lam),  # idle: to battery q + 1, to q
        (p * lam, (1.0 - p) * lam, p * (1.0 - lam), (1.0 - p) * (1.0 - lam)),
    )
    idle, transmit = (
        tuple(pr if pr >= PROB_FLOOR else 0.0 for pr in probs) for probs in raw
    )
    return idle, transmit


PAGE = 4096  # bytes
# Where each of the sweep's five streams starts, in bytes past a PAGE
# boundary: the padded values, the Bellman output, the term, transmit and age
# grids. Separate allocations all start at one offset (0x10 in a fresh
# process). A load whose address matches an earlier, still pending store's in
# the low 12 bits then waits for that store as if the two overlapped (4K
# aliasing), and a sweep's streams do that at every element. At n = 4200 and
# n = 40 400, every layout tried with the starts at least 256 B apart swept in
# 0.80-0.95 of the time of all five at 0x10 (24 layouts, paired rounds in one
# process); this one, 512 B apart at the least, was among the fastest at both.
STREAM_OFFSETS = (0x000, 0x400, 0x800, 0xC00, 0x200)


def _staggered(sizes: tuple[int, ...], offsets: tuple[int, ...]) -> list[np.ndarray]:
    """Float arrays of ``sizes`` doubles cut from one block, the i-th
    starting ``offsets[i]`` bytes past a 4 KiB boundary."""
    block = np.empty(sum(sizes) + len(sizes) * PAGE // 8)
    base = block.ctypes.data  # 8-aligned, as every float array is
    arrays, pos = [], 0
    for size, offset in zip(sizes, offsets):
        pos += (offset - base - 8 * pos) % PAGE // 8
        arrays.append(block[pos : pos + size])
        pos += size
    return arrays


class GridShift:
    """Bellman Q operator as slice operations on the (battery, age) grid.

    Every successor is a shift of the value grid: age + 1 (capped at
    delta_max) or reset to 1, battery + 1 or - 1 (clipped). Each action's
    terms are summed in ``transition``'s entry order, left to right, which
    is how numpy reduces ``kernel_arrays``' length-4 rows, so the result
    equals the gather over ``kernel_arrays`` bit for bit.

    ``backup`` takes the minimum over actions before it adds the age, which
    is exact: rounding to nearest is monotone, so x <= y gives
    fl(x + a) <= fl(y + a), and min(fl(x + a), fl(y + a)) is
    fl(min(x, y) + a) for any doubles x, y, a. Only an empty battery's
    transmit Q, which adds the paid price as well, is compared finished.

    The operator owns its input and output: ``values``, the first n entries
    of a buffer of n + 1 doubles, and ``out``. ``sweep`` writes the Bellman
    values of ``values`` into ``out``. These two and the three work grids
    are cut from one block at ``STREAM_OFFSETS``, and every view a sweep
    reads or writes is made once, here, so a sweep allocates nothing.
    """

    def __init__(self, m: ModelParams):
        b_max, dm = m.battery_cap, m.delta_max
        self.shape = shape = (b_max + 1, dm)
        n, rows = state_count(m), b_max * dm
        self.idle, self.transmit = _coefficients(m)
        self.age = np.arange(1, dm + 1, dtype=float)
        self.paid_age = self.age + m.weight * m.cost_reliable
        x, out, term, tx, age_grid = _staggered((n + 1, n, rows, rows, rows), STREAM_OFFSETS)
        self.values, self.out = x[:n], out
        self._term = term.reshape(b_max, dm)
        self._tx = tx.reshape(b_max, dm)
        # the age of every row but battery 0's, laid out like them
        self._age_grid = age_grid.reshape(b_max, dm)
        self._age_grid[:] = self.age
        self._reset = np.empty((b_max + 1, 1))
        self._col = np.empty((b_max, 1))  # one reset term per battery row
        self._idle0 = np.empty(dm)
        # the views of ``_sums``: ``x`` read from entry 1 on, as the same
        # grid, is v at age + 1 except at each row's last age, which holds
        # the next row's age-1 value
        grid = x[:-1].reshape(shape)
        aged = x[1:].reshape(shape)  # aged[b, j] = v at (min(j + 2, delta_max), b)
        self._first, self._last = grid[:, 0], grid[:, -1]
        self._row_ends, self._inner_ends = x[dm::dm], x[dm:-1:dm]
        self._aged_up, self._aged_stay, self._aged_top = aged[1:], aged[:-1], aged[-1]
        self._reset_col, self._reset_up_col = self._reset[:, 0], self._reset[1:, 0]
        self._reset_up, self._reset_stay = self._reset[1:], self._reset[:-1]
        best = out.reshape(shape)
        self._best0, self._best_up = best[0], best[1:]
        self._idle_lo, self._idle_top = best[:-1], best[-1]
        self._tx0 = self._tx[0]

    def _sums(self) -> None:
        """The Q values of ``values`` less the one-step cost: idle for every
        battery level, in ``out``, and transmit for levels 1..battery_cap,
        in ``_tx``. Battery q >= 1 spends down to q - 1; an empty battery
        pays for a backup packet and so has the successors, and the sum, of
        battery 1.

        The age-shifted values are read in place from the padded buffer: the
        age-1 column is saved, each row's end is overwritten with its
        age-delta_max value (the cap), the sums read the shifted view, and
        the column is written back, so ``values`` ends as it began and only
        the spare entry after them changes."""
        term, tx = self._term, self._tx
        np.copyto(self._reset_col, self._first)  # age 1
        np.copyto(self._row_ends, self._last)
        up, stay = self.idle
        np.multiply(self._aged_up, up, out=self._idle_lo)
        np.multiply(self._aged_stay, stay, out=term)
        np.add(self._idle_lo, term, out=self._idle_lo)
        np.copyto(self._idle_top, self._aged_top)  # a full battery idles with probability 1
        c0, c1, c2, c3 = self.transmit
        np.multiply(self._aged_up, c0, out=tx)
        col = self._col
        np.multiply(self._reset_up, c1, out=col)
        np.copyto(term, col)  # a whole-grid add, not one per row
        np.add(tx, term, out=tx)
        np.multiply(self._aged_stay, c2, out=term)
        np.add(tx, term, out=tx)
        np.multiply(self._reset_stay, c3, out=col)
        np.copyto(term, col)
        np.add(tx, term, out=tx)
        np.copyto(self._inner_ends, self._reset_up_col)

    def sweep(self) -> None:
        """``out`` = the Bellman values of ``values``, the minimum over
        actions of ``backup_q``, bit for bit."""
        self._sums()
        # an empty battery's transmit Q adds the paid price as well, so its
        # row compares the finished Q values
        idle0 = np.add(self._best0, self.age, out=self._idle0)
        np.add(self.paid_age, self._tx0, out=self._best0)
        np.minimum(idle0, self._best0, out=self._best0)
        np.minimum(self._best_up, self._tx, out=self._best_up)
        np.add(self._best_up, self._age_grid, out=self._best_up)

    def _load(self, v: np.ndarray) -> None:
        """Copy a caller's n values, flat or as the grid, into ``values``;
        a table of any other size raises ValueError."""
        np.copyto(self.values, np.reshape(np.asarray(v, dtype=float), self.values.shape))

    def backup_q(self, v: np.ndarray) -> np.ndarray:
        """Q-values for every (action, state) pair as a (2, n) array."""
        self._load(v)
        self._sums()
        q = np.empty((2,) + self.shape)
        np.add(self.out.reshape(self.shape), self.age, out=q[IDLE])
        np.add(self.paid_age, self._tx0, out=q[TRANSMIT, 0])
        np.add(self._tx, self.age, out=q[TRANSMIT, 1:])
        return q.reshape(2, -1)

    def backup(self, v: np.ndarray) -> np.ndarray:
        """Bellman values, the minimum over actions of ``backup_q``, bit for
        bit, as an (n,) array."""
        self._load(v)
        self.sweep()
        return self.out.copy()
