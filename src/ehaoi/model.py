"""Core MDP model: parameters, states, transition kernel, one-step cost.

A sensor sends status updates over a channel that blocks each slot with
probability ``p_block``. Every transmission consumes one energy packet.
Free packets arrive Bernoulli(``lambda_e``) into a battery of capacity
``battery_cap``; when the battery is empty, a transmission instead draws
a paid backup packet at cost ``cost_reliable``, weighted by ``weight`` in
the objective. The state is (age of information, battery level). Age is
truncated at ``delta_max`` with saturating dynamics so the chain stays
finite; pick ``delta_max`` well above any policy threshold and the
truncation is numerically invisible.

Value tables throughout the package are plain float arrays indexed in
``enumerate_states`` order (battery level outer, age inner). Reshaped to
``(battery_cap + 1, delta_max)`` they form the (battery, age) grid on which
every successor is a fixed shift; ``GridShift`` and ``successors`` are the
exact side's dynamics in that form, and ``transition``/``kernel_arrays``
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
    delta_max: int = 200  # age truncation bound, at least 2

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
    """

    def __init__(self, m: ModelParams):
        self.shape = (m.battery_cap + 1, m.delta_max)
        self.idle, self.transmit = _coefficients(m)
        self.age = np.arange(1, m.delta_max + 1, dtype=float)
        self.paid_age = self.age + m.weight * m.cost_reliable
        # the age of every row but battery 0's, laid out like them
        self._age_grid = np.tile(self.age, (m.battery_cap, 1))
        self._aged = np.empty(self.shape)
        self._term = np.empty((m.battery_cap, m.delta_max))
        self._tx = np.empty((m.battery_cap, m.delta_max))
        self._idle0 = np.empty(m.delta_max)

    def _sums(self, grid: np.ndarray, idle: np.ndarray, tx: np.ndarray) -> None:
        """The Q values less the one-step cost: ``idle`` for every battery
        level, ``tx`` for levels 1..battery_cap. Battery q >= 1 spends down
        to q - 1; an empty battery pays for a backup packet and so has the
        successors, and the sum, of battery 1."""
        aged = self._aged  # aged[b, j] = v at (min(j + 2, delta_max), b)
        aged[:, :-1] = grid[:, 1:]
        aged[:, -1] = grid[:, -1]
        reset = grid[:, :1]  # age 1
        term = self._term
        up, stay = self.idle
        np.multiply(aged[1:], up, out=idle[:-1])
        np.multiply(aged[:-1], stay, out=term)
        idle[:-1] += term
        idle[-1] = aged[-1]  # a full battery idles with probability 1
        c0, c1, c2, c3 = self.transmit
        np.multiply(aged[1:], c0, out=tx)
        np.copyto(term, c1 * reset[1:])  # a whole-grid add, not one per row
        tx += term
        np.multiply(aged[:-1], c2, out=term)
        tx += term
        np.copyto(term, c3 * reset[:-1])
        tx += term

    def backup_q(self, v: np.ndarray) -> np.ndarray:
        """Q-values for every (action, state) pair as a (2, n) array."""
        grid = np.asarray(v, dtype=float).reshape(self.shape)
        q = np.empty((2,) + self.shape)
        idle, tx = q[IDLE], q[TRANSMIT, 1:]
        self._sums(grid, idle, tx)
        idle += self.age
        np.add(self.paid_age, tx[0], out=q[TRANSMIT, 0])
        tx += self.age
        return q.reshape(2, -1)

    def backup(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Bellman values, the minimum over actions of ``backup_q``, bit for
        bit, as an (n,) array. ``out`` must not share memory with ``v``."""
        grid = np.asarray(v, dtype=float).reshape(self.shape)
        if out is None:
            out = np.empty(grid.size)
        best = out.reshape(self.shape)
        tx = self._tx
        self._sums(grid, best, tx)
        # an empty battery's transmit Q adds the paid price as well, so its
        # row compares the finished Q values
        idle0 = np.add(best[0], self.age, out=self._idle0)
        np.add(self.paid_age, tx[0], out=best[0])
        np.minimum(idle0, best[0], out=best[0])
        np.minimum(best[1:], tx, out=best[1:])
        best[1:] += self._age_grid
        return out


def successors(actions: np.ndarray, m: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Successor indices and probabilities of every state under ``actions``.

    ``actions`` is one or more action tables in ``enumerate_states`` order,
    laid end to end. Returns two (actions.size, 4) arrays in the same order
    whose rows list ``transition``'s entries in its order, each index
    within its own table; an entry dropped below PROB_FLOOR, and the
    padding of a short row, has probability 0.
    """
    b_max, dm = m.battery_cap, m.delta_max
    (up, stay), transmit = _coefficients(m)
    # on the (battery, age, entry) grid, an index is battery * dm + age - 1
    battery = np.arange(b_max + 1)[:, None, None]
    aged = np.minimum(np.arange(1, dm + 1), dm - 1)[:, None]  # index of min(age + 1, dm)
    # idle: to battery + 1 (a full battery stays, with probability 1), to
    # battery; the padding is state 0
    idle_idx = (np.minimum(battery + (1, 0, 0, 0), b_max) * dm + aged) * (1, 1, 0, 0)
    idle_prob = np.where(battery == b_max, (1.0, 0.0, 0.0, 0.0), (up, stay, 0.0, 0.0))
    spent = np.maximum(battery - 1, 0)  # an empty battery pays for backup
    tx_idx = (spent + (1, 1, 0, 0)) * dm + aged * (1, 0, 1, 0)
    send = np.asarray(actions).reshape(-1, b_max + 1, dm, 1) == TRANSMIT
    return (
        np.where(send, tx_idx, idle_idx).reshape(-1, 4),
        np.where(send, transmit, idle_prob).reshape(-1, 4),
    )
