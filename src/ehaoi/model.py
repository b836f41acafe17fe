"""Core MDP model: parameters, states, transition kernel, one-step cost.

A sensor sends status updates over a channel that blocks each slot with
probability ``p_block``. Every transmission consumes one energy packet.
Free packets arrive Bernoulli(``lambda_e``) into a battery of capacity
``battery_cap``; when the battery is empty, a transmission instead draws
a paid backup packet at cost ``cost_reliable``, weighted by ``weight`` in
the objective. The state is (age of information, battery level). The
kernel and the value grids truncate the age at ``delta_max`` with
saturating dynamics; policy iteration (the solver) and the exact evaluator
work on the chain whose age is never truncated.

Value tables throughout the package are plain float arrays indexed in
``enumerate_states`` order (battery level outer, age inner). Reshaped to
``(battery_cap + 1, delta_max)`` they form the (battery, age) grid.
``_coefficients`` gives the branch probabilities that the evaluator's
per-age blocks, and through them the solver, are built from;
``transition``/``kernel_arrays`` stay as the per-state reference they are
checked against.
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
