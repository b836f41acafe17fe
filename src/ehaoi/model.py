"""Core MDP model: parameters, states, transition kernel, one-step cost.

A sensor sends status updates over a channel that blocks each slot with
probability ``p_block``. Every transmission consumes one energy packet.
Free packets arrive Bernoulli(``lambda_e``) into a battery of capacity
``battery_cap``; when the battery is empty, a transmission instead draws
a paid backup packet at cost ``cost_reliable``, weighted by ``weight`` in
the objective. The state is (age of information, battery level). The
reference kernel (``transition``, ``kernel_arrays``, ``enumerate_states``)
truncates the age at ``delta_max`` with saturating dynamics; policy
iteration (the solver), the exact evaluator and ``verify`` work on the
chain whose age is never truncated.

``_blocks`` is the one definition of the untruncated chain that the
evaluator and the solver are built on; ``transition``/``kernel_arrays``
stay as the per-state reference it is checked against, indexed in
``enumerate_states`` order (battery level outer, age inner).
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

PROB_FLOOR = 1e-15  # transition() drops the entries below this


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
    delta_max: int = 200  # ages in the kernel and solve's policy grid, at least 2

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


def _check_state(s: State, m: ModelParams) -> None:
    if not (is_int(s.aoi) and 1 <= s.aoi <= m.delta_max):
        raise DomainError(f"aoi must be in 1..{m.delta_max}, got {s.aoi}")
    if not (is_int(s.battery) and 0 <= s.battery <= m.battery_cap):
        raise DomainError(f"battery must be in 0..{m.battery_cap}, got {s.battery}")


def _check_action(a: int) -> None:
    if a not in ACTIONS:
        raise DomainError(f"action must be 0 (idle) or 1 (transmit), got {a}")


def transition(s: State, a: int, m: ModelParams) -> tuple[tuple[State, float], ...]:
    """Next-state distribution for taking action ``a`` in state ``s``, as
    (state, probability) pairs: distinct states, probabilities sum to 1.

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
    # the successors are distinct (a reset lands at age 1, an advance at
    # age 2 or more, and a row's battery targets differ by one): drop dust
    return tuple((ns, pr) for ns, pr in raw if pr >= PROB_FLOOR)


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
            for j, (ns, pr) in enumerate(transition(s, a, m)):
                next_idx[a, i, j] = state_index(ns, m)
                prob[a, i, j] = pr
    for arr in (cost, next_idx, prob):
        arr.flags.writeable = False
    return KernelArrays(cost, next_idx, prob)


class UnboundedAgeError(RuntimeError):
    """Nothing in the chain's closed class resets the age: no finite average."""

    def __init__(self, message: str = "no state of the closed class resets the age: "
                 "the average age is unbounded"):
        super().__init__(message)


@lru_cache(maxsize=8)
def _blocks(m: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The untruncated chain's moves as blocks on the battery, by action.

    Every move takes the age from a to a + 1 or resets it to 1, and a row's
    moves depend only on its action and battery, so each action has a
    (battery_cap + 1)-square advancing block U and reset block R, row q
    holding ``transition``'s probabilities by the battery moved to. A branch
    ``transition`` drops (below PROB_FLOOR) is 0 here. Cached; the arrays
    are read-only.
    """
    lam, p = m.lambda_e, m.p_block
    up, stay, c0, c1, c2, c3 = (
        pr if pr >= PROB_FLOOR else 0.0
        for pr in (lam, 1.0 - lam, p * lam, (1.0 - p) * lam,
                   p * (1.0 - lam), (1.0 - p) * (1.0 - lam))
    )
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
