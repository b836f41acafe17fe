"""Decision policies: solver thresholds plus the standard baselines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import IDLE, TRANSMIT, DomainError, ModelParams, State, is_int, state_count
from .solver import ThresholdPolicy


@dataclass(frozen=True)
class ZeroWait:
    """Transmit every slot, paying for backup energy whenever the battery is empty."""


@dataclass(frozen=True)
class Periodic:
    """Transmit every ``period`` slots, anchored at t = 0.

    By default the scheduled slot transmits even on an empty battery and
    pays for backup energy; ``skip_on_empty`` idles instead.
    """

    period: int
    skip_on_empty: bool = False

    def __post_init__(self):
        if not (is_int(self.period) and self.period >= 1):
            raise DomainError(f"period must be an int >= 1, got {self.period!r}")


@dataclass(frozen=True)
class Optimal:
    """Solver output: transmit when age reaches the battery level's threshold."""

    thresholds: ThresholdPolicy


@dataclass(frozen=True, eq=False)
class Explicit:
    """Arbitrary stationary policy given as a (battery, age) action table.

    Ages beyond the table's last column reuse that column, matching the
    saturating age dynamics.
    """

    actions: np.ndarray  # shape (battery_cap + 1, delta_max), values 0/1

    def __post_init__(self):
        arr = np.asarray(self.actions, dtype=np.int8)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DomainError(f"actions must be a 2-d table, got shape {arr.shape}")
        if not np.isin(arr, (IDLE, TRANSMIT)).all():
            raise DomainError("actions must contain only 0 and 1")
        arr.flags.writeable = False
        object.__setattr__(self, "actions", arr)

    @classmethod
    def from_state_order(cls, flat: np.ndarray, m: ModelParams) -> "Explicit":
        flat = np.asarray(flat)
        if flat.size != state_count(m):
            raise DomainError(
                f"expected {state_count(m)} actions, got {flat.size}"
            )
        return cls(flat.reshape(m.battery_cap + 1, m.delta_max))


PolicyKind = Union[ZeroWait, Periodic, Optimal, Explicit]


def decide(kind: PolicyKind, s: State, t: int) -> int:
    """Action taken by ``kind`` in state ``s`` at slot ``t``.

    Pure in all arguments. The age may exceed any truncation bound here;
    threshold and explicit policies behave as in their saturated column.
    """
    if not (isinstance(t, int) and t >= 0):
        raise DomainError(f"t must be an int >= 0, got {t}")
    if s.aoi < 1 or s.battery < 0:
        raise DomainError(f"invalid state {s}")
    if isinstance(kind, ZeroWait):
        return TRANSMIT
    if isinstance(kind, Periodic):
        if t % kind.period != 0:
            return IDLE
        if kind.skip_on_empty and s.battery == 0:
            return IDLE
        return TRANSMIT
    if isinstance(kind, Optimal):
        thr = kind.thresholds.thresholds
        if s.battery >= len(thr):
            raise DomainError(f"battery {s.battery} outside threshold table")
        return TRANSMIT if s.aoi >= thr[s.battery] else IDLE
    if isinstance(kind, Explicit):
        rows, cols = kind.actions.shape
        if s.battery >= rows:
            raise DomainError(f"battery {s.battery} outside action table")
        return int(kind.actions[s.battery, min(s.aoi, cols) - 1])
    raise TypeError(f"unknown policy kind {kind!r}")


def is_stationary(kind: PolicyKind) -> bool:
    return not isinstance(kind, Periodic)


def stationary_actions(kind: PolicyKind, m: ModelParams) -> np.ndarray:
    """Action per state, enumerate_states order. Rejects time-dependent kinds."""
    if isinstance(kind, Periodic):
        raise ValueError(
            "periodic policies are time-dependent; use the phase-augmented "
            "exact evaluator or the simulator"
        )
    if isinstance(kind, ZeroWait):
        return np.ones(state_count(m), dtype=np.int8)
    if isinstance(kind, Optimal):
        return kind.thresholds.expand(m)
    if isinstance(kind, Explicit):
        if kind.actions.shape != (m.battery_cap + 1, m.delta_max):
            raise DomainError(
                f"action table shape {kind.actions.shape} does not match "
                f"({m.battery_cap + 1}, {m.delta_max})"
            )
        return kind.actions.reshape(-1)
    raise TypeError(f"unknown policy kind {kind!r}")
