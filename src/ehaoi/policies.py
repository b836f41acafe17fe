"""Decision policies: solver thresholds plus the standard baselines.

Two routes read a policy. ``decide`` gives the action in one state at one
slot, for the simulator; ``stationary_actions`` gives the whole action
table of the chain on which the policy is stationary, for the exact side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import IDLE, TRANSMIT, DomainError, ModelParams, State, is_int, state_count


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
        # any other truthy value would silently mean "skip"
        if not isinstance(self.skip_on_empty, (bool, np.bool_)):
            raise DomainError(
                f"skip_on_empty must be a bool, got {self.skip_on_empty!r}"
            )


@dataclass(frozen=True)
class Optimal:
    """Solver output: transmit at battery level q exactly when age >=
    thresholds[q].

    A threshold above delta_max means "transmit from that age on", as
    ``decide`` and ``evaluate_exact`` read it; the ``stationary_actions``
    table, which ends at delta_max, never transmits in that row.
    """

    thresholds: tuple[int, ...]

    def __post_init__(self):
        if not self.thresholds:
            raise DomainError("thresholds must be non-empty")
        for t in self.thresholds:
            if not (is_int(t) and t >= 1):
                raise DomainError(f"thresholds must be ints >= 1, got {t!r}")


@dataclass(frozen=True, eq=False)
class Explicit:
    """Arbitrary stationary policy given as a (battery, age) action table.

    Ages beyond the table's last column reuse that column, matching the
    saturating age dynamics.
    """

    actions: np.ndarray  # shape (battery_cap + 1, delta_max), values 0/1

    def __post_init__(self):
        raw = np.asarray(self.actions)
        if raw.ndim != 2 or raw.shape[0] < 1 or raw.shape[1] < 1:
            raise DomainError(f"actions must be a 2-d table, got shape {raw.shape}")
        # checked before the cast, which would turn 0.5 into 0 and 257 into 1
        if not np.isin(raw, (IDLE, TRANSMIT)).all():
            raise DomainError("actions must contain only 0 and 1")
        arr = raw.astype(np.int8)
        arr.flags.writeable = False
        object.__setattr__(self, "actions", arr)


PolicyKind = Union[ZeroWait, Periodic, Optimal, Explicit]


def decide(kind: PolicyKind, s: State, t: int) -> int:
    """Action taken by ``kind`` in state ``s`` at slot ``t``.

    Pure in all arguments. The age may exceed any truncation bound here;
    threshold and explicit policies behave as in their saturated column.
    """
    if not (is_int(t) and t >= 0):
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
        thr = kind.thresholds
        if s.battery >= len(thr):
            raise DomainError(f"battery {s.battery} outside threshold table")
        return TRANSMIT if s.aoi >= thr[s.battery] else IDLE
    if isinstance(kind, Explicit):
        rows, cols = kind.actions.shape
        if s.battery >= rows:
            raise DomainError(f"battery {s.battery} outside action table")
        return int(kind.actions[s.battery, min(s.aoi, cols) - 1])
    raise TypeError(f"unknown policy kind {kind!r}")


def stationary_actions(kind: PolicyKind, m: ModelParams) -> np.ndarray:
    """Action per state of the chain on which ``kind`` is stationary.

    For ZeroWait, Optimal and Explicit that is the base chain: one action
    per state, in enumerate_states order. A ``Periodic(T)`` schedule is
    stationary on the chain augmented with the slot phase t mod T, so it
    gets T such tables laid end to end, phase outer: phase 0 is the
    scheduled slot and transmits (idling on an empty battery under
    ``skip_on_empty``), and the other phases idle.
    """
    if isinstance(kind, ZeroWait):
        return np.ones(state_count(m), dtype=np.int8)
    if isinstance(kind, Periodic):
        table = np.zeros((kind.period, m.battery_cap + 1, m.delta_max), dtype=np.int8)
        table[0] = TRANSMIT
        if kind.skip_on_empty:
            table[0, 0] = IDLE
        return table.reshape(-1)
    if isinstance(kind, Optimal):
        thr = kind.thresholds
        if len(thr) != m.battery_cap + 1:
            raise DomainError(f"expected {m.battery_cap + 1} thresholds, got {len(thr)}")
        ages = np.arange(1, m.delta_max + 1)
        return np.concatenate([(ages >= t).astype(np.int8) for t in thr])
    if isinstance(kind, Explicit):
        if kind.actions.shape != (m.battery_cap + 1, m.delta_max):
            raise DomainError(
                f"action table shape {kind.actions.shape} does not match "
                f"({m.battery_cap + 1}, {m.delta_max})"
            )
        return kind.actions.reshape(-1)
    raise TypeError(f"unknown policy kind {kind!r}")
