"""Timely status updating with harvested and paid backup energy.

Solver, simulator, and verification toolkit for the average-cost MDP of a
sensor that schedules updates over a blocking channel while balancing the
age of its information against paid backup-energy use.
"""

from .evaluator import (
    EvalReport,
    ReducibleChainError,
    evaluate_exact,
    simulate,
    step,
)
from .model import (
    ACTIONS,
    IDLE,
    TRANSMIT,
    DomainError,
    KernelArrays,
    ModelParams,
    State,
    UnboundedAgeError,
    enumerate_states,
    kernel_arrays,
    one_step_cost,
    state_count,
    state_index,
    transition,
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
from .solver import ConvergenceError, SolveResult, modified_via
from .verify import StructureReport, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "ACTIONS",
    "IDLE",
    "TRANSMIT",
    "ConvergenceError",
    "DomainError",
    "EvalReport",
    "Explicit",
    "KernelArrays",
    "ModelParams",
    "Optimal",
    "Periodic",
    "PolicyKind",
    "ReducibleChainError",
    "SolveResult",
    "State",
    "StructureReport",
    "UnboundedAgeError",
    "ZeroWait",
    "decide",
    "enumerate_states",
    "evaluate_exact",
    "kernel_arrays",
    "modified_via",
    "one_step_cost",
    "run_all_checks",
    "simulate",
    "state_count",
    "state_index",
    "stationary_actions",
    "step",
    "transition",
]
