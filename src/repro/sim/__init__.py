"""Deterministic discrete-event simulation kernel.

All simulated BG/Q hardware and all runtime threads in this
reproduction execute as processes on :class:`~repro.sim.Environment`.
"""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .resources import ContentionStats, Mutex, Semaphore, Store
from .rng import StreamRegistry
from .shard import (
    ShardCoordinator,
    ShardEnvironment,
    ShardStallError,
    ShardWorkerDied,
    run_sharded_subprocesses,
)
from .trace import render_ascii_timeline, utilization_profile

__all__ = [
    "AllOf",
    "AnyOf",
    "ContentionStats",
    "Environment",
    "Event",
    "Interrupt",
    "Mutex",
    "Process",
    "Semaphore",
    "ShardCoordinator",
    "ShardEnvironment",
    "ShardStallError",
    "ShardWorkerDied",
    "SimulationError",
    "Store",
    "run_sharded_subprocesses",
    "StreamRegistry",
    "Timeout",
    "render_ascii_timeline",
    "utilization_profile",
]
