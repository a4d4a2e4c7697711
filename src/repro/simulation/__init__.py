"""The discrete-time simulation binding demand, the Meta-CDN, probes
and the eyeball ISP together, plus the Sep 2017 scenario itself."""

from .checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from .engine import RunSummary, SimulationEngine, StepReport
from .microsim import DeviceAgent, MicroSimStats, MicroSimulation
from .scenario import (
    AS_HOSTER_AKAMAI,
    AS_HOSTER_LIMELIGHT,
    AS_ISP,
    AS_TRANSIT_A,
    AS_TRANSIT_B,
    AS_TRANSIT_C,
    AS_TRANSIT_D,
    ScenarioConfig,
    Sep2017Scenario,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "ScenarioConfig",
    "Sep2017Scenario",
    "SimulationEngine",
    "StepReport",
    "RunSummary",
    "MicroSimulation",
    "MicroSimStats",
    "DeviceAgent",
    "AS_ISP",
    "AS_TRANSIT_A",
    "AS_TRANSIT_B",
    "AS_TRANSIT_C",
    "AS_TRANSIT_D",
    "AS_HOSTER_AKAMAI",
    "AS_HOSTER_LIMELIGHT",
]
