"""No Restart Random Walk tree growth: simulator, analytic oracles and a
statistical verification harness."""

from .engine import ConfigError, PrngStream, SimConfig, run
from .stats import RunStats, collect_run
from .harness import ExperimentSpec, run_experiment, verify

__all__ = [
    "ConfigError", "PrngStream", "SimConfig", "run",
    "RunStats", "collect_run", "ExperimentSpec", "run_experiment", "verify",
]

__version__ = "0.1.0"
