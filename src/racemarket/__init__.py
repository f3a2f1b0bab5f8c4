"""Race simulator, in-play betting exchange, and bettor agents."""

__version__ = "0.1.0"

from .agents import AgentParams, make_bettor
from .batch import (
    BatchConfig,
    OutcomePMF,
    bench,
    compare_finish_times,
    compare_pmf,
    estimate_pmf,
    run_batch,
)
from .config import ExperimentConfig, config_digest, emit_default_config, parse_config
from .exchange import LADDER, MarketBook, quantize_odds
from .race import (
    BettingClose,
    Competitor,
    LogNormalSteps,
    RaceConfig,
    Responsiveness,
    Trajectory,
    UniformSteps,
    run_race,
    simulate_from,
)
from .seeding import derive_seed, make_rng, spawn_rng
from .session import SessionConfig, SessionResult, run_session

__all__ = [
    "__version__",
    "AgentParams",
    "BatchConfig",
    "BettingClose",
    "Competitor",
    "ExperimentConfig",
    "LADDER",
    "LogNormalSteps",
    "MarketBook",
    "OutcomePMF",
    "RaceConfig",
    "Responsiveness",
    "SessionConfig",
    "SessionResult",
    "Trajectory",
    "UniformSteps",
    "bench",
    "compare_finish_times",
    "compare_pmf",
    "config_digest",
    "derive_seed",
    "emit_default_config",
    "estimate_pmf",
    "make_bettor",
    "make_rng",
    "parse_config",
    "quantize_odds",
    "run_batch",
    "run_race",
    "run_session",
    "simulate_from",
    "spawn_rng",
]
