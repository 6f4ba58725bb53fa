"""Workbench for reverse-bias stress testing of GaN switches in a boost
converter: switched-circuit simulation, hot-carrier on-resistance
degradation, and the log-time extraction/fitting pipeline."""

from .analysis import (
    FitResult,
    RdsSample,
    extract_rds_on,
    fit_log_time,
    normalize_series,
    predict_avg_vin,
)
from .campaign import (
    CampaignResult,
    CellResult,
    StressCell,
    run_cell,
    run_matrix,
)
from .converter import (
    CircuitParams,
    DriveSignal,
    SimConfig,
    SteadyStateMetrics,
    Waveform,
    ideal_boost_vout,
    periodic_steady_state,
    simulate,
    steady_state_metrics,
)
from .degradation import (
    DegradationParams,
    delta_r_fraction,
    stress_slope,
)
from .device import (
    EPC2038,
    DeviceRatings,
    DeviceState,
    SoaViolation,
    check_soa,
)

__version__ = "0.1.0"

__all__ = [
    "CampaignResult",
    "CellResult",
    "CircuitParams",
    "DegradationParams",
    "DeviceRatings",
    "DeviceState",
    "DriveSignal",
    "EPC2038",
    "FitResult",
    "RdsSample",
    "SimConfig",
    "SoaViolation",
    "SteadyStateMetrics",
    "StressCell",
    "Waveform",
    "check_soa",
    "delta_r_fraction",
    "extract_rds_on",
    "fit_log_time",
    "ideal_boost_vout",
    "normalize_series",
    "periodic_steady_state",
    "predict_avg_vin",
    "run_cell",
    "run_matrix",
    "simulate",
    "steady_state_metrics",
    "stress_slope",
]
