"""Reliability analysis of redundant industrial controller systems.

Models a system of two active controller units plus one shelf spare:
bathtub hazard kernels (`hazards`), survival composition and deterministic
end-of-life timelines (`system`), replace-on-failure vs periodic-rotation
maintenance (`maintenance`), a seeded Monte Carlo lifetime engine
(`montecarlo`), red-zone detection and policy comparison (`analysis`), and
a CSV/JSON command-line front end (`cli`).
"""

from .analysis import (
    ComparisonReport,
    DeltaSweepPoint,
    RedZone,
    RedZoneAssessment,
    assess_red_zone,
    compare_policies,
    delta_sweep,
    detect_red_zone,
    lifetime_extension,
)
from .errors import (
    CompositionError,
    DomainError,
    RedzoneError,
    StateError,
    ValidationError,
    ValidationWarning,
)
from .hazards import (
    BathtubModel,
    ExponentialLifetime,
    LifetimeDistribution,
    OperatorHazard,
    SoftwareHazardModel,
    UpgradeEvent,
    WeibullTerm,
    bathtub_cumulative,
    bathtub_hazard,
    component_total_hazard,
    lognormal_sample,
    software_hazard,
    weibull_cumulative,
    weibull_hazard,
)
from .maintenance import Policy, red_zone_condition
from .montecarlo import (
    Metrics,
    SimConfig,
    Trace,
    derive_seed,
    empirical_hazard,
    run_ensemble,
    run_replication,
)
from .system import (
    HazardCurve,
    SystemConfig,
    Unit,
    compose_parallel,
    effective_age,
    scenario_timeline,
    system_hazard_curve,
    unit_hazard,
)

__version__ = "0.1.0"
