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
    assess_curve,
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
    ValidationError,
    ValidationWarning,
)
from .hazards import (
    BathtubModel,
    LifetimeDistribution,
    OperatorHazard,
    SoftwareHazardModel,
    UpgradeEvent,
    WeibullTerm,
    bathtub_cumulative,
    bathtub_hazard,
    lognormal_sample,
    software_hazard,
    weibull_cumulative,
    weibull_hazard,
)
from .maintenance import Policy
from .montecarlo import (
    Metrics,
    SimConfig,
    run_ensemble,
)
from .system import (
    Grid,
    HazardCurve,
    SystemConfig,
    compose_parallel,
    scenario_timeline,
    system_hazard_curve,
    system_hazard_curves,
)

__version__ = "0.1.0"
