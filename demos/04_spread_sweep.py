"""Sweep the lifetime spread across th3 and watch the red zone vanish.

Each spread value is read two ways on purpose: as the sampling standard
deviation of a Monte Carlo ensemble (for the redundant-lifetime estimate)
and as the deterministic gap between the two main failures (for curve-based
detection).  The existence rule spread < th3 should separate the detected
rows from the rest, and more lab burn-in should soften the detected peaks.
"""

import warnings

from redzone import (
    BathtubModel,
    LifetimeDistribution,
    Policy,
    SimConfig,
    SystemConfig,
    ValidationWarning,
    WeibullTerm,
    assess_red_zone,
    delta_sweep,
)

warnings.simplefilter("ignore", ValidationWarning)

TH3 = 10.0


def make_config(lab_burnin=2.0):
    return SystemConfig(
        hazard=BathtubModel(
            useful_rate=0.01,
            burnin=WeibullTerm(0.9, 0.1),
            wearout=WeibullTerm(1e-6, 3.0),
            th1=20.0, th2=180.0, th3=TH3,
        ),
        unit_lifetime=LifetimeDistribution(mean=208.0, sd=1.0),
        lab_burnin=lab_burnin,
    )


rows = delta_sweep(
    make_config(),
    [0.1 * TH3, 0.5 * TH3, 1.0 * TH3, 2.0 * TH3, 4.0 * TH3],
    Policy("type1"),
    SimConfig(replications=1000, master_seed=99),
    threshold=2.0,
    dt=0.1,
    baseline_window_fraction=0.8,
)

print(f"wear-out phase duration th3 = {TH3} weeks; detection threshold 2x baseline\n")
print(f"{'spread':>8} {'rule says':>10} {'detected':>9} {'severity':>9} {'Trdd mean':>10}")
for r in rows:
    print(f"{r.delta:8.1f} {str(r.predicted):>10} {str(r.detected):>9} "
          f"{r.severity:9.2f} {r.trdd_mean:10.1f}")

print("\nMitigation: longer lab burn-in pre-ages the spare, so the peak it")
print("shows while standing alone shrinks (spread fixed at 0.1 * th3):")
for lab in (2.0, 6.0, 10.0, 14.0, 18.0):
    a = assess_red_zone(make_config(lab_burnin=lab), threshold=2.0, dt=0.1,
                        baseline_window_fraction=0.8)
    print(f"  lab burn-in {lab:4.0f} weeks -> peak {a.severity:5.2f}x baseline"
          f"{'  (red zone)' if a.detected else ''}")
