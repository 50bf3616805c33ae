"""The red zone: why tight lifetime tolerances endanger a redundant pair.

Two active controllers plus one shelf spare.  When unit lifetimes have a
small spread, both mains wear out almost together and the freshly installed
spare must carry the system alone while still in burn-in; the composed
system failure rate spikes.  With a wide spread the spare matures alongside
the surviving main and no spike appears.  The zone exists when the spare's
rate at Tf2, the second main failure, where it comes to stand alone, exceeds
the detection threshold times the useful-phase baseline.
"""

from redzone import (
    BathtubModel,
    LifetimeDistribution,
    SystemConfig,
    WeibullTerm,
    assess_red_zone,
    scenario_timeline,
)


def study(spread_weeks: float) -> None:
    hardware = BathtubModel(
        useful_rate=0.01,
        burnin=WeibullTerm(0.9, 0.1),   # slowly decaying infant mortality
        wearout=WeibullTerm(1e-6, 3.0),
        th1=20.0, th2=180.0, th3=10.0,
    )
    config = SystemConfig(
        hazard=hardware,
        unit_lifetime=LifetimeDistribution(mean=208.0, sd=spread_weeks),
        shelf_aging_factor=0.0, lab_burnin=2.0, software=None, operator=None,
    )
    timeline = scenario_timeline(config)
    print(f"\nLifetime spread {spread_weeks:.1f} weeks")
    print("  timeline:")
    for seg in timeline.segments:
        units = ", ".join(f"{u.unit_id}[{u.phase}]" for u in seg.units)
        print(f"    [{seg.t_start:7.1f}, {seg.t_end:7.1f})  {units}")

    result = assess_red_zone(config, threshold=2.0, dt=0.1, baseline_window_fraction=0.8)
    print(f"  useful-phase baseline: {result.baseline:.5f} failures/week")
    # the zone and the severity read one peak
    print(f"  severity, peak over baseline in the failure window: {result.severity:.2f}x")
    if result.zone is not None:
        z = result.zone
        print(f"  RED ZONE detected: weeks {z.start:.1f}-{z.end:.1f}")
    else:
        print("  no red zone: the spare matures before it has to stand alone")


if __name__ == "__main__":
    for spread in (1.0, 5.0, 20.0, 40.0):
        study(spread)
