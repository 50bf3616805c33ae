"""Walk through the failure-rate building blocks of one controller unit.

A unit's total rate is the sum of a hardware bathtub curve, an embedded
software rate, and a constant operator-error rate.  This script prints the
three contributions across the life phases so you can see the bathtub
shape and the software update/upgrade dynamics in numbers.
"""

import numpy as np

from redzone import (
    BathtubModel,
    OperatorHazard,
    SoftwareHazardModel,
    UpgradeEvent,
    WeibullTerm,
    bathtub_hazard,
    software_hazard,
)

# Declared phases: 20 weeks of burn-in, 180 of useful life, 40 of wear-out.
hardware = BathtubModel(
    useful_rate=0.01,
    burnin=WeibullTerm(0.05, 0.5),
    wearout=WeibullTerm(1e-6, 3.0),
    th1=20.0, th2=180.0, th3=40.0,
)

software = SoftwareHazardModel(
    steady_floor=0.001,
    update_amplitude=0.004,
    update_decay_tau=26.0,
    upgrade_events=(
        UpgradeEvent(time=52.0, kind="minor", pulse_amplitude=0.002, pulse_decay_tau=8.0),
        UpgradeEvent(time=120.0, kind="major", pulse_amplitude=0.0, pulse_decay_tau=0.0),
    ),
)

operator = OperatorHazard(rate=0.0005)

print("Hardware bathtub (failures/week):")
print(f"  {'age':>6}  {'rate':>10}   phase")
for t in (0.5, 2.0, 10.0, 20.0, 60.0, 150.0, 200.0, 210.0, 225.0, 240.0):
    if t < hardware.th1:
        phase = "burn-in"
    elif t < hardware.wearout_onset:
        phase = "useful"
    else:
        phase = "wear-out"
    print(f"  {t:6.1f}  {bathtub_hazard(t, hardware):10.5f}   {phase}")

print()
print("Software rate: early-release decay, one minor pulse at week 52,")
print("a major release at week 120 restarting the transient:")
for t in (0.0, 26.0, 51.9, 52.0, 60.0, 119.9, 120.0, 150.0, 400.0):
    print(f"  week {t:6.1f}: {software_hazard(t, software):8.5f}")
print(f"  steady-state floor: {software.steady_floor}")

print()
print("Total unit rate in mid-useful life (week 100):")
hw = bathtub_hazard(100.0, hardware)
sw = software_hazard(100.0, software)
total = hw + sw + operator.rate
print(f"  hardware {hw:.5f}"
      f" + software {sw:.5f}"
      f" + operator {operator.rate:.5f} = {total:.5f} failures/week")

# The plateau is what redundancy design budgets around; burn-in and
# wear-out are where the spare-interaction effects of the other demos live.
grid = np.linspace(0.5, 240.0, 480)
rates = bathtub_hazard(grid, hardware)
print(f"\nBathtub check: min rate {rates.min():.5f} at week {grid[rates.argmin()]:.0f} "
      f"(plateau {hardware.useful_rate}), max rate {rates.max():.5f} at the edges")
