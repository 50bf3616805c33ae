"""Closed-form hazard-rate and lifetime-distribution kernels.

Failure intensities of one controller unit are modeled as the sum of three
contributions: a hardware bathtub curve, an embedded-software rate driven by
update/upgrade dynamics, and a constant operator-error rate.

The hardware bathtub is the superposed ("additive") form

    h(t) = useful_rate + s_b * b_b * t**(b_b - 1) + s_w * b_w * max(t - onset, 0)**(b_w - 1)

with a decreasing power-law term (shape < 1) for early life, a constant
plateau, and an increasing power-law term (shape > 1) switched on at the
wear-out onset.  The additive form is continuous by construction and every
term has a closed-form integral, so cumulative hazards and survival
functions never need quadrature.

Conventions: all times are in weeks, all rates in failures per week.
Every evaluator accepts a float or a numpy array for ``t`` and returns a
matching float or array.  A time must be finite and >= 0, a uniform inside
(0, 1); each has one guard, whose :class:`ValidationError` names the kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .value import Value

__all__ = [
    "WeibullTerm",
    "BathtubModel",
    "LifetimeDistribution",
    "UpgradeEvent",
    "SoftwareHazardModel",
    "OperatorHazard",
    "bathtub_hazard",
    "bathtub_cumulative",
    "software_hazard",
    "software_cumulative",
]


def _checked_time(t, kernel: str):
    """(array, was_scalar) of times ``t``, which ``kernel`` needs finite and >= 0."""
    arr = np.asarray(t, dtype=float)
    # two reductions, both of which a NaN fails, and no boolean temporary the grid's length
    if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < math.inf):
        raise ValidationError(f"{kernel} requires finite t >= 0, got {t!r}")
    return arr, arr.ndim == 0


def _checked_uniform(u, kernel: str):
    """(array, was_scalar) of uniforms ``u``, which ``kernel`` needs inside (0, 1)."""
    arr = np.asarray(u, dtype=float)
    if not (arr.min(initial=0.5) > 0.0 and arr.max(initial=0.5) < 1.0):
        raise ValidationError(f"{kernel} requires u strictly inside (0, 1), got {u!r}")
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


class WeibullTerm(Value):
    """One power-law hazard term ``scale * shape * t**(shape - 1)``.

    ``scale`` has units of (1/week**shape); ``scale = 0`` disables the term.
    """

    __slots__ = ("scale", "shape")

    def __init__(self, scale: float, shape: float):
        self._set(scale=scale, shape=shape)
        _require(_finite_number(self.scale) and self.scale >= 0.0,
                 f"WeibullTerm.scale must be a finite number >= 0, got {self.scale!r}")
        _require(_finite_number(self.shape) and self.shape > 0.0,
                 f"WeibullTerm.shape must be a finite number > 0, got {self.shape!r}")


class BathtubModel(Value):
    """Additive bathtub hazard for one hardware unit.

    ``th1``, ``th2``, ``th3`` declare the burn-in / useful / wear-out phase
    durations; they are configuration, not values derived from the terms.
    The scenario's boundaries read ``th1`` and the wear-out onset, always
    ``th1 + th2``; ``th3`` bounds no segment, and sets only ``redzone``'s
    default spreads and ``hazard``'s default grid end.  ``clamp_floor``, ``1e-6 * th1``, bounds the burn-in
    singularity at the origin.
    """

    __slots__ = ("useful_rate", "burnin", "wearout", "th1", "th2", "th3", "clamp_floor")

    def __init__(self, useful_rate: float, burnin: WeibullTerm, wearout: WeibullTerm,
                 th1: float, th2: float, th3: float):
        self._set(useful_rate=useful_rate, burnin=burnin, wearout=wearout,
                  th1=th1, th2=th2, th3=th3)
        _require(_finite_number(self.useful_rate) and self.useful_rate > 0.0,
                 f"useful_rate must be > 0, got {self.useful_rate!r}")
        _require(0.0 < self.burnin.shape < 1.0,
                 f"burnin.shape must lie in (0, 1), got {self.burnin.shape!r}")
        _require(self.wearout.shape > 1.0,
                 f"wearout.shape must be > 1, got {self.wearout.shape!r}")
        for nm in ("th1", "th2", "th3"):
            v = getattr(self, nm)
            _require(_finite_number(v) and v > 0.0, f"{nm} must be > 0, got {v!r}")
        self._set(clamp_floor=1e-6 * self.th1)
        _require(self.clamp_floor > 0.0, f"clamp_floor must be > 0, got {self.clamp_floor!r}")

    @property
    def wearout_onset(self) -> float:
        return self.th1 + self.th2


def _add_wearout(out, ages, model: BathtubModel, coef: float, power: float):
    # coef * max(age - onset, 0)**power adds exactly 0 before the onset, where numpy's
    # power would take its slow path on zero bases; a mask, as ages need not be sorted.
    # A power past the largest float is +inf, its limit.
    past = ages > model.wearout_onset
    with np.errstate(over="ignore"):
        out[past] += coef * (ages[past] - model.wearout_onset) ** power


def bathtub_hazard(t, model: BathtubModel):
    """Total hardware rate at age ``t`` (burn-in clamped near the origin)."""
    arr, scalar = _checked_time(t, "bathtub_hazard")
    ages = np.atleast_1d(arr)
    b, w = model.burnin, model.wearout
    if b.scale > 0.0:
        # In place, one array for the sum: IEEE + and * commute, so x += c is c + x.
        h = np.maximum(ages, model.clamp_floor)
        h **= b.shape - 1.0
        h *= b.scale * b.shape
        h += model.useful_rate
    else:
        h = np.full_like(ages, model.useful_rate)
    if w.scale > 0.0:
        _add_wearout(h, ages, model, w.scale * w.shape, w.shape - 1.0)
    return _ret(h.reshape(arr.shape), scalar)


def bathtub_cumulative(t, model: BathtubModel):
    """Integral of the bathtub rate on [0, t], term by term in closed form.

    The burn-in integral is exact even though the point rate is clamped: the
    clamp only guards point evaluation, and t**shape -> 0 at the origin.
    """
    arr, scalar = _checked_time(t, "bathtub_cumulative")
    ages = np.atleast_1d(arr)
    b, w = model.burnin, model.wearout
    with np.errstate(over="ignore"):  # a term past the largest float is +inf, its limit
        total = model.useful_rate * ages
        total += 0.0  # as the wear-out term's 0 before the onset did: an age of -0.0 sums to +0.0
        if b.scale > 0.0:
            total += b.scale * ages ** b.shape
    if w.scale > 0.0:
        _add_wearout(total, ages, model, w.scale, w.shape)
    return _ret(total.reshape(arr.shape), scalar)


# ---------------------------------------------------------------------------
# Lifetime distributions
# ---------------------------------------------------------------------------

class LifetimeDistribution(Value):
    """Unit lifetime, lognormal with the given mean and standard deviation.

    Parameterized directly by the lifetime mean and spread (weeks), not by
    the log-space parameters.  ``sd = 0`` denotes the degenerate point mass
    at ``mean`` (deterministic mode).
    """

    __slots__ = ("mean", "sd", "location", "scale")

    def __init__(self, mean: float, sd: float):
        _require(_finite_number(mean) and mean > 0.0, f"lifetime mean must be > 0, got {mean!r}")
        _require(_finite_number(sd) and sd >= 0.0, f"lifetime sd must be >= 0, got {sd!r}")
        ratio = sd / mean
        # where ratio ** 2 would overflow, log1p of it is 2 * log(ratio) to the last bit
        s2 = (math.log1p(ratio ** 2) if ratio * ratio < math.inf
              else 2.0 * (math.log(sd) - math.log(mean)))
        self._set(mean=mean, sd=sd, location=math.log(mean) - 0.5 * s2, scale=math.sqrt(s2))

    @property
    def degenerate(self) -> bool:
        return self.sd == 0.0

    def sample(self, u):
        """Inverse-transform sample: ``exp(location + scale * quantile(u))``.

        The degenerate distribution returns ``mean`` for every ``u``.
        """
        arr, scalar = _checked_uniform(u, "LifetimeDistribution.sample")
        if self.degenerate:
            return _ret(np.full_like(arr, self.mean), scalar)
        return _ret(np.exp(self.location + self.scale * _normal_quantile(arr)), scalar)


# Rational approximation of the standard normal quantile (Acklam's
# algorithm); absolute error below 1.2e-9 over the whole open interval,
# well inside the 1e-8 contract.  Implemented locally so that sampled
# streams are bit-stable regardless of the installed scipy version.
_NQ_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_NQ_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
_NQ_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_NQ_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
_NQ_LOW = 0.02425


def _nq_tail(q):
    c0, c1, c2, c3, c4, c5 = _NQ_C
    d0, d1, d2, d3 = _NQ_D
    num = ((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5
    den = (((d0 * q + d1) * q + d2) * q + d3) * q + 1.0
    return num / den


def _nq_central(u):
    a0, a1, a2, a3, a4, a5 = _NQ_A
    b0, b1, b2, b3, b4 = _NQ_B
    q = u - 0.5
    r = q * q
    num = ((((a0 * r + a1) * r + a2) * r + a3) * r + a4) * r + a5
    den = ((((b0 * r + b1) * r + b2) * r + b3) * r + b4) * r + 1.0
    return q * num / den


def _normal_quantile(arr):
    """The standard normal quantile of each element of checked uniforms ``arr``."""
    out = np.empty_like(arr)
    lo = arr < _NQ_LOW
    hi = arr > 1.0 - _NQ_LOW
    mid = ~(lo | hi)
    if np.any(lo):
        q = np.sqrt(-2.0 * np.log(arr[lo]))
        out[lo] = _nq_tail(q)
    if np.any(hi):
        q = np.sqrt(-2.0 * np.log1p(-arr[hi]))
        out[hi] = -_nq_tail(q)
    if np.any(mid):
        out[mid] = _nq_central(arr[mid])
    return out


# ---------------------------------------------------------------------------
# Software and operator contributions
# ---------------------------------------------------------------------------

class UpgradeEvent(Value):
    """One scheduled software upgrade.

    ``minor`` events superpose a decaying stress pulse on the rate.  ``major``
    events restart the update-decay clock (the rate re-enters an early-life
    transient); their pulse fields are accepted for schema uniformity but do
    not enter the rate.
    """

    __slots__ = ("time", "kind", "pulse_amplitude", "pulse_decay_tau")

    def __init__(self, time: float, kind: str, pulse_amplitude: float, pulse_decay_tau: float):
        self._set(time=time, kind=kind, pulse_amplitude=pulse_amplitude,
                  pulse_decay_tau=pulse_decay_tau)
        _require(self.kind in ("minor", "major"),
                 f"upgrade kind must be 'minor' or 'major', got {self.kind!r}")
        _require(_finite_number(self.time) and self.time >= 0.0,
                 f"upgrade time must be >= 0, got {self.time!r}")
        _require(_finite_number(self.pulse_amplitude) and self.pulse_amplitude >= 0.0,
                 "pulse_amplitude must be >= 0")
        _require(_finite_number(self.pulse_decay_tau) and self.pulse_decay_tau >= 0.0,
                 "pulse_decay_tau must be >= 0")
        if self.kind == "minor" and self.pulse_amplitude > 0.0:
            _require(self.pulse_decay_tau > 0.0,
                     "a minor upgrade with a nonzero pulse needs pulse_decay_tau > 0")


class SoftwareHazardModel(Value):
    """Software failure rate: steady floor + update decay + upgrade pulses.

    The rate is ``steady_floor + update_amplitude * exp(-t'/update_decay_tau)``
    plus one decaying pulse per past minor upgrade, where ``t'`` is the time
    since the most recent major upgrade (or since t = 0).  The rate
    never falls below ``steady_floor``.
    """

    __slots__ = ("steady_floor", "update_amplitude", "update_decay_tau", "upgrade_events",
                 "_terms")

    def __init__(self, steady_floor: float, update_amplitude: float, update_decay_tau: float,
                 upgrade_events: tuple[UpgradeEvent, ...]):
        self._set(steady_floor=steady_floor, update_amplitude=update_amplitude,
                  update_decay_tau=update_decay_tau, upgrade_events=tuple(upgrade_events))
        _require(_finite_number(self.steady_floor) and self.steady_floor >= 0.0,
                 "steady_floor must be >= 0")
        _require(_finite_number(self.update_amplitude) and self.update_amplitude >= 0.0,
                 "update_amplitude must be >= 0")
        _require(_finite_number(self.update_decay_tau) and self.update_decay_tau >= 0.0,
                 "update_decay_tau must be >= 0")
        if self.update_amplitude > 0.0:
            _require(self.update_decay_tau > 0.0,
                     "a nonzero update_amplitude needs update_decay_tau > 0")
        times = [e.time for e in self.upgrade_events]
        _require(all(t1 < t2 for t1, t2 in zip(times, times[1:])),
                 "upgrade_events must be sorted by time, strictly increasing")
        # the one list of decaying terms (start, end, amplitude, tau) that both kernels read
        terms = []
        if self.update_amplitude > 0.0:
            starts = [0.0] + [e.time for e in self.upgrade_events if e.kind == "major"]
            terms += [(start, end, self.update_amplitude, self.update_decay_tau)
                      for start, end in zip(starts, starts[1:] + [math.inf])]
        terms += [(e.time, math.inf, e.pulse_amplitude, e.pulse_decay_tau)
                  for e in self.upgrade_events if e.kind == "minor" and e.pulse_amplitude > 0.0]
        self._set(_terms=tuple(terms))


def software_hazard(t, model: SoftwareHazardModel):
    """Software rate at calendar time ``t`` (weeks since the system entered service)."""
    arr, scalar = _checked_time(t, "software_hazard")
    h = np.full_like(arr, model.steady_floor)
    for start, end, amplitude, tau in model._terms:
        on = (arr >= start) & (arr < end)
        h[on] += amplitude * np.exp(-(arr[on] - start) / tau)
    return _ret(h, scalar)


def software_cumulative(t, model: SoftwareHazardModel):
    """Integral of the software rate on [0, t], in closed form per term."""
    arr, scalar = _checked_time(t, "software_cumulative")
    total = model.steady_floor * arr
    for start, end, amplitude, tau in model._terms:
        span = np.clip(np.minimum(arr, end) - start, 0.0, None)
        total = total + amplitude * tau * -np.expm1(-span / tau)
    return _ret(total, scalar)


class OperatorHazard(Value):
    """Constant operator-error failure rate."""

    __slots__ = ("rate",)

    def __init__(self, rate: float):
        self._set(rate=rate)
        _require(_finite_number(self.rate) and self.rate >= 0.0,
                 f"operator rate must be >= 0, got {self.rate!r}")
