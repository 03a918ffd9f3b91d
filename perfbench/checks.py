"""Output checks of the benchmark, as pure functions of outputs and references.

Every check returns a list of failure messages; an empty list is a pass.
References are computed outside the timed section and never come from a
stored copy of an earlier run: they are closed forms, exact solves, or
properties the method must have.

Thresholds are chosen so that a reseed raises a false alarm with
probability below 1e-4 per check:

* ``Z_MEAN = 4.0``: two-sided normal tail 6.3e-5 for a sample mean over
  at least 512 replicas;
* ``Z_VAR = 4.5``: two-sided normal tail 6.8e-6, the extra half sigma
  covering the skew of a sample variance at 512 replicas;
* the Hoeffding allowance of :func:`hoeffding_allowance` bounds the tail
  by 1e-4 outright, for any distribution on the stated range.
"""

from __future__ import annotations

import math

import numpy as np

Z_MEAN = 4.0
Z_VAR = 4.5
FALSE_ALARM = 1e-4


def hull(values: np.ndarray, initial: np.ndarray) -> list[str]:
    """Every consensus value lies in ``[min xi(0), max xi(0)]``."""
    lo, hi = float(initial.min()), float(initial.max())
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    outside = int(np.sum((values < lo - slack) | (values > hi + slack)))
    if outside:
        return [f"{outside} values outside the initial hull [{lo:.6g}, {hi:.6g}]"]
    return []


def _standard_error(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) / math.sqrt(len(values))


def mean_matches(values: np.ndarray, target: float, label: str) -> list[str]:
    """The sample mean is within ``Z_MEAN`` standard errors of ``target``."""
    se = _standard_error(values)
    if se == 0.0:
        return [f"all {len(values)} values equal: no standard error"]
    z = (float(values.mean()) - target) / se
    if not abs(z) <= Z_MEAN:
        return [f"mean {values.mean():.6g} vs {label} {target:.6g}: z = {z:.2f}"]
    return []


def mean_separates(values: np.ndarray, other: float, label: str) -> list[str]:
    """``other`` lies at least 10 standard errors from the sample mean.

    Guards the power of :func:`mean_matches`: a reference that would be
    confused with ``other`` cannot tell the two apart.
    """
    se = _standard_error(values)
    if se == 0.0:
        return [f"all {len(values)} values equal: no standard error"]
    z = (float(values.mean()) - other) / se
    if not abs(z) >= 10.0:
        return [f"{label} {other:.6g} only {abs(z):.2f} SE from the mean"]
    return []


def variance_matches(values: np.ndarray, reference: float) -> list[str]:
    """The sample variance is within ``Z_VAR`` standard errors of ``reference``.

    The standard error comes from the sample fourth central moment,
    ``sqrt((m4 - s^4) / B)``, so no normality is assumed.
    """
    centred = values - values.mean()
    s2 = float(values.var(ddof=1))
    m4 = float(np.mean(centred**4))
    se = math.sqrt(max(m4 - s2 * s2, 0.0) / len(values))
    z = (s2 - reference) / se if se > 0 else math.inf
    if not abs(z) <= Z_VAR:
        return [f"Var {s2:.6g} vs reference {reference:.6g}: z = {z:.2f}"]
    return []


def same_bits(computed: np.ndarray, cached: np.ndarray) -> list[str]:
    """A cached read returns exactly the array that was computed."""
    if cached is None:
        return ["cache read returned nothing"]
    if (
        computed.dtype != cached.dtype
        or computed.shape != cached.shape
        or computed.tobytes() != cached.tobytes()
    ):
        return ["cached array differs from the computed one"]
    return []


def hits_positive(hits: np.ndarray) -> list[str]:
    """Every hitting time is at least one round (phi(0) > eps)."""
    bad = int(np.sum(hits < 1))
    return [f"{bad} hitting times below 1"] if bad else []


def phi(states: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Per-row potential ``sum_u pi_u (xi_u - M)^2`` with ``M = <pi, xi>``."""
    weighted_mean = states @ pi
    return ((states - weighted_mean[:, None]) ** 2) @ pi


def frozen_below(states: np.ndarray, pi: np.ndarray, epsilon: float) -> list[str]:
    """The potential of every frozen state, recomputed here, is at most eps.

    The engine tracks phi as ``s2 - s1^2`` from running sums; the
    relative allowance 1e-6 covers their rounding, which is many orders
    smaller at the sizes benchmarked.
    """
    values = phi(states, pi)
    above = int(np.sum(values > epsilon * (1.0 + 1e-6)))
    if above:
        return [
            f"{above} frozen states with phi above eps = {epsilon:.3g} "
            f"(max {values.max():.6g})"
        ]
    return []


def markov_bound(phi0: float, epsilon: float, rate: float) -> float:
    """Bound on ``E[T_eps]`` from a per-round contraction ``1 - rate``.

    ``T > t`` implies ``phi(t) > eps``, so Markov's inequality gives
    ``P(T > t) <= (phi0 / eps) (1 - rate)^t``.  Summing over ``t``:
    ``E[T] <= t0 + 1 / (1 - e^-rate) <= log(phi0/eps)/rate + 1/rate + 2``.
    """
    return math.log(phi0 / epsilon) / rate + 1.0 / rate + 2.0


def mean_below(values: np.ndarray, bound: float, label: str) -> list[str]:
    """The sample mean stays under ``bound`` plus ``Z_MEAN`` standard errors."""
    se = _standard_error(values)
    mean = float(values.mean())
    if not mean <= bound + Z_MEAN * se:
        return [f"mean {mean:.6g} above {label} {bound:.6g} (SE {se:.3g})"]
    return []


def hoeffding_allowance(trials: int, value_range: float) -> float:
    """One-sided Hoeffding deviation with tail ``FALSE_ALARM``.

    A mean of ``trials`` independent values in an interval of width
    ``value_range`` exceeds its expectation by more than this with
    probability below ``FALSE_ALARM``.
    """
    return value_range * math.sqrt(math.log(1.0 / FALSE_ALARM) / (2.0 * trials))


def at_most(value: float, bound: float, label: str) -> list[str]:
    """``value <= bound`` (bounds already include any sampling allowance)."""
    if not value <= bound:
        return [f"{label}: {value:.6g} above {bound:.6g}"]
    return []


def variance_agrees(
    sampled: float, exact: float, replicas: int, kurtosis: float, label: str
) -> list[str]:
    """A sample variance agrees with the exact one within ``Z_VAR`` SE.

    The relative standard error of a sample variance is
    ``sqrt((kurtosis - 1) / replicas)``; ``kurtosis`` is an upper bound
    on the sampled variable's kurtosis.
    """
    tolerance = Z_VAR * math.sqrt((kurtosis - 1.0) / replicas) * exact
    if not abs(sampled - exact) <= tolerance:
        return [f"{label}: Var {sampled:.6g} vs exact {exact:.6g} (tol {tolerance:.3g})"]
    return []


def non_decreasing(values: np.ndarray, label: str) -> list[str]:
    """An exact trajectory never decreases beyond rounding."""
    values = np.asarray(values, dtype=np.float64)
    slack = 1e-12 * max(1.0, float(np.abs(values).max()))
    if np.any(np.diff(values) < -slack):
        return [f"{label}: trajectory decreases"]
    return []
