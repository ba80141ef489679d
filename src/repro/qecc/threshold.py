"""Threshold-crossing estimation for concatenated codes (Figure 7 analysis).

The paper's empirical threshold is the physical failure rate at which the
level-1 and level-2 logical failure curves cross: below it, adding a level of
recursion helps; above it, the extra circuitry hurts.  This module fits the
standard concatenation form ``p_L ~ A * p^(2^L)`` to Monte-Carlo data, locates
the crossing and reports it with an uncertainty band -- the quantity the paper
quotes as ``p_th = (2.1 +/- 1.8) x 10^-3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ParameterError


@dataclass(frozen=True)
class ThresholdEstimate:
    """A threshold (curve-crossing) estimate.

    Attributes
    ----------
    threshold:
        Physical failure rate at which the two logical-failure curves cross,
        or None when they do not cross inside the swept range.
    lower, upper:
        With a crossing, a crude uncertainty band derived from the
        statistical errors of the data points bracketing it.  Without one, a
        one-sided bound at the edge of the sweep: ``lower`` is the largest
        swept rate when ``level_b`` stays below ``level_a`` (the crossing,
        if any, lies above the range), ``upper`` the smallest when it stays
        above.  ``upper`` is None when unbounded; always
        ``0 <= lower <= upper``.
    level_a, level_b:
        The two recursion levels whose curves were compared.
    """

    threshold: float | None
    lower: float
    upper: float | None
    level_a: int = 1
    level_b: int = 2

    def __contains__(self, value: float) -> bool:
        return self.lower <= value and (self.upper is None or value <= self.upper)


def fit_concatenation_coefficient(
    physical_rates: Sequence[float], logical_rates: Sequence[float], level: int = 1
) -> float:
    """Fit ``A`` in ``p_logical = A * p_physical^(2^level)`` by least squares in log space.

    Points with zero logical failure (no failures observed) are skipped -- they
    carry no information about the coefficient.
    """
    if len(physical_rates) != len(logical_rates):
        raise ParameterError("physical and logical rate arrays must have equal length")
    exponent = 2**level
    samples = [
        np.log(pl) - exponent * np.log(pp)
        for pp, pl in zip(physical_rates, logical_rates)
        if pl > 0.0 and pp > 0.0
    ]
    if not samples:
        raise ParameterError("no non-zero data points to fit the concatenation coefficient")
    return float(np.exp(np.mean(samples)))


def pseudothreshold_from_coefficient(coefficient: float, level: int = 1) -> float:
    """The pseudothreshold ``p*`` where ``A p^(2^L) = p``.

    For the usual level-1 quadratic form this is simply ``1 / A``.
    """
    if coefficient <= 0.0:
        raise ParameterError("concatenation coefficient must be positive")
    exponent = 2**level
    return float(coefficient ** (-1.0 / (exponent - 1)))


def estimate_threshold_crossing(
    physical_rates: Sequence[float],
    failures_level_a: Sequence[float],
    failures_level_b: Sequence[float],
    errors_level_a: Sequence[float] | None = None,
    errors_level_b: Sequence[float] | None = None,
    level_a: int = 1,
    level_b: int = 2,
) -> ThresholdEstimate:
    """Locate the crossing of two logical-failure curves.

    Parameters
    ----------
    physical_rates:
        Common x-axis: the swept physical component failure rates.
    failures_level_a, failures_level_b:
        Logical failure rates at the two recursion levels.
    errors_level_a, errors_level_b:
        Optional one-sigma statistical errors; when given they widen the
        reported uncertainty band.
    level_a, level_b:
        Recursion levels, recorded in the result.

    The crossing is found by linear interpolation of the difference curve
    ``level_b - level_a`` between the first pair of points where it changes
    sign, or at the first point where it is exactly zero.  Points where both
    curves read zero (no failures at either level) say nothing about a
    crossing and are skipped.  When the difference never changes sign,
    nothing is extrapolated: the estimate has ``threshold=None`` and a
    one-sided bound at the edge of the sweep (see :class:`ThresholdEstimate`).
    """
    x = np.asarray(physical_rates, dtype=float)
    a = np.asarray(failures_level_a, dtype=float)
    b = np.asarray(failures_level_b, dtype=float)
    if not (x.shape == a.shape == b.shape) or x.ndim != 1 or x.size < 2:
        raise ParameterError("need at least two aligned sweep points to locate a crossing")
    if (x < 0.0).any():
        raise ParameterError("physical rates must be non-negative")
    err_a = np.asarray(errors_level_a, dtype=float) if errors_level_a is not None else np.zeros_like(x)
    err_b = np.asarray(errors_level_b, dtype=float) if errors_level_b is not None else np.zeros_like(x)
    order = np.argsort(x)
    keep = order[(a[order] != 0.0) | (b[order] != 0.0)]
    x, diff, err_a, err_b = x[keep], b[keep] - a[keep], err_a[keep], err_b[keep]

    bracket = None
    for i in range(x.size):
        if diff[i] == 0.0:
            # An exact tie: the crossing is the point itself; a neighbour
            # gives the slope of the uncertainty band.
            bracket = (i, i + 1 if i + 1 < x.size else max(i - 1, 0))
            threshold = float(x[i])
            break
        if i + 1 < x.size and diff[i] * diff[i + 1] < 0.0:
            bracket = (i, i + 1)
            fraction = -diff[i] / (diff[i + 1] - diff[i])
            threshold = float(x[i] + fraction * (x[i + 1] - x[i]))
            break
    if bracket is None:
        if not x.size:
            lower, upper = 0.0, None
        elif diff[0] < 0.0:
            lower, upper = float(x[-1]), None
        else:
            lower, upper = 0.0, float(x[0])
        return ThresholdEstimate(
            threshold=None, lower=lower, upper=upper, level_a=level_a, level_b=level_b
        )

    # Uncertainty: shift the difference curve by the combined statistical error
    # at the bracketing points and see how far the crossing moves.
    i, j = bracket
    combined_error = float(np.sqrt(err_a[i] ** 2 + err_b[i] ** 2 + err_a[j] ** 2 + err_b[j] ** 2))
    slope = float(abs((diff[j] - diff[i]) / (x[j] - x[i]))) if x[j] != x[i] else 0.0
    if slope > 0.0 and combined_error > 0.0:
        shift = combined_error / slope
    else:
        shift = float(abs(x[j] - x[i]))
    return ThresholdEstimate(
        threshold=threshold,
        lower=max(0.0, threshold - shift),
        upper=threshold + shift,
        level_a=level_a,
        level_b=level_b,
    )
