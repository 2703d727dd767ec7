"""Small shared numerics helpers."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ValidationError

__all__ = ["sinc", "spawn_rng", "fwhm_of_profile"]

# Largest mean numpy's Poisson sampler accepts (it raises "lam value too large" above).
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)
# Most cells (array elements) one grid or sample table may hold: 128 MB of
# float64. A larger request is rejected before anything is allocated.
_CELL_BUDGET = 1 << 24


def _check_cells(what: str, cells: float) -> None:
    if cells > _CELL_BUDGET:
        raise ValidationError(f"{what} asks for {cells:.6g} cells, more than the budget of {_CELL_BUDGET}")


def _check_int(name: str, value, lo: int | None = None) -> int:
    """value as an int: an int or numpy integer, not a bool, and >= lo. Anything
    else (a float, even 2.0, NaN or +-inf) is a ValidationError, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ValidationError(f"{name} must be >= {lo}, got {value}")
    return int(value)


def _check_real(
    name: str, value, lo: float | None = None, hi: float | None = None,
    above: float | None = None, below: float | None = None,
) -> float:
    """value as a finite float: an int, float or numpy number, not a bool,
    with lo <= value <= hi and above < value < below, each bound where given.
    Anything else (a string, even a numeric one, None, NaN or +-inf) is a
    ValidationError that names the argument."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x}")
    if lo is not None and x < lo:
        raise ValidationError(f"{name} must be >= {lo}, got {x}")
    if above is not None and x <= above:
        raise ValidationError(f"{name} must be > {above}, got {x}")
    if hi is not None and x > hi:
        raise ValidationError(f"{name} must be <= {hi}, got {x}")
    if below is not None and x >= below:
        raise ValidationError(f"{name} must be < {below}, got {x}")
    return x


def sinc(x):
    """Unnormalized sinc: sin(x)/x, with sinc(0) = 1.

    numpy's np.sinc is the normalized variant sin(pi x)/(pi x); all formulas in
    this package use the unnormalized convention.
    """
    return np.sinc(np.asarray(x) / np.pi)


def spawn_rng(seed: int | None, *key: int) -> np.random.Generator:
    """Deterministic child generator for stream (seed, *key); seed None means 0,
    any other seed is an integer >= 0.

    Streams derived from the same seed but different keys are statistically
    independent and do not depend on the order in which they are created, so
    results are reproducible regardless of evaluation scheduling.
    """
    seq = np.random.SeedSequence(0 if seed is None else _check_int("seed", seed, 0), spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def fwhm_of_profile(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum of a sampled single-peaked profile.

    Uses linear interpolation of the half-maximum crossings on either side of
    the peak. Raises ValueError if the profile never falls below half maximum
    on both sides.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 3:
        raise ValueError("profile must be 1-d arrays of equal length >= 3")
    ipk = int(np.argmax(y))
    half = y[ipk] / 2.0

    def cross(idx_range) -> float:
        for i in idx_range:
            if y[i] <= half:
                # interpolate between i (below) and its peak-side neighbor (above)
                k = i + (1 if idx_range.step < 0 else -1)
                if k < 0 or k >= y.size or y[k] == y[i]:
                    return x[i]
                t = (half - y[i]) / (y[k] - y[i])
                return x[i] + t * (x[k] - x[i])
        raise ValueError("profile does not fall to half maximum on one side")

    left = cross(range(ipk, -1, -1))
    right = cross(range(ipk, y.size))
    return abs(right - left)
