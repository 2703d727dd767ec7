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
# For the float and the complex number rule: the numbers taken, what they are
# called, and the ndarray dtype kinds taken.
_NUMBERS = {float: (numbers.Real, "real", "iuf"), complex: (numbers.Complex, "complex", "iufc")}


def _real(name: str, value, dtype: type = float) -> float | complex:
    """value as a float: an int, float or numpy number, not a bool, where an
    int past the float range, which float() refuses, reads as +-inf. With
    dtype complex, a complex or numpy complex number is taken too, and the
    value is a complex. Anything else (a string, even a numeric one, or None)
    is a ValidationError."""
    number, kind, _ = _NUMBERS[dtype]
    if isinstance(value, bool) or not isinstance(value, number):
        raise ValidationError(f"{name} must be a {kind} number, got {value!r}")
    try:
        return dtype(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _check_cells(what: str, cells: float) -> None:
    if cells > _CELL_BUDGET:
        raise ValidationError(f"{what} asks for {_real(what, cells):.6g} cells, more than the budget of {_CELL_BUDGET}")


def _check_int(name: str, value, lo: int | None = None) -> int:
    """value as an int: an int or numpy integer, not a bool, >= lo and within
    the float range. That bound is one rule for every integer argument, seeds
    included, though SeedSequence would take a larger seed. Anything else (a
    float, even 2.0, NaN or +-inf) is a ValidationError, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ValidationError(f"{name} must be >= {lo}, got {value}")
    if not math.isfinite(_real(name, value)):
        raise ValidationError(f"{name} must be within the float range, got an int of {int(value).bit_length()} bits")
    return int(value)


def _check_text(name: str, value) -> str:
    """value, a string; anything else (a number, None, bytes, ...) is a
    ValidationError that names the argument."""
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


def _check_real(
    name: str, value, lo: float | None = None, hi: float | None = None,
    above: float | None = None, below: float | None = None,
) -> float:
    """value as a finite float: an int, float or numpy number, not a bool,
    with lo <= value <= hi and above < value < below, each bound where given.
    Anything else (a string, even a numeric one, None, NaN, +-inf or an int
    past the float range) is a ValidationError that names the argument."""
    x = _real(name, value)
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


def _real_array(name: str, value, ndim: int | None = None, dtype: type = float) -> np.ndarray:
    """value as a float array (with dtype complex, a complex one), its type
    and shape checked but not its values: an ndarray of integers or floats
    (or complex numbers), a number as _real takes it, or a rectangular
    nesting of lists and tuples of them, each entry checked as given.
    Anything else, or another number of dimensions than a given ndim, is a
    ValidationError that names the argument."""
    _, kind, dtype_kinds = _NUMBERS[dtype]
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in dtype_kinds:  # a bool, a string (even a numeric one), an object, ...
            raise ValidationError(f"{name} must be a {kind} number or an array of them, got {value!r}")
    elif isinstance(value, (list, tuple)):
        value = [_real_array(name, v, dtype=dtype) for v in value]
        if len({v.shape for v in value}) > 1:
            raise ValidationError(f"{name} must be a rectangular array of numbers, got a ragged nesting")
    else:
        value = _real(name, value, dtype)
    arr = np.asarray(value, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must be a {ndim}-D array of numbers, got {arr.ndim} dimensions")
    return arr


def _check_array(
    name: str, value, lo: float | None = None, hi: float | None = None,
    above: float | None = None, below: float | None = None, ndim: int | None = None, dtype: type = float,
) -> np.ndarray:
    """_real_array(name, value, ndim, dtype) with every value finite and
    within the bounds of _check_real, whose messages it gives; a complex
    array's real and imaginary parts each. Only the least and the greatest
    value are tested: min and max propagate NaN."""
    arr = _real_array(name, value, ndim, dtype)
    if arr.size:
        for part in (arr.real, arr.imag) if dtype is complex else (arr,):
            _check_real(name, part.min(), lo, hi, above, below)
            _check_real(name, part.max(), lo, hi, above, below)
    return arr


def sinc(x):
    """Unnormalized sinc: sin(x)/x, with sinc(0) = 1.

    numpy's np.sinc is the normalized variant sin(pi x)/(pi x); all formulas in
    this package use the unnormalized convention.
    """
    return np.sinc(np.asarray(x) / np.pi)


def spawn_rng(seed: int | None, *key: int) -> np.random.Generator:
    """Deterministic child generator for stream (seed, *key); seed None means 0,
    any other seed and every key is an integer >= 0.

    Streams derived from the same seed but different keys are statistically
    independent and do not depend on the order in which they are created, so
    results are reproducible regardless of evaluation scheduling.
    """
    seq = np.random.SeedSequence(
        0 if seed is None else _check_int("seed", seed, 0), spawn_key=[_check_int("key", k, 0) for k in key]
    )
    return np.random.Generator(np.random.PCG64(seq))


def fwhm_of_profile(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum of a sampled single-peaked profile.

    Uses linear interpolation of the half-maximum crossings on either side of
    the peak. Raises ValueError if the profile never falls below half maximum
    on both sides.
    """
    x = _check_array("x", x, ndim=1)
    y = _check_array("y", y, ndim=1)
    if x.shape != y.shape or x.size < 3:
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
