"""Small shared numerics helpers."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import SolverError, ValidationError

__all__ = ["sinc", "spawn_rng", "fwhm_of_profile"]

# Largest mean numpy's Poisson sampler accepts (it raises "lam value too large" above).
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)
# Most cells (array elements) one grid or sample table may hold: 128 MB of
# float64. A larger request is rejected before anything is allocated.
_CELL_BUDGET = 1 << 24
# For the float and the complex number rule: the numbers taken, what they are
# called, and the ndarray dtype kinds taken.
_NUMBERS = {float: (numbers.Real, "real", "iuf"), complex: (numbers.Complex, "complex", "iufc")}
# Brent's relative tolerance: scipy.optimize.brentq's default, 4 machine epsilons.
_BRENT_RTOL = 4.0 * math.ulp(1.0)


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


def _brentq(f, a, b, xtol: float, maxiter: int) -> float:
    """Root of f between a and b by Brent's method (R. P. Brent, Algorithms
    for Minimization without Derivatives (1973), ch. 4).

    A statement-for-statement port of scipy's brentq.c at scipy's default
    rtol: the same bracket swaps, interpolate/extrapolate step test, delta =
    (xtol + rtol |x|)/2 and exits, with f called on Python floats and its
    values taken as floats, so each root equals scipy.optimize.brentq(f, a, b,
    xtol=xtol, maxiter=maxiter) bit for bit. Raises SolverError where scipy
    raises: f(a) and f(b) of the same sign, a NaN value of f, or no
    convergence in maxiter iterations.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise SolverError(f"the function value at x={x!r} is NaN; Brent's method cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise SolverError(f"f(a) and f(b) must have different signs: f({xpre!r}) = {fpre!r}, f({xcur!r}) = {fcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # den underflows to 0 when f is tiny (|f| ~ 1e-120): C's step
                # is then inf or NaN, which the test below bisects, where
                # Python would raise ZeroDivisionError.
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise SolverError(f"Brent's method did not converge in {maxiter} iterations; last x = {xcur!r}")


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
