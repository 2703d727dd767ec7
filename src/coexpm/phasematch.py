"""Collinear type-II phase matching for photon-pair generation.

Conventions:

* Wavelengths at the API surface are vacuum wavelengths in nanometers;
  wavevectors are in rad/um.
* The pair is ordered by wavelength, signal shorter: lambda_s <= lambda_i.
* Polarizations are crystallographic axis labels ('y'/'z' for KTP; 'H'/'V'
  aliases map to y/z for a y-cut collinear geometry).
* A periodically inverted structure of period Lambda contributes grating
  vectors m * 2 pi / Lambda; order m = 0 is the unpoled (birefringent)
  process and m >= 1 the quasi-phase-matched orders.

The collinear mismatch is

    delta_k = k_p(lambda_p) - k_s(lambda_s) - k_i(lambda_i),

with lambda_i fixed by energy conservation 1/lambda_i = 1/lambda_p - 1/lambda_s.
Signal solves bracket the mismatch on the nondegenerate-signal window
[1.5 lambda_p, 2 lambda_p) and refine it with Chandrupatla's method
(Adv. Eng. Softw. 28, 145 (1997): inverse quadratic interpolation guarded by
bisection), vectorized over pumps, to residuals far below 1e-10 rad/um.
Brent's method is used only for the scalar pump searches: the degeneracy
cutoff and the pump of a given coexistence period. It is scipy's, imported on
first use, so importing this module loads no ``scipy.optimize``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .dispersion import _wavevector, ktp_axes, wavevector
from .errors import SolverError, ValidationError
from .util import _check_array, _check_int, _check_real, _check_text, _real

__all__ = [
    "ProcessSpec",
    "PhaseMatchPoint",
    "NBPM_PROCESS",
    "QPM_PROCESS",
    "delta_k",
    "solve_nbpm",
    "solve_qpm",
    "solve_coexistence",
    "solve_pump_for_period",
    "degeneracy_pump_nm",
    "period_sweep",
]

_AXIS_ALIASES = {"y": "y", "z": "z", "h": "y", "v": "z"}

# Signal window: nondegenerate pair with the signal on the short side.
_WINDOW_LO = 1.5
_WINDOW_HI = 2.0
# Pairs closer than this to degeneracy are flagged rather than trusted.
_DEGENERACY_FLAG_NM = 0.1
# Window solve: absolute signal tolerance (nm) and iteration cap.
_SIGNAL_XTOL_NM = 1e-13
_SIGNAL_MAXITER = 200


def _axis(name: str, label: str) -> str:
    try:
        return _AXIS_ALIASES[_check_text(name, label).lower()]
    except KeyError:
        raise ValidationError(f"unknown polarization axis {label!r}; use y/z (or H/V)") from None


@dataclass(frozen=True)
class ProcessSpec:
    """One three-wave process: pump/signal/idler axes, grating order, temperature."""

    pump_axis: str = "y"
    signal_axis: str = "z"
    idler_axis: str = "y"
    qpm_order: int = 0
    temperature_c: float = 25.0

    def __post_init__(self):
        for name in ("pump_axis", "signal_axis", "idler_axis"):
            object.__setattr__(self, name, _axis(name, getattr(self, name)))
        object.__setattr__(self, "qpm_order", _check_int("qpm_order", self.qpm_order, 0))
        object.__setattr__(self, "temperature_c", _check_real("temperature_c", self.temperature_c))

    def swapped(self) -> "ProcessSpec":
        """Same process with the signal/idler polarization roles exchanged."""
        return replace(self, signal_axis=self.idler_axis, idler_axis=self.signal_axis)


# The two processes that coexist in the designed structure (pump along y):
# birefringent: y -> z(signal) + y(idler); first-order grating: y -> y(signal) + z(idler).
NBPM_PROCESS = ProcessSpec("y", "z", "y", qpm_order=0)
QPM_PROCESS = ProcessSpec("y", "y", "z", qpm_order=1)


@dataclass(frozen=True)
class PhaseMatchPoint:
    """A solved operating point of one process."""

    pump_nm: float
    signal_nm: float
    idler_nm: float
    temperature_c: float
    qpm_order: int
    poling_period_mm: float | None
    residual_rad_per_um: float
    near_degenerate: bool = False

    @property
    def splitting_nm(self) -> float:
        return self.idler_nm - self.signal_nm


def idler_wavelength_nm(pump_nm: float, signal_nm):
    """Idler wavelength from energy conservation, 1/l_i = 1/l_p - 1/l_s (nm)."""
    pump = _check_array("pump_nm", pump_nm, above=0.0)
    sig = _check_array("signal_nm", signal_nm, above=0.0)
    out = _idler_nm(pump, sig)
    return float(out) if sig.ndim == 0 and pump.ndim == 0 else out


def _idler_nm(pump, sig):
    """idler_wavelength_nm of wavelengths already checked (> 0 nm)."""
    if np.any(sig <= pump):
        raise ValidationError("signal wavelength must exceed pump wavelength")
    return 1.0 / (1.0 / pump - 1.0 / sig)


@cache
def _axes() -> dict:
    """ktp_axes() built once per process, for delta_k, which only reads it.

    ktp_axes() itself returns fresh objects: its callers may change them.
    """
    return ktp_axes()


def delta_k(
    spec: ProcessSpec,
    pump_nm: float,
    signal_nm,
    period_mm: float | None = None,
):
    """Collinear mismatch delta_k - m*2pi/Lambda in rad/um (array-friendly in pump and signal).

    With no period (or order 0) this is the bare material mismatch; a given
    period is a finite number > 0 whatever the order.
    """
    if period_mm is not None:
        period_mm = _check_real("period_mm", period_mm, above=0.0)
    pump = _check_array("pump_nm", pump_nm, above=0.0)
    sig = _check_array("signal_nm", signal_nm, above=0.0)
    return _mismatch(spec, pump, sig, period_mm)


def _mismatch(spec: ProcessSpec, pump, sig, period_mm, in_range: bool = False):
    """delta_k of wavelengths and a period (or None) already checked; the
    solvers call it on the arrays they built. in_range=True skips the check
    of the three wavelengths and the temperature against the dispersion
    ranges, for wavelengths inside a bracket whose ends passed it."""
    axes = _axes()
    t = spec.temperature_c
    k = _wavevector if in_range else wavevector
    kp = k(axes[spec.pump_axis], pump * 1e-3, t)
    ks = k(axes[spec.signal_axis], sig * 1e-3, t)
    ki = k(axes[spec.idler_axis], _idler_nm(pump, sig) * 1e-3, t)
    dk = kp - ks - ki
    if spec.qpm_order and period_mm is not None:
        dk = dk - spec.qpm_order * 2.0 * np.pi / (period_mm * 1e3)
    return dk


def _chandrupatla(f, x1, x2, f1, f2):
    """Roots of the elementwise function f on the brackets [x1, x2], all at once.

    Chandrupatla's method: inverse quadratic interpolation of the last three
    points where it is safe, bisection otherwise. f(x1) and f(x2) must differ
    in sign (or one be zero). An element stops when f is exactly zero or its
    bracket is narrower than _SIGNAL_XTOL_NM + 4 eps |x|, at the bracket end
    with the smaller |f|. Returns (root, f(root)); raises SolverError if an
    element is still open after _SIGNAL_MAXITER steps.
    """
    t = 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_SIGNAL_MAXITER):
            small = np.abs(f1) < np.abs(f2)
            xm, fm = np.where(small, x1, x2), np.where(small, f1, f2)
            dx = np.abs(x2 - x1)
            tol = _SIGNAL_XTOL_NM + 4.0 * np.finfo(float).eps * np.abs(xm)
            done = (fm == 0.0) | (dx < tol)
            if done.all():
                return xm, fm
            tl = 0.5 * tol / dx
            # a finished element is evaluated again at its root, so its bracket holds
            x = np.where(done, xm, x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1))
            fx = f(x)
            same = np.sign(fx) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, fx
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            alpha = (x3 - x1) / (x2 - x1)
            t_iqi = f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
            t = np.where(iqi, t_iqi, 0.5)
    raise SolverError(f"signal solve did not converge in {_SIGNAL_MAXITER} iterations")


def _window(pump_nm):
    """Nondegenerate signal window [1.5, 2) x pump, as (lo, hi)."""
    return _WINDOW_LO * pump_nm, _WINDOW_HI * pump_nm * (1.0 - 1e-12)


def _signal_roots(spec, pumps, period_mm):
    """Signal of delta_k = 0 on the window of each pump in the 1-D array pumps.

    Returns (signal_nm, residual_rad_per_um, ok). ok marks the pumps where
    delta_k changes sign across the window; elsewhere signal and residual
    are NaN.

    The window ends are evaluated with the dispersion range check, the
    iterates without it: they stay inside the window, and the idler falls
    monotonically as the signal rises, so every wavelength an iterate
    evaluates lies between values the check passed.
    """
    lo, hi = _window(pumps)
    f_lo, f_hi = _mismatch(spec, pumps, np.stack([lo, hi]), period_mm)
    ok = np.sign(f_lo) != np.sign(f_hi)
    signal, residual = np.full(pumps.shape, np.nan), np.full(pumps.shape, np.nan)
    kept = pumps[ok]
    signal[ok], residual[ok] = _chandrupatla(
        lambda sig: _mismatch(spec, kept, sig, period_mm, in_range=True),
        lo[ok], hi[ok], f_lo[ok], f_hi[ok],
    )
    return signal, residual, ok


def _solve_window(spec, pump_nm, period_mm):
    """Signal and residual of delta_k = 0 on the window of one pump."""
    signal, residual, ok = _signal_roots(spec, np.array([float(pump_nm)]), period_mm)
    if not ok[0]:
        lo, hi = _window(pump_nm)
        f_lo, f_hi = _mismatch(spec, pump_nm, np.array([lo, hi]), period_mm)
        raise SolverError(
            "no phase-matched signal in window: "
            f"delta_k({lo:.3f} nm) = {f_lo:.6g}, delta_k({hi:.3f} nm) = {f_hi:.6g} rad/um "
            f"(pump {pump_nm:.3f} nm, T {spec.temperature_c:.2f} C, order {spec.qpm_order})"
        )
    return float(signal[0]), float(residual[0])


def _shared_period(temperature_c, pumps, signal_nm):
    """First-order period that phase matches pump y -> signal y + idler z at the
    given wavelengths, and the mismatch left with its grating (elementwise).

    The period is 2 pi / |mismatch| of the unpoled process; it is infinite
    where that mismatch is exactly zero.
    """
    bare = replace(QPM_PROCESS, temperature_c=temperature_c, qpm_order=0)
    mismatch = _mismatch(bare, pumps, signal_nm, None)
    with np.errstate(divide="ignore"):
        period_mm = 2.0 * np.pi / np.abs(mismatch) * 1e-3
    return period_mm, mismatch - 2.0 * np.pi / (period_mm * 1e3)


def _point(spec, pump_nm, signal_nm, residual, period_mm):
    idler = idler_wavelength_nm(pump_nm, signal_nm)
    if idler < signal_nm:
        signal_nm, idler = idler, signal_nm
    return PhaseMatchPoint(
        pump_nm=float(pump_nm),
        signal_nm=float(signal_nm),
        idler_nm=float(idler),
        temperature_c=spec.temperature_c,
        qpm_order=spec.qpm_order,
        poling_period_mm=period_mm,
        residual_rad_per_um=residual,
        near_degenerate=bool(abs(idler - signal_nm) < _DEGENERACY_FLAG_NM),
    )


def solve_nbpm(
    spec: ProcessSpec,
    pump_nm: float,
) -> PhaseMatchPoint:
    """Birefringent (order-0) phase-matched pair for the given pump.

    Finds the nondegenerate root with the signal in [1.5, 2) x pump. Raises
    SolverError with the bracket values when no sign change exists (e.g. pump
    beyond the degeneracy cutoff).
    """
    return solve_qpm(replace(spec, qpm_order=0), pump_nm, None)


def solve_qpm(
    spec: ProcessSpec,
    pump_nm: float,
    period_mm: float | None,
) -> PhaseMatchPoint:
    """Grating-assisted pair for the given pump and poling period.

    With period None (or +inf) and order m the grating term vanishes and
    the result coincides exactly with the order-0 solve.
    """
    pump_nm = _check_real("pump_nm", pump_nm, above=0.0)
    if period_mm is not None:
        p = _real("period_mm", period_mm)
        period_mm = None if p == np.inf else _check_real("period_mm", p, above=0.0)
    sig, res = _solve_window(spec, pump_nm, period_mm)
    return _point(spec, pump_nm, sig, res, period_mm)


def solve_coexistence(
    pump_nm: float,
    temperature_c: float = 25.0,
) -> tuple[float, PhaseMatchPoint]:
    """Poling period that lets the first-order grating process share the
    birefringent process' wavelengths.

    Solves the order-0 process (pump y -> signal z + idler y), evaluates the
    residual mismatch of the complementary process (pump y -> signal y +
    idler z) at those wavelengths, and returns (period_mm, point) with
    period = 2 pi / |mismatch|. The returned point describes the first-order
    process at the shared wavelengths; its residual includes the grating term
    and vanishes by construction.
    """
    base = solve_nbpm(replace(NBPM_PROCESS, temperature_c=temperature_c), pump_nm)
    period_mm, residual = _shared_period(temperature_c, base.pump_nm, base.signal_nm)
    if not np.isfinite(period_mm):
        raise SolverError(
            "first-order process is already phase matched without a grating; "
            "no finite poling period is defined"
        )
    qp = replace(QPM_PROCESS, temperature_c=temperature_c)
    period_mm = float(period_mm)
    return period_mm, _point(qp, pump_nm, base.signal_nm, float(residual), period_mm)


def _bracket(name: str, bracket) -> tuple[float, float]:
    """(lo, hi) of a pump search bracket: two wavelengths > 0 nm."""
    ends = _check_array(name, bracket, above=0.0, ndim=1)
    if ends.size != 2:
        raise ValidationError(f"{name} must have two entries (lo, hi), got {ends.size}")
    return float(ends[0]), float(ends[1])


# A module-level function, not an import inside each solver: perfbench's span
# tracer wraps phasematch.brentq by identity, one span per Brent solve.
def brentq(f, a, b, **kwargs):
    """scipy.optimize.brentq, imported on the first pump search."""
    from scipy.optimize import brentq

    return brentq(f, a, b, **kwargs)


def solve_pump_for_period(
    period_mm: float,
    temperature_c: float = 25.0,
    pump_bracket_nm: tuple[float, float] = (530.0, 545.0),
) -> tuple[float, PhaseMatchPoint]:
    """Pump wavelength whose coexistence period equals the given target.

    The coexistence period grows monotonically with pump and diverges at the
    degeneracy cutoff, so the search bracket is capped there. Brent's method
    runs on the grating wavenumber 1/target - 1/period(pump), which falls
    smoothly to zero at the cutoff where the period itself has a pole, and
    each pump is solved once: the bracket check, Brent's end evaluations and
    the returned point reuse the solves already made. Returns
    (pump_nm, point) like solve_coexistence.
    """
    period_mm = _check_real("period_mm", period_mm, above=0.0)
    lo, hi = _bracket("pump_bracket_nm", pump_bracket_nm)
    cutoff = degeneracy_pump_nm(temperature_c, bracket_nm=(lo, max(hi, lo + 1.0) + 60.0))
    hi = min(hi, cutoff - 1e-6)
    if hi <= lo:
        raise SolverError(
            f"pump bracket [{lo}, {hi}] nm collapses below the degeneracy cutoff {cutoff:.3f} nm"
        )
    solved = {}

    def coexistence(pump):
        if pump not in solved:
            solved[pump] = solve_coexistence(pump, temperature_c)
        return solved[pump]

    def g(pump):
        return 1.0 / period_mm - 1.0 / coexistence(pump)[0]

    if np.sign(g(lo)) == np.sign(g(hi)):
        raise SolverError(
            f"target period {period_mm} mm not bracketed: period({lo:.3f} nm) = "
            f"{coexistence(lo)[0]:.4f} mm, period({hi:.3f} nm) = {coexistence(hi)[0]:.4f} mm"
        )
    pump = float(brentq(g, lo, hi, xtol=1e-9, maxiter=200))
    return pump, coexistence(pump)[1]


def degeneracy_pump_nm(
    temperature_c: float = 25.0,
    bracket_nm: tuple[float, float] = (500.0, 600.0),
) -> float:
    """Pump wavelength at which the order-0 pair collapses to degeneracy.

    Above this pump the nondegenerate root no longer exists. Found as the zero
    of delta_k evaluated at the degenerate point lambda_s -> 2 lambda_p.
    """
    nb = replace(NBPM_PROCESS, temperature_c=temperature_c)

    def g(pump):
        sig = 2.0 * pump * (1.0 - 1e-12)
        return delta_k(nb, pump, sig)

    lo, hi = _bracket("bracket_nm", bracket_nm)
    g_lo, g_hi = g(lo), g(hi)
    if np.sign(g_lo) == np.sign(g_hi):
        raise SolverError(
            f"no degeneracy cutoff in [{lo}, {hi}] nm: g({lo}) = {g_lo:.6g}, g({hi}) = {g_hi:.6g}"
        )
    return float(brentq(g, lo, hi, xtol=1e-10, maxiter=200))


def period_sweep(
    pump_nm_grid,
    temperature_c: float = 25.0,
) -> list[tuple[float, float, PhaseMatchPoint]]:
    """Coexistence period across a pump grid.

    Returns (pump_nm, period_mm, point) rows for pumps where the order-0 root
    exists; pumps beyond the degeneracy cutoff are skipped, and so is a pump
    whose first-order process needs no grating.
    """
    pumps = _check_array("pump_nm_grid", pump_nm_grid, above=0.0, ndim=1)
    signal, _, ok = _signal_roots(replace(NBPM_PROCESS, temperature_c=temperature_c), pumps, None)
    pumps, signal = pumps[ok], signal[ok]
    periods, residuals = _shared_period(temperature_c, pumps, signal)
    qp = replace(QPM_PROCESS, temperature_c=temperature_c)
    columns = (pumps.tolist(), signal.tolist(), periods.tolist(), residuals.tolist())
    return [
        (pump, period, _point(qp, pump, sig, res, period))
        for pump, sig, period, res in zip(*columns)
        if np.isfinite(period)
    ]
