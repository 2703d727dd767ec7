"""Phase-matching spectra and the filtered joint spectral density.

For a monochromatic pump the unfiltered pair intensity lives on the
energy-conservation line lambda_i(mu) = (1/lambda_p - 1/mu)^(-1) with ridge
profile sinc^2(delta_k_eff L / 2), delta_k_eff including any grating order.
Detection filters smear that line: each axis is convolved with a unit-area
filter kernel, so the joint spectral density is the 1-D ridge integral

    J(l_s, l_i) = int I(mu) K_s(l_s - mu) K_i(l_i - lambda_i(mu)) dmu.

Gaussian kernels are truncated at +/-5 sigma (relative mass loss < 6e-7) so
the detected band has strictly bounded support while power conservation holds
to much better than 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError
from .phasematch import ProcessSpec, delta_k, idler_wavelength_nm
from .util import _check_array, _check_cells, _check_int, _check_real, fwhm_of_profile, sinc

__all__ = [
    "GAUSSIAN_TRUNCATION_SIGMAS",
    "SpectralGrid",
    "phase_matching_intensity",
    "filter_kernel",
    "joint_spectral_density",
    "marginal_spectrum",
    "peak_location",
    "marginal_fwhm_nm",
]

GAUSSIAN_TRUNCATION_SIGMAS = 5.0


def phase_matching_intensity(
    spec: ProcessSpec,
    pump_nm: float,
    signal_nm,
    length_mm: float,
    period_mm: float | None = None,
):
    """Ridge profile sinc^2(delta_k_eff L / 2) along the energy-conservation line."""
    pump_nm = _check_real("pump_nm", pump_nm, above=0.0)
    length_mm = _check_real("length_mm", length_mm, above=0.0)
    dk = delta_k(spec, pump_nm, signal_nm, period_mm=period_mm)
    arg = 0.5 * dk * length_mm * 1e3
    out = np.asarray(sinc(arg)) ** 2
    return float(out) if np.ndim(signal_nm) == 0 else out


def filter_kernel(offsets_nm, fwhm_nm: float, kind: str = "gaussian") -> np.ndarray:
    """Unit-area detection filter profile evaluated at the given offsets.

    "gaussian": truncated at +/-5 sigma. "box": top-hat of full width fwhm.
    """
    fwhm_nm = _check_real("fwhm_nm", fwhm_nm, above=0.0)
    x = _check_array("offsets_nm", offsets_nm)
    if kind == "gaussian":
        sig = fwhm_nm / np.sqrt(8.0 * np.log(2.0))
        out = np.exp(-0.5 * (x / sig) ** 2) / (sig * np.sqrt(2.0 * np.pi))
        return np.where(np.abs(x) > GAUSSIAN_TRUNCATION_SIGMAS * sig, 0.0, out)
    if kind == "box":
        return np.where(np.abs(x) <= fwhm_nm / 2.0, 1.0 / fwhm_nm, 0.0)
    raise ValidationError(f"unknown filter kernel {kind!r}; use 'gaussian' or 'box'")


def _half_support(fwhm_nm: float, kind: str) -> float:
    """Half width of filter_kernel's support, up to rounding."""
    if kind == "gaussian":
        return GAUSSIAN_TRUNCATION_SIGMAS * fwhm_nm / np.sqrt(8.0 * np.log(2.0))
    return fwhm_nm / 2.0


def _band_kernel(grid, centres, fwhm_nm: float, kind: str, weight=None) -> np.ndarray:
    """filter_kernel(grid[:, None] - centres[None, :], fwhm_nm, kind), with
    the formula evaluated only on each row's in-support columns; with a
    weight per centre, that kernel times weight[None, :], its in-support
    cells multiplied as they are evaluated.

    centres must be strictly monotonic, rising or falling, so the columns
    within the support of one grid point form one contiguous range, found by
    a binary search. Every other cell is an exact zero, and every evaluated
    cell gets the same bits as the dense evaluation. With a weight that is
    finite and not negative, the result is the dense product bit for bit:
    there, too, every out-of-support cell is +0.0.
    """
    rising = centres[-1] >= centres[0]
    ordered = centres if rising else centres[::-1]
    h = _half_support(fwhm_nm, kind)
    # The search window exceeds the support by far more than any rounding of
    # the offsets or of h, so it holds every column the kernel keeps.
    reach = h + 1e-9 * (np.abs(grid) + h)
    lo = np.searchsorted(ordered, grid - reach, "left")
    hi = np.searchsorted(ordered, grid + reach, "right")
    counts = hi - lo
    rows = np.repeat(np.arange(grid.size), counts)
    cols = lo[rows] + np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    if not rising:
        cols = centres.size - 1 - cols
    out = np.zeros((grid.size, centres.size))
    cells = filter_kernel(grid[rows] - centres[cols], fwhm_nm, kind)
    out[rows, cols] = cells if weight is None else cells * weight[cols]
    return out


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Sampled joint spectral density on a rectangular wavelength grid."""

    signal_nm: np.ndarray
    idler_nm: np.ndarray
    values: np.ndarray  # shape (len(signal_nm), len(idler_nm))

    def __post_init__(self):
        if self.values.shape != (self.signal_nm.size, self.idler_nm.size):
            raise ValidationError("values shape does not match the axis grids")
        if np.any(self.values < 0):
            raise ValidationError("spectral density must be nonnegative")


def _uniform_step(g, name) -> float:
    if g.size < 2:
        raise ValidationError(f"{name} grid needs at least 2 points")
    steps = np.diff(g)
    if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValidationError(f"{name} grid must be strictly increasing and uniform")
    return float(steps[0])


def joint_spectral_density(
    spec: ProcessSpec,
    pump_nm: float,
    signal_grid_nm,
    idler_grid_nm,
    length_mm: float,
    filter_fwhm_nm: float = 0.0,
    period_mm: float | None = None,
    kernel: str = "gaussian",
    ridge_oversample: int = 8,
    normalize: bool = True,
) -> SpectralGrid:
    """Joint spectral density of the filtered pair on the supplied grids.

    filter_fwhm_nm = 0 places the unconvolved ridge onto the nearest grid
    cells (a delta ridge). Otherwise both axes are convolved with the chosen
    unit-area kernel via the ridge integral; ridge_oversample sets the
    integration substep relative to the finer of grid step and kernel width.
    With normalize=True the result is scaled to unit peak.
    """
    pump_nm = _check_real("pump_nm", pump_nm, above=0.0)
    filter_fwhm_nm = _check_real("filter_fwhm_nm", filter_fwhm_nm, 0.0)
    sgrid = _check_array("signal_grid_nm", signal_grid_nm, above=0.0, ndim=1)
    igrid = _check_array("idler_grid_nm", idler_grid_nm, above=0.0, ndim=1)
    ds = _uniform_step(sgrid, "signal")
    di = _uniform_step(igrid, "idler")
    _check_int("ridge_oversample", ridge_oversample, 1)
    if np.any(sgrid <= pump_nm):
        raise ValidationError("signal grid must lie above the pump wavelength")
    _check_cells("the signal x idler grid", sgrid.size * igrid.size)

    if filter_fwhm_nm == 0.0:
        values = np.zeros((sgrid.size, igrid.size))
        ridge_i = idler_wavelength_nm(pump_nm, sgrid)
        inten = phase_matching_intensity(spec, pump_nm, sgrid, length_mm, period_mm=period_mm)
        for row, (lam_i, v) in enumerate(zip(ridge_i, inten)):
            col = int(np.argmin(np.abs(igrid - lam_i)))
            if abs(igrid[col] - lam_i) <= di:
                values[row, col] = v
    else:
        # The idler-filter acceptance maps back to the ridge parameter with
        # slope |d lambda_i / d mu| = (lambda_i / mu)^2.
        with np.errstate(over="ignore"):  # a slope past the float range gives an inf cell count, rejected below
            slope = (igrid[-1] / sgrid[0]) ** 2
        pad = _half_support(filter_fwhm_nm, kernel) * (1.0 + max(slope, 1.0 / slope))
        step = min(ds, di, filter_fwhm_nm) / ridge_oversample
        lo, hi = sgrid[0] - pad, sgrid[-1] + pad + step
        # each filter kernel is a dense (grid points, ridge samples) array
        _check_cells("the ridge integral's filter kernel", max(sgrid.size, igrid.size) * ((hi - lo) / step))
        mu = np.arange(lo, hi, step)
        mu = mu[mu > pump_nm * (1.0 + 1e-9)]
        inten = phase_matching_intensity(spec, pump_nm, mu, length_mm, period_mm=period_mm)
        ridge_i = idler_wavelength_nm(pump_nm, mu)
        w = np.full(mu.size, step)
        w[0] = w[-1] = step / 2.0
        # mu rises and ridge_i falls: each kernel row is one band of columns
        ker_s = _band_kernel(sgrid, mu, filter_fwhm_nm, kernel, weight=inten * w)
        ker_i = _band_kernel(igrid, ridge_i, filter_fwhm_nm, kernel)
        values = ker_s @ ker_i.T

    if normalize:
        peak = values.max()
        if peak > 0:
            values = values / peak
    return SpectralGrid(sgrid, igrid, values)


def marginal_spectrum(grid: SpectralGrid, axis: str = "signal") -> tuple[np.ndarray, np.ndarray]:
    """Single-arm spectrum: the density summed over the other axis (unit peak)."""
    if axis == "signal":
        lam = grid.signal_nm
        profile = grid.values.sum(axis=1)
    elif axis == "idler":
        lam = grid.idler_nm
        profile = grid.values.sum(axis=0)
    else:
        raise ValidationError("axis must be 'signal' or 'idler'")
    peak = profile.max()
    return lam, profile / peak if peak > 0 else profile


def peak_location(grid: SpectralGrid) -> tuple[float, float]:
    """(signal_nm, idler_nm) of the grid cell with maximum density."""
    r, c = np.unravel_index(int(np.argmax(grid.values)), grid.values.shape)
    return float(grid.signal_nm[r]), float(grid.idler_nm[c])


def marginal_fwhm_nm(grid: SpectralGrid, axis: str = "signal") -> float:
    """FWHM of a marginal spectrum (linear interpolation of crossings).

    Raises FitError when the marginal is zero on the whole grid (the grid
    misses the ridge) or does not fall to half maximum on both sides.
    """
    lam, profile = marginal_spectrum(grid, axis)
    if not profile.max() > 0:
        raise FitError(f"the {axis} marginal is zero on the whole grid")
    try:
        return fwhm_of_profile(lam, profile)
    except ValueError as exc:
        raise FitError(f"the {axis} marginal has no FWHM on this grid: {exc}") from None
