"""Periodically inverted nonlinear structures: Fourier orders, duty cycle,
and fabrication-error statistics.

A two-level poling profile with period Lambda and duty cycle D (fraction of
the period with +chi) has Fourier coefficients

    c_0 = 2 D - 1,
    c_m = 2 D sinc(pi m D) exp(i pi m D),   m != 0,

with sinc(x) = sin(x)/x. The available conversion efficiency of the order-m
channel relative to an unpoled, perfectly phase-matched crystal is |c_m|^2.

A structure of N domains (N/2 periods, length L = N Lambda / 2) with domain
walls displaced by dz_j from their nominal positions z_j0 converts with
relative efficiency

    eta = (1/N^2) | sum_j exp(-i Phi_j) |^2,
    Phi_j = delta_k * dz_j + d(delta_k) * z_j0,

where delta_k is the mismatch the grating must compensate (m * 2 pi / Lambda
at the operating point) and d(delta_k) an optional detuning from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import SolverError, ValidationError
from .util import sinc, spawn_rng

__all__ = [
    "fourier_coefficient",
    "efficiency_ratio",
    "solve_balanced_duty_cycle",
    "efficiency_penalty",
    "ErrorModel",
    "PolingStructure",
    "nominal_boundaries_um",
    "realize_structure",
    "conversion_efficiency",
    "efficiency_samples",
    "monte_carlo_efficiency",
]

# Phasor-sum cells (samples x domains) evaluated per block in
# efficiency_samples: bounds its complex temporaries to about 1 MB whatever
# the sample count.
_BLOCK_CELLS = 1 << 16


def _check_duty(duty_cycle: float) -> float:
    d = float(duty_cycle)
    if not 0.0 < d < 1.0:
        raise ValidationError(f"duty cycle {d} outside (0, 1)")
    return d


def fourier_coefficient(duty_cycle: float, order: int) -> complex:
    """Complex Fourier coefficient c_m of the square poling profile."""
    d = _check_duty(duty_cycle)
    m = int(order)
    if m == 0:
        return complex(2.0 * d - 1.0)
    x = np.pi * m * d
    return complex(2.0 * d * float(sinc(x)) * np.exp(1j * x))


def efficiency_ratio(duty_cycle: float, order: int) -> float:
    """|c_m|^2: order-m conversion efficiency relative to ideal phase matching."""
    return float(abs(fourier_coefficient(duty_cycle, order)) ** 2)


def solve_balanced_duty_cycle(order: int = 1, scan_step: float = 1e-5) -> float:
    """Duty cycle in (0.5, 1) equalizing the order-0 and order-m efficiencies.

    Solves |c_0(D)| = |c_m(D)|. For m = 1 the root is unique (~0.7352). For
    even m no root exists: |c_m| <= (2/(pi m)) sin(pi m D)/... < |c_0| strictly
    on (0.5, 1) because sin(t) < t, so the solver raises with the scan
    diagnostics. For odd m >= 3 several roots can exist; the smallest is
    returned. The bracket is located by a dense scan (default step 1e-5) and
    refined with Brent's method.
    """
    m = int(order)
    if m < 1:
        raise ValidationError("order must be >= 1")

    def g(d):
        return np.abs(2.0 * d - 1.0) - np.abs(2.0 * d * sinc(np.pi * m * d))

    lo, hi = 0.5, 1.0
    grid = np.arange(lo + scan_step, hi, scan_step)
    vals = g(grid)
    sign_change = np.nonzero(np.diff(np.signbit(vals)))[0]
    # discard tangential touches where the function only grazes zero
    brackets = [
        (grid[i], grid[i + 1]) for i in sign_change if vals[i] != 0.0 or vals[i + 1] != 0.0
    ]
    if not brackets:
        raise SolverError(
            f"no balanced duty cycle exists in (0.5, 1) for order m={m}: "
            f"scan of |c_0|-|c_{m}| at step {scan_step:g} found no sign change "
            f"(min {vals.min():.3e}, max {vals.max():.3e})"
        )
    a, b = brackets[0]
    return float(brentq(g, a, b, xtol=1e-14, maxiter=200))


def efficiency_penalty(duty_cycle: float) -> float:
    """Efficiency cost 1/sin^2(pi D) of balancing at duty cycle D.

    Ratio of the ideal first-order efficiency ceiling to the balanced shared
    efficiency; equals 1/[pi D sinc(pi D)]^2.
    """
    d = _check_duty(duty_cycle)
    s = np.sin(np.pi * d)
    if s == 0.0:
        raise ValidationError("penalty diverges at integer duty cycle")
    return float(1.0 / s**2)


@dataclass(frozen=True)
class ErrorModel:
    """Gaussian domain-wall placement errors.

    Errors are zero-mean Gaussian with standard deviation sigma_z_um,
    truncated at +/- truncation_sigmas, then mean-subtracted per realization
    (a global crystal shift does not dephase anything). reorder selects what
    happens when a draw makes boundaries cross: "resample" redraws the whole
    realization (up to max_attempts), "allow" keeps the draw and evaluates the
    efficiency sum as written.
    """

    sigma_z_um: float = 0.0
    truncation_sigmas: float = 3.0
    reorder: str = "resample"
    max_attempts: int = 1000
    seed: int | None = None

    def __post_init__(self):
        if self.sigma_z_um < 0:
            raise ValidationError("sigma_z_um must be >= 0")
        if self.reorder not in ("resample", "allow"):
            raise ValidationError("reorder must be 'resample' or 'allow'")
        if self.truncation_sigmas <= 0:
            raise ValidationError("truncation_sigmas must be > 0")


@dataclass(frozen=True, eq=False)
class PolingStructure:
    """A realized N-domain structure (nominal geometry + boundary errors)."""

    period_mm: float
    duty_cycle: float
    num_domains: int
    boundary_nominal_um: np.ndarray
    boundary_error_um: np.ndarray

    @property
    def length_mm(self) -> float:
        return self.num_domains * self.period_mm / 2.0

    @property
    def boundary_um(self) -> np.ndarray:
        return self.boundary_nominal_um + self.boundary_error_um


def _check_geometry(period_mm: float, duty_cycle: float, num_domains: int):
    if period_mm <= 0:
        raise ValidationError("period_mm must be positive")
    _check_duty(duty_cycle)
    n = int(num_domains)
    if n < 2 or n % 2:
        raise ValidationError("num_domains must be a positive even integer")
    return float(period_mm), float(duty_cycle), n


def nominal_boundaries_um(period_mm: float, duty_cycle: float, num_domains: int) -> np.ndarray:
    """Nominal domain-wall positions, z_{2k-1} = (k-1+D) Lambda, z_{2k} = k Lambda."""
    period_mm, d, n = _check_geometry(period_mm, duty_cycle, num_domains)
    lam_um = period_mm * 1e3
    k = np.arange(1, n // 2 + 1)
    z = np.empty(n)
    z[0::2] = (k - 1 + d) * lam_um
    z[1::2] = k * lam_um
    return z


def _draw_errors(rng, shape, sigma, trunc):
    """Truncated (+/- trunc sigma), then per-row mean-subtracted Gaussians."""
    err = rng.normal(0.0, sigma, size=shape)
    if sigma > 0:
        bound = trunc * sigma
        bad = np.abs(err) > bound
        while np.any(bad):
            err[bad] = rng.normal(0.0, sigma, size=int(bad.sum()))
            bad = np.abs(err) > bound
    return err - err.mean(axis=-1, keepdims=True)


def _ordered(z_rows) -> np.ndarray:
    """Row mask: boundaries strictly increasing and past the crystal entrance."""
    rows = np.atleast_2d(z_rows)
    return (rows[:, 0] > 0.0) & np.all(np.diff(rows, axis=-1) > 0.0, axis=-1)


def realize_structure(
    period_mm: float,
    duty_cycle: float,
    num_domains: int,
    error_model: ErrorModel | None = None,
    rng: np.random.Generator | None = None,
) -> PolingStructure:
    """Draw one structure realization under the given error model."""
    period_mm, d, n = _check_geometry(period_mm, duty_cycle, num_domains)
    nominal = nominal_boundaries_um(period_mm, d, n)
    if error_model is None or error_model.sigma_z_um == 0.0:
        err = np.zeros(n)
    else:
        if rng is None:
            rng = spawn_rng(error_model.seed) if error_model.seed is not None else np.random.default_rng()
        em = error_model
        err = _draw_errors(rng, (n,), em.sigma_z_um, em.truncation_sigmas)
        if em.reorder == "resample":
            attempts = 1
            while not _ordered(nominal + err)[0]:
                if attempts >= em.max_attempts:
                    raise SolverError(
                        f"could not draw ordered boundaries after {em.max_attempts} attempts "
                        f"(sigma_z = {em.sigma_z_um} um vs shortest domain "
                        f"{min(d, 1 - d) * period_mm * 1e3:.3g} um); "
                        "use reorder='allow' to evaluate the efficiency sum regardless"
                    )
                err = _draw_errors(rng, (n,), em.sigma_z_um, em.truncation_sigmas)
                attempts += 1
    return PolingStructure(period_mm, d, n, nominal, err)


def conversion_efficiency(
    structure: PolingStructure,
    delta_k_rad_per_um: float,
    detuning_rad_per_um: float = 0.0,
) -> float:
    """Relative efficiency eta of the realized structure at the given mismatch."""
    phi = (
        delta_k_rad_per_um * structure.boundary_error_um
        + detuning_rad_per_um * structure.boundary_nominal_um
    )
    amp = np.exp(-1j * phi).sum() / structure.num_domains
    return float(np.abs(amp) ** 2)


def efficiency_samples(
    period_mm: float,
    duty_cycle: float,
    num_domains: int,
    sigma_z_um: float,
    samples: int,
    rng: np.random.Generator,
    qpm_order: int = 1,
    detuning_rad_per_um: float = 0.0,
    reorder: str = "resample",
    truncation_sigmas: float = 3.0,
    max_attempts: int = 1000,
) -> np.ndarray:
    """eta for `samples` independent error realizations at one sigma_z.

    The order-m operating mismatch is m * 2 pi / Lambda (zero for m = 0, whose
    efficiency is then error-independent and identically 1 at zero detuning).
    The phasor sums are evaluated in blocks of rows, so the complex
    temporaries stay bounded as samples x num_domains grows; each row's sum
    is the same as evaluating all rows at once.
    """
    period_mm, d, n = _check_geometry(period_mm, duty_cycle, num_domains)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if sigma_z_um < 0:
        raise ValidationError("sigma_z_um must be >= 0")
    if reorder not in ("resample", "allow"):
        raise ValidationError("reorder must be 'resample' or 'allow'")
    lam_um = period_mm * 1e3
    dk = qpm_order * 2.0 * np.pi / lam_um
    nominal = nominal_boundaries_um(period_mm, d, n)
    if sigma_z_um == 0.0:
        err = np.zeros((samples, n))
    else:
        err = _draw_errors(rng, (samples, n), sigma_z_um, truncation_sigmas)
        if reorder == "resample":
            bad = ~_ordered(nominal + err)
            attempts = 1
            while np.any(bad):
                if attempts >= max_attempts:
                    raise SolverError(
                        f"{int(bad.sum())} of {samples} realizations still unordered "
                        f"after {max_attempts} resampling rounds at sigma_z = {sigma_z_um} um; "
                        "use reorder='allow'"
                    )
                nbad = int(bad.sum())
                err[bad] = _draw_errors(rng, (nbad, n), sigma_z_um, truncation_sigmas)
                bad[bad] = ~_ordered(nominal + err[bad])
                attempts += 1
    detune = detuning_rad_per_um * nominal
    rows = max(1, _BLOCK_CELLS // n)
    eta = np.empty(samples)
    for i in range(0, samples, rows):
        phi = dk * err[i : i + rows] + detune
        eta[i : i + rows] = np.abs(np.exp(-1j * phi).mean(axis=-1)) ** 2
    return eta


def monte_carlo_efficiency(
    period_mm: float,
    duty_cycle: float,
    num_domains: int,
    sigma_z_grid_um,
    samples: int = 2000,
    seed: int = 0,
    qpm_order: int = 1,
    detuning_rad_per_um: float = 0.0,
    reorder: str = "resample",
    truncation_sigmas: float = 3.0,
    max_attempts: int = 1000,
) -> list[dict]:
    """Mean and spread of eta over fabrication-error realizations.

    Returns one row per sigma value: {"sigma_z_um", "mean_eta", "std_eta"}.
    Each grid position draws from its own derived random stream keyed by
    (seed, index), so a rerun with the same seed and grid reproduces every
    row exactly.
    """
    rows = []
    for idx, sigma in enumerate(np.asarray(sigma_z_grid_um, dtype=float)):
        eta = efficiency_samples(
            period_mm,
            duty_cycle,
            num_domains,
            float(sigma),
            samples,
            spawn_rng(seed, idx),
            qpm_order=qpm_order,
            detuning_rad_per_um=detuning_rad_per_um,
            reorder=reorder,
            truncation_sigmas=truncation_sigmas,
            max_attempts=max_attempts,
        )
        rows.append(
            {
                "sigma_z_um": float(sigma),
                "mean_eta": float(eta.mean()),
                "std_eta": float(eta.std(ddof=1) if samples > 1 else 0.0),
            }
        )
    return rows
