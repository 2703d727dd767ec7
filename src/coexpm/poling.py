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

import os
import queue
from concurrent.futures import ThreadPoolExecutor
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

# Cells (samples x domains) of the wall-error array processed per block by
# the Monte Carlo kernels. A phasor-sum block holds a float phase array and
# two complex arrays of this size, about 0.6 MB in all, and the truncation
# scan and the ordering check hold a few arrays of this size, whatever the
# sample count.
_BLOCK_CELLS = 1 << 14
# Step of the duty-cycle scan that brackets the balanced root.
_SCAN_STEP = 1e-5


def _check_sigma(sigma_z_um) -> float:
    s = float(sigma_z_um)
    if not (np.isfinite(s) and s >= 0.0):
        raise ValidationError(f"sigma_z_um must be finite and >= 0, got {s}")
    return s


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


def solve_balanced_duty_cycle(order: int = 1) -> float:
    """Duty cycle in (0.5, 1) equalizing the order-0 and order-m efficiencies.

    Solves |c_0(D)| = |c_m(D)|. For m = 1 the root is unique (~0.7352). For
    even m no root exists: |c_m| <= (2/(pi m)) sin(pi m D)/... < |c_0| strictly
    on (0.5, 1) because sin(t) < t, so the solver raises with the scan
    diagnostics. For odd m >= 3 several roots can exist; the smallest is
    returned. The bracket is located by a dense scan (step 1e-5) and
    refined with Brent's method.
    """
    m = int(order)
    if m < 1:
        raise ValidationError("order must be >= 1")

    def g(d):
        return np.abs(2.0 * d - 1.0) - np.abs(2.0 * d * sinc(np.pi * m * d))

    lo, hi = 0.5, 1.0
    grid = np.arange(lo + _SCAN_STEP, hi, _SCAN_STEP)
    vals = g(grid)
    sign_change = np.nonzero(np.diff(np.signbit(vals)))[0]
    # discard tangential touches where the function only grazes zero
    brackets = [
        (grid[i], grid[i + 1]) for i in sign_change if vals[i] != 0.0 or vals[i + 1] != 0.0
    ]
    if not brackets:
        raise SolverError(
            f"no balanced duty cycle exists in (0.5, 1) for order m={m}: "
            f"scan of |c_0|-|c_{m}| at step {_SCAN_STEP:g} found no sign change "
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
        _check_sigma(self.sigma_z_um)
        if self.reorder not in ("resample", "allow"):
            raise ValidationError("reorder must be 'resample' or 'allow'")
        if not self.truncation_sigmas > 0:
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


def _draw_errors(rng, err, runs, sigma, trunc):
    """Fill the row runs [a, b) of err, in order, with Gaussians truncated to
    +/- trunc sigma, then subtract each filled row's mean.

    The draws are those of rng.normal(0, sigma, (rows, N)) on the rows of the
    runs stacked into one array, followed by masked redraws of its
    out-of-bound cells: the same standard-normal stream is scaled, and the
    cells are redrawn by ascending index. No temporary as large as err is
    made.
    """
    n = err.shape[1]
    flat = err.reshape(-1)
    for a, b in runs:
        rng.standard_normal(out=err[a:b])
        err[a:b] *= sigma
    bound = trunc * sigma
    bad = np.concatenate(
        [
            np.flatnonzero(np.abs(flat[i : min(i + _BLOCK_CELLS, b * n)]) > bound) + i
            for a, b in runs
            for i in range(a * n, b * n, _BLOCK_CELLS)
        ]
    )
    while bad.size:
        flat[bad] = rng.normal(0.0, sigma, size=bad.size)
        bad = bad[np.abs(flat[bad]) > bound]
    for a, b in runs:
        err[a:b] -= err[a:b].mean(axis=-1, keepdims=True)


def _ordered(nominal, err) -> np.ndarray:
    """Row mask: walls nominal + err strictly increasing and past the crystal
    entrance, checked in row blocks."""
    rows = max(1, _BLOCK_CELLS // nominal.size)
    ok = np.empty(len(err), dtype=bool)
    for i in range(0, len(err), rows):
        z = nominal + err[i : i + rows]
        ok[i : i + rows] = (z[:, 0] > 0.0) & np.all(np.diff(z, axis=-1) > 0.0, axis=-1)
    return ok


def _row_runs(mask) -> list[tuple[int, int]]:
    """(start, stop) of each run of True in a boolean row mask."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return list(zip(edges[0::2], edges[1::2]))


def _sample_errors(rng, err, nominal, sigma, trunc, reorder, max_attempts):
    """Fill the (samples, N) array err with wall errors at sigma > 0; returns err.

    Under "resample" the rows whose walls cross are redrawn in place, all
    together, until every row is ordered or max_attempts rounds have been
    drawn.
    """
    _draw_errors(rng, err, [(0, len(err))], sigma, trunc)
    if reorder == "resample":
        bad = ~_ordered(nominal, err)
        attempts = 1
        while np.any(bad):
            if attempts >= max_attempts:
                shortest = min(nominal[0], nominal[1] - nominal[0])
                raise SolverError(
                    f"{int(bad.sum())} of {len(err)} realizations still unordered after "
                    f"{max_attempts} resampling rounds (sigma_z = {sigma} um vs shortest "
                    f"domain {shortest:.3g} um); use reorder='allow' to evaluate the "
                    "efficiency sum regardless"
                )
            runs = _row_runs(bad)
            _draw_errors(rng, err, runs, sigma, trunc)
            for a, b in runs:
                bad[a:b] = ~_ordered(nominal, err[a:b])
            attempts += 1
    return err


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
        err = _sample_errors(
            rng, np.empty((1, n)), nominal, em.sigma_z_um, em.truncation_sigmas, em.reorder, em.max_attempts
        )[0]
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


def _check_monte_carlo(
    period_mm, duty_cycle, num_domains, samples, qpm_order, detuning_rad_per_um, reorder, truncation_sigmas
):
    """Validated Monte Carlo inputs: (nominal walls, operating mismatch, detuning)."""
    period_mm, d, n = _check_geometry(period_mm, duty_cycle, num_domains)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if reorder not in ("resample", "allow"):
        raise ValidationError("reorder must be 'resample' or 'allow'")
    if not truncation_sigmas > 0:
        raise ValidationError("truncation_sigmas must be > 0")
    detuning = float(detuning_rad_per_um)
    if not np.isfinite(detuning):
        raise ValidationError(f"detuning_rad_per_um must be finite, got {detuning}")
    lam_um = period_mm * 1e3
    dk = qpm_order * 2.0 * np.pi / lam_um
    return nominal_boundaries_um(period_mm, d, n), dk, detuning


def _sigma_eta(sigma, rng, err, nominal, dk, detuning, reorder, trunc, max_attempts):
    """eta of len(err) realizations at one validated sigma; err is the
    (samples, N) array the wall errors are drawn into.

    Runs only private code and numpy, so it may run on a worker thread. The
    phasor sums are evaluated in row blocks; each row's sum is the same as
    evaluating all rows at once.
    """
    samples = len(err)
    if sigma == 0.0:
        if detuning == 0.0:
            return np.ones(samples)
        err.fill(0.0)
    else:
        _sample_errors(rng, err, nominal, sigma, trunc, reorder, max_attempts)
    detune = detuning * nominal
    rows = max(1, _BLOCK_CELLS // nominal.size)
    eta = np.empty(samples)
    for i in range(0, samples, rows):
        phi = dk * err[i : i + rows] + detune
        eta[i : i + rows] = np.abs(np.exp(-1j * phi).mean(axis=-1)) ** 2
    return eta


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _grid_workers(points: int) -> int:
    """Threads a grid of `points` sigma values runs on: the CPUs this process
    may use, at most one per point."""
    return max(1, min(_usable_cpus(), points))


def _eta_grid(
    period_mm,
    duty_cycle,
    num_domains,
    sigma_z_grid_um,
    samples,
    seed,
    qpm_order=1,
    detuning_rad_per_um=0.0,
    reorder="resample",
    truncation_sigmas=3.0,
    max_attempts=1000,
) -> list[np.ndarray]:
    """eta samples for each sigma of the grid, in grid order.

    Grid position idx draws from spawn_rng(seed, idx) whichever thread
    evaluates it, so the result does not depend on the number of workers.
    Inputs are validated, and the streams and error arrays created, on the
    calling thread. The sigma values then run on a pool of `workers` threads
    (numpy releases the GIL in its draws and array kernels).

    Each running task borrows one of the `workers` error arrays, which are
    allocated here in one block, so peak memory grows with the number of
    usable CPUs. With glibc, arrays that worker threads allocate themselves
    land in per-thread malloc arenas, where small allocations that outlive a
    task fragment the space a freed array leaves; over repeated calls peak
    RSS then grew in steps of one error array.
    """
    sigmas = [_check_sigma(s) for s in np.asarray(sigma_z_grid_um, dtype=float)]
    nominal, dk, detuning = _check_monte_carlo(
        period_mm, duty_cycle, num_domains, samples, qpm_order, detuning_rad_per_um, reorder, truncation_sigmas
    )
    rngs = [spawn_rng(seed, idx) for idx in range(len(sigmas))]
    workers = _grid_workers(len(sigmas))
    free = queue.SimpleQueue()
    for err in np.empty((workers, samples, nominal.size)):
        free.put(err)

    def run(sigma, rng):
        err = free.get()
        try:
            return _sigma_eta(sigma, rng, err, nominal, dk, detuning, reorder, truncation_sigmas, max_attempts)
        finally:
            free.put(err)

    # when a sigma raises, or the wait is interrupted, map's iterator cancels
    # the sigma values not yet started before the pool joins its threads
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, sigmas, rngs))


def _efficiency_rows(sigma_z_grid_um, etas) -> list[dict]:
    """monte_carlo_efficiency rows from the eta samples of each sigma."""
    return [
        {
            "sigma_z_um": float(sigma),
            "mean_eta": float(eta.mean()),
            "std_eta": float(eta.std(ddof=1) if eta.size > 1 else 0.0),
        }
        for sigma, eta in zip(np.asarray(sigma_z_grid_um, dtype=float), etas)
    ]


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
    temporaries stay bounded as samples x num_domains grows.
    """
    sigma = _check_sigma(sigma_z_um)
    nominal, dk, detuning = _check_monte_carlo(
        period_mm, duty_cycle, num_domains, samples, qpm_order, detuning_rad_per_um, reorder, truncation_sigmas
    )
    err = np.empty((samples, nominal.size))
    return _sigma_eta(sigma, rng, err, nominal, dk, detuning, reorder, truncation_sigmas, max_attempts)


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
    row exactly, whether the sigma values run in parallel or not.
    """
    etas = _eta_grid(
        period_mm,
        duty_cycle,
        num_domains,
        sigma_z_grid_um,
        samples,
        seed,
        qpm_order=qpm_order,
        detuning_rad_per_um=detuning_rad_per_um,
        reorder=reorder,
        truncation_sigmas=truncation_sigmas,
        max_attempts=max_attempts,
    )
    return _efficiency_rows(sigma_z_grid_um, etas)
