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

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import SolverError, ValidationError
from .util import _check_cells, sinc, spawn_rng

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

# Cells (rows x domains) of one row block of the wall-error Monte Carlo, the
# unit of work of the sigma grid. A block holds six float arrays of this size
# (z, its sigma-scaled phases and the phasor kernel's four work arrays), and
# the truncation scan and the ordering check a few more, whatever the sample
# count.
_BLOCK_CELLS = 1 << 16
# Phasor table of the wall-error kernel: cos and sin at the 4096 nodes
# 2 pi k / 4096 (64 KiB), built once at import by _phasor_table.
_TABLE_SIZE = 1 << 12
_TABLE_STEP = 2.0 * np.pi / _TABLE_SIZE
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
        if not 0.0 < self.truncation_sigmas < math.inf:
            raise ValidationError("truncation_sigmas must be finite and > 0")


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
    _check_cells("num_domains", n)
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


def _draw_z(rng, rows, n, trunc) -> np.ndarray:
    """(rows, n) standard normals truncated to +/- trunc, with each row's mean
    subtracted.

    The draws are those of rng.standard_normal((rows, n)) followed by masked
    redraws of its out-of-bound cells, by ascending index.
    """
    z = rng.standard_normal((rows, n))
    flat = z.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > trunc)
    while bad.size:
        flat[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(flat[bad]) > trunc]
    z -= z.mean(axis=-1, keepdims=True)
    return z


def _ordered(nominal, err) -> np.ndarray:
    """Row mask: walls nominal + err strictly increasing and past the entrance."""
    z = nominal + err
    return (z[:, 0] > 0.0) & np.all(np.diff(z, axis=-1) > 0.0, axis=-1)


def _scaled_errors(z, sigma, out, nominal, trunc, reorder, max_attempts, redraw_rng):
    """Wall errors sigma * z, written into out; returns out and leaves z as it was.

    Under "resample" the rows whose walls cross are redrawn together, as
    sigma * _draw_z rows from the generator redraw_rng() returns (asked for
    at the first redraw), until every row is ordered or max_attempts rounds
    have been drawn.
    """
    np.multiply(z, sigma, out=out)
    if reorder == "allow":
        return out
    bad = np.flatnonzero(~_ordered(nominal, out))
    rng = None
    attempts = 1
    while bad.size:
        if attempts >= max_attempts:
            shortest = min(nominal[0], nominal[1] - nominal[0])
            raise SolverError(
                f"{bad.size} of {len(out)} realizations still unordered after "
                f"{max_attempts} resampling rounds (sigma_z = {sigma} um vs shortest "
                f"domain {shortest:.3g} um); use reorder='allow' to evaluate the "
                "efficiency sum regardless"
            )
        if rng is None:
            rng = redraw_rng()
        out[bad] = sigma * _draw_z(rng, bad.size, nominal.size, trunc)
        bad = bad[~_ordered(nominal, out[bad])]
        attempts += 1
    return out


def realize_structure(
    period_mm: float,
    duty_cycle: float,
    num_domains: int,
    error_model: ErrorModel | None = None,
    rng: np.random.Generator | None = None,
) -> PolingStructure:
    """Draw one structure realization under the given error model, with the
    Monte Carlo's sampler (one row of z, redraws from the same generator)."""
    period_mm, d, n = _check_geometry(period_mm, duty_cycle, num_domains)
    nominal = nominal_boundaries_um(period_mm, d, n)
    if error_model is None or error_model.sigma_z_um == 0.0:
        err = np.zeros(n)
    else:
        em = error_model
        # the Monte Carlo's bounds, on the first-order phases of one sample
        _check_monte_carlo(period_mm, d, n, [em.sigma_z_um], 1, 1, 0.0, em.reorder, em.truncation_sigmas)
        if rng is None:
            rng = spawn_rng(em.seed) if em.seed is not None else np.random.default_rng()
        z = _draw_z(rng, 1, n, em.truncation_sigmas)
        err = _scaled_errors(
            z, em.sigma_z_um, z.copy(), nominal, em.truncation_sigmas, em.reorder, em.max_attempts, lambda: rng
        )[0]
    return PolingStructure(period_mm, d, n, nominal, err)


def conversion_efficiency(
    structure: PolingStructure,
    delta_k_rad_per_um: float,
    detuning_rad_per_um: float = 0.0,
) -> float:
    """Relative efficiency eta of the realized structure at the given mismatch,
    summed by the Monte Carlo's phasor kernel (_phasor_power)."""
    dk, detuning = float(delta_k_rad_per_um), float(detuning_rad_per_um)
    err, nominal = structure.boundary_error_um, structure.boundary_nominal_um
    _check_phase(
        abs(dk) * float(np.max(np.abs(err))) + abs(detuning) * float(np.max(np.abs(nominal))),
        f"delta_k_rad_per_um {dk:g} and detuning_rad_per_um {detuning:g}",
    )
    phi = (dk * err + detuning * nominal).reshape(1, -1)
    return float(_phasor_power(phi, np.empty((4,) + phi.shape))[0])


def _check_phase(largest_rad: float, inputs: str) -> None:
    """Reject inputs whose largest phase is not finite in radians or in table
    steps. largest_rad is computed on Python floats, so an overflow gives inf
    or nan here, not a numpy warning."""
    if not math.isfinite(largest_rad / _TABLE_STEP):
        raise ValidationError(
            f"{inputs} put the largest phase ({largest_rad:g} rad) beyond the float range of the phasor kernel"
        )


def _check_monte_carlo(
    period_mm, duty_cycle, num_domains, sigma_z_grid_um, samples, qpm_order, detuning_rad_per_um, reorder,
    truncation_sigmas,
):
    """Validated Monte Carlo inputs: (sigma values, nominal walls, operating
    mismatch, detuning)."""
    period_mm, d, n = _check_geometry(period_mm, duty_cycle, num_domains)
    sigmas = [_check_sigma(s) for s in np.asarray(sigma_z_grid_um, dtype=float)]
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    _check_cells("samples x sigma values", samples * len(sigmas))
    if reorder not in ("resample", "allow"):
        raise ValidationError("reorder must be 'resample' or 'allow'")
    if not 0.0 < truncation_sigmas < math.inf:
        raise ValidationError("truncation_sigmas must be finite and > 0")
    detuning = float(detuning_rad_per_um)
    nominal = nominal_boundaries_um(period_mm, d, n)
    lam_um = period_mm * 1e3
    dk = qpm_order * 2.0 * np.pi / lam_um
    # walls err by at most 2 trunc sigma: the truncation, then the row mean
    sigma = max(sigmas, default=0.0)
    _check_phase(
        abs(dk) * (2.0 * truncation_sigmas * sigma) + abs(detuning) * float(nominal[-1]),
        f"sigma_z_um {sigma:g} and detuning_rad_per_um {detuning:g}",
    )
    return sigmas, nominal, dk, detuning


def _phasor_table() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin at the table nodes. Node k >= 2048 is evaluated at the
    angle (k - 4096) * step, so the nodes next to zero phase carry no
    rounding of 2 pi."""
    half = _TABLE_SIZE // 2
    angles = ((np.arange(_TABLE_SIZE) + half) % _TABLE_SIZE - half) * _TABLE_STEP
    return np.cos(angles), np.sin(angles)


_COS_TABLE, _SIN_TABLE = _phasor_table()


def _phasor_power(phi, work) -> np.ndarray:
    """|mean_j exp(-i phi[r, j])|^2 for each row r of the (rows, N) phases phi.

    Each phase is split as phi = (j + f) * 2 pi / 4096 with j = rint(phi *
    4096 / 2 pi). The phasor at node j comes from the table and is rotated by
    the remainder b = f * 2 pi / 4096, |b| <= pi / 4096, whose cos and sin are
    Taylor series through b^4 and b^5 (truncation below 3e-22). The result
    carries an error of a few eps * max(1, |phi|), the order of the rounding
    already in phi. phi and work (four contiguous float64 arrays of phi's
    shape) are overwritten; all temporaries live in them.
    """
    j, w, c, s = work
    phi *= 1.0 / _TABLE_STEP
    np.rint(phi, out=j)
    phi -= j
    phi *= _TABLE_STEP
    # j mod 4096, exactly: every finite j reduces into [-2048, 2048] before
    # the integer cast, and the mask maps it to its node
    np.multiply(j, 1.0 / _TABLE_SIZE, out=w)
    np.rint(w, out=w)
    w *= _TABLE_SIZE
    j -= w
    node = w.view(np.int64)
    np.copyto(node, j, casting="unsafe")
    node &= _TABLE_SIZE - 1
    # every node is in range, so "clip" never moves one; it skips the
    # negative-index handling of the default mode
    np.take(_COS_TABLE, node, out=c, mode="clip")
    np.take(_SIN_TABLE, node, out=s, mode="clip")
    b2 = np.multiply(phi, phi, out=j)
    sin_b = w  # b (1 - b^2/6 + b^4/120)
    np.multiply(b2, 1.0 / 120.0, out=sin_b)
    sin_b -= 1.0 / 6.0
    sin_b *= b2
    sin_b += 1.0
    sin_b *= phi
    cos_b = phi  # 1 - b^2/2 + b^4/24
    np.multiply(b2, 1.0 / 24.0, out=cos_b)
    cos_b -= 0.5
    cos_b *= b2
    cos_b += 1.0
    # real part c cos_b - s sin_b into j, imaginary part s cos_b + c sin_b into s
    real = np.multiply(c, cos_b, out=j)
    c *= sin_b
    sin_b *= s
    real -= sin_b
    s *= cos_b
    s += c
    re = real.mean(axis=-1)
    im = s.mean(axis=-1)
    return re * re + im * im


def _block_eta(z_rng, redraw_rng, rows, sigmas, nominal, dk, detuning, trunc, reorder, max_attempts):
    """eta of one block of `rows` realizations at every sigma of the grid, as
    a (len(sigmas), rows) array.

    z is drawn once from z_rng and each sigma evaluates sigma * z while z is
    still in cache, so the rows of different sigma share their draws (common
    random numbers); rows that cross at grid index i are redrawn from
    redraw_rng(i) into the sigma-scaled copy. The phasor sums take no complex
    exponential (_phasor_power). Runs only private code and numpy, so it may
    run on a worker thread.
    """
    z = _draw_z(z_rng, rows, nominal.size, trunc)
    detune = detuning * nominal
    phi = np.empty_like(z)
    work = np.empty((4,) + z.shape)
    eta = np.empty((len(sigmas), rows))
    for i, sigma in enumerate(sigmas):
        if sigma == 0.0 and detuning == 0.0:
            eta[i] = 1.0
            continue
        _scaled_errors(z, sigma, phi, nominal, trunc, reorder, max_attempts, lambda: redraw_rng(i))
        phi *= dk  # the phases replace the errors in place
        phi += detune
        eta[i] = _phasor_power(phi, work)
    return eta


def _blocks(samples, num_domains) -> list[tuple[int, int]]:
    """(start, stop) rows of each block; they depend only on the sizes."""
    rows = max(1, _BLOCK_CELLS // num_domains)
    return [(a, min(a + rows, samples)) for a in range(0, samples, rows)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


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

    Inputs are validated on the calling thread. The row blocks then run on a
    pool of threads (numpy releases the GIL in its draws and array kernels).
    Block b draws z from spawn_rng(seed, b) and its redraws at grid index i
    from spawn_rng(seed, b, i), whichever thread evaluates it, so the result
    does not depend on the number of workers.
    """
    sigmas, nominal, dk, detuning = _check_monte_carlo(
        period_mm, duty_cycle, num_domains, sigma_z_grid_um, samples, qpm_order, detuning_rad_per_um, reorder,
        truncation_sigmas,
    )
    eta = np.empty((len(sigmas), samples))
    blocks = _blocks(samples, nominal.size)

    def run(b):
        a, stop = blocks[b]
        eta[:, a:stop] = _block_eta(
            spawn_rng(seed, b), lambda i: spawn_rng(seed, b, i), stop - a, sigmas, nominal, dk, detuning,
            truncation_sigmas, reorder, max_attempts,
        )

    # one thread per CPU this process may use, at most one per block. When a
    # block raises, or the wait is interrupted, map's iterator cancels the
    # blocks not yet started before the pool joins its threads
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(blocks))) as pool:
        list(pool.map(run, range(len(blocks))))
    return list(eta)


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
    The realizations are drawn in the row blocks of the sigma grid's sampler,
    serially, on the caller's generator: each block's z, then its redraws.
    """
    sigmas, nominal, dk, detuning = _check_monte_carlo(
        period_mm, duty_cycle, num_domains, [sigma_z_um], samples, qpm_order, detuning_rad_per_um, reorder,
        truncation_sigmas,
    )
    return np.concatenate([
        _block_eta(
            rng, lambda i: rng, stop - a, sigmas, nominal, dk, detuning, truncation_sigmas, reorder, max_attempts
        )[0]
        for a, stop in _blocks(samples, nominal.size)
    ])


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
    The errors at each sigma are sigma * z for one truncated, row-centred
    standard-normal draw z shared by the whole grid (common random numbers),
    so the rows of different sigma are correlated and the eta(sigma) curve is
    smoother than independent draws would give; each sigma keeps its own
    distribution. Row block b draws from streams keyed by (seed, b), so a
    rerun with the same seed and grid reproduces every row exactly, whether
    the blocks run in parallel or not.
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
