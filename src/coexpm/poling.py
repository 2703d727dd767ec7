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
at the operating point) and d(delta_k) a detuning from it, which
conversion_efficiency takes for a given structure.

The Monte Carlo (efficiency_samples) has one model, that of Fejer et al.,
IEEE JQE 28, 2631 (1992): the operating point (no detuning), and wall errors
sigma * z with z a unit Gaussian truncated to +/- 3 and centred per
realization. It draws the errors at each sigma of a grid from one draw z
(common random numbers). The phasors of a realization at sigma_i are then
those at sigma_(i-1) times exp(-i delta_k (sigma_i - sigma_(i-1)) z), so
along a grid with a repeated step one table pass per step and one complex
multiply per sigma replace a table pass per sigma. The phases are evaluated
directly at every 16th sigma (the anchors), where a step does not repeat,
and at every sigma of a grating of fewer than 8 domains. A row block that
redraws a realization at a sigma ("resample") evaluates all its rows
directly at that sigma and the next. The stepped eta stays within 16 eps *
max(1, |Phi|) of the complex-exponential sum on the grids tested.

_wall_error_moments gives the exact mean and spread of eta for independent
walls (reorder "allow") from the truncated-Gaussian characteristic function,
with no draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .util import _brentq, _check_array, _check_cells, _check_int, _check_real, sinc, spawn_rng

__all__ = [
    "fourier_coefficient",
    "efficiency_ratio",
    "solve_balanced_duty_cycle",
    "efficiency_penalty",
    "PolingStructure",
    "nominal_boundaries_um",
    "realize_structure",
    "conversion_efficiency",
    "efficiency_samples",
    "monte_carlo_efficiency",
]

# Cells (rows x domains) of one row block of the wall-error Monte Carlo, the
# unit of work of the sigma grid. A block holds up to six float arrays of
# this size (z, its sigma-scaled errors, and either the kernel's four work
# arrays or the complex phasors of the current sigma and of the held step),
# and the truncation scan and the ordering check a few more, whatever the
# sample count.
_BLOCK_CELLS = 1 << 16
# Cells that the table kernel evaluates at a time; its four work arrays stay
# this size whatever the row length.
_CHUNK_CELLS = 1 << 14
# A block evaluates the phases directly at every _ANCHOR_EVERY-th sigma of
# the grid and steps the phasors in between; the anchors bound the rounding
# that the steps accumulate.
_ANCHOR_EVERY = 16
# Gratings of fewer domains evaluate every sigma directly (_step_plan).
_STEP_MIN_DOMAINS = 8
# Phasor table of the wall-error kernel: cos and sin at the 4096 nodes
# 2 pi k / 4096 (64 KiB), built once at import by _phasor_table.
_TABLE_SIZE = 1 << 12
_TABLE_STEP = 2.0 * np.pi / _TABLE_SIZE
# Wall errors are a unit Gaussian truncated to +/- this many sigma, times
# sigma, in the sampler and in _wall_error_moments.
_TRUNCATION_SIGMAS = 3.0
# Rounds of redraws after which "resample" gives up on a row block.
_MAX_ATTEMPTS = 1000


def fourier_coefficient(duty_cycle: float, order: int) -> complex:
    """Complex Fourier coefficient c_m of the square poling profile."""
    d = _check_real("duty_cycle", duty_cycle, above=0.0, below=1.0)
    m = _check_int("order", order)
    if m == 0:
        return complex(2.0 * d - 1.0)
    x = np.pi * m * d
    return complex(2.0 * d * float(sinc(x)) * np.exp(1j * x))


def efficiency_ratio(duty_cycle: float, order: int) -> float:
    """|c_m|^2: order-m conversion efficiency relative to ideal phase matching."""
    return float(abs(fourier_coefficient(duty_cycle, order)) ** 2)


def solve_balanced_duty_cycle(order: int = 1) -> float:
    """Smallest duty cycle in (0.5, 1) equalizing the order-0 and order-m efficiencies.

    Solves g(D) = |c_0(D)| - |c_m(D)| = 0, where |c_0| = 2D - 1 and
    |c_m| = (2/(pi m)) |sin(pi m D)|. With x = D - 1/2:

    * even m: |sin(pi m D)| = |sin(pi m x)| < pi m x, so g > 0 on (0.5, 1)
      and no root exists; the solver raises at once.
    * odd m: |sin(pi m D)| = cos(pi m x) on [0, 1/(2m)], where g rises
      strictly from -2/(pi m) to 1/m. The smallest root is therefore the
      only one in (0.5, 0.5 + 1/(2m)), which is (0.5, 1) for m = 1 (~0.7353),
      and Brent's method refines it from that bracket. An order whose bracket
      does not resolve in double precision raises.
    """
    m = _check_int("order", order, 1)
    if m % 2 == 0:
        raise SolverError(f"no balanced duty cycle exists in (0.5, 1) for even order m={m}: |c_0| > |c_{m}| there")

    def g(d):
        return np.abs(2.0 * d - 1.0) - np.abs(2.0 * d * sinc(np.pi * m * d))

    lo, hi = 0.5, 0.5 + 0.5 / m
    if hi == lo or not g(lo) < 0.0 < g(hi):
        raise SolverError(
            f"the balanced duty cycle of order m={m} lies in (0.5, 0.5 + 1/(2m)), "
            "which double precision does not resolve"
        )
    return _brentq(g, lo, hi, 1e-14, 200)


def efficiency_penalty(duty_cycle: float) -> float:
    """Efficiency cost 1/sin^2(pi D) of balancing at duty cycle D.

    Ratio of the ideal first-order efficiency ceiling to the balanced shared
    efficiency; equals 1/[pi D sinc(pi D)]^2.
    """
    d = _check_real("duty_cycle", duty_cycle, above=0.0, below=1.0)
    s2 = np.sin(np.pi * d) ** 2
    if s2 < 1.0 / np.finfo(float).max:  # sin(pi D) > 0 on (0, 1), but 1/sin^2 overflows for D below ~2.4e-155
        raise ValidationError(f"efficiency penalty overflows at duty_cycle {d}")
    return float(1.0 / s2)


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
    n = _check_int("num_domains", num_domains, 2)
    if n % 2:
        raise ValidationError(f"num_domains must be even, got {n}")
    _check_cells("num_domains", n)
    # the last wall, n/2 periods in, stays a finite number of um, with a factor 2 to spare
    period = _check_real("period_mm", period_mm, hi=np.finfo(float).max / (n * 1e3), above=0.0)
    return period, _check_real("duty_cycle", duty_cycle, above=0.0, below=1.0), n


def nominal_boundaries_um(period_mm: float, duty_cycle: float, num_domains: int) -> np.ndarray:
    """Nominal domain-wall positions, z_{2k-1} = (k-1+D) Lambda, z_{2k} = k Lambda."""
    period_mm, d, n = _check_geometry(period_mm, duty_cycle, num_domains)
    lam_um = period_mm * 1e3
    k = np.arange(1, n // 2 + 1)
    z = np.empty(n)
    z[0::2] = (k - 1 + d) * lam_um
    z[1::2] = k * lam_um
    return z


def _draw_z(rng, rows, n) -> np.ndarray:
    """(rows, n) standard normals truncated to +/- _TRUNCATION_SIGMAS, with
    each row's mean subtracted.

    The draws are those of rng.standard_normal((rows, n)) followed by masked
    redraws of its out-of-bound cells, by ascending index.
    """
    z = rng.standard_normal((rows, n))
    flat = z.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > _TRUNCATION_SIGMAS)
    while bad.size:
        flat[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(flat[bad]) > _TRUNCATION_SIGMAS]
    z -= z.mean(axis=-1, keepdims=True)
    return z


def _ordered(nominal, err) -> np.ndarray:
    """Row mask: walls nominal + err strictly increasing and past the entrance."""
    z = nominal + err
    return (z[:, 0] > 0.0) & np.all(np.diff(z, axis=-1) > 0.0, axis=-1)


def _scaled_errors(z, sigma, out, nominal, reorder, redraw_rng):
    """Wall errors sigma * z, written into out, and the rows redrawn; leaves z
    as it was.

    Under "resample" the rows whose walls cross are redrawn together, as
    sigma * _draw_z rows from the generator redraw_rng() returns (asked for
    at the first redraw), until every row is ordered or _MAX_ATTEMPTS rounds
    have been drawn. Returns out and the ascending indices of the rows that
    were redrawn (none under "allow").
    """
    np.multiply(z, sigma, out=out)
    if reorder == "allow":
        return out, np.empty(0, dtype=np.intp)
    bad = redrawn = np.flatnonzero(~_ordered(nominal, out))
    rng = None
    attempts = 1
    while bad.size:
        if attempts >= _MAX_ATTEMPTS:
            shortest = min(nominal[0], nominal[1] - nominal[0])
            raise SolverError(
                f"{bad.size} of the {len(out)} realizations of a row block still unordered after "
                f"{_MAX_ATTEMPTS} resampling rounds (sigma_z = {sigma} um vs shortest "
                f"domain {shortest:.3g} um); use reorder='allow' to evaluate the "
                "efficiency sum regardless"
            )
        if rng is None:
            rng = redraw_rng()
        out[bad] = sigma * _draw_z(rng, bad.size, nominal.size)
        bad = bad[~_ordered(nominal, out[bad])]
        attempts += 1
    return out, redrawn


def realize_structure(
    period_mm: float,
    duty_cycle: float,
    num_domains: int,
    sigma_z_um: float = 0.0,
    seed: int = 0,
    reorder: str = "resample",
) -> PolingStructure:
    """One structure realization: row 0 of block 0 of efficiency_samples,
    drawn as the sampler draws it under the same reorder (wall errors
    sigma_z_um * z, z a row-centred unit Gaussian truncated at +/- 3, from
    spawn_rng(seed, 0), its redraws from spawn_rng(seed, 0, 0)), so
    conversion_efficiency of it at the first-order mismatch 2 pi / Lambda
    equals the one-sample efficiency_samples bit for bit. The Monte Carlo's
    bounds apply, on the first-order phases."""
    [sigma], nominal, _ = _check_monte_carlo(
        period_mm, duty_cycle, num_domains, [_check_real("sigma_z_um", sigma_z_um, 0.0)], reorder=reorder
    )
    z = _draw_z(spawn_rng(seed, 0), 1, nominal.size)
    [err], _ = _scaled_errors(z, sigma, np.empty_like(z), nominal, reorder, lambda: spawn_rng(seed, 0, 0))
    return PolingStructure(float(period_mm), float(duty_cycle), nominal.size, nominal, err)


def conversion_efficiency(
    structure: PolingStructure,
    delta_k_rad_per_um: float,
    detuning_rad_per_um: float = 0.0,
) -> float:
    """Relative efficiency eta of the realized structure at the given mismatch,
    summed by the Monte Carlo's phasor kernel (_phasor_power)."""
    dk = _check_real("delta_k_rad_per_um", delta_k_rad_per_um)
    detuning = _check_real("detuning_rad_per_um", detuning_rad_per_um)
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
    period_mm, duty_cycle, num_domains, sigma_z_grid_um, qpm_order=1, samples=1, reorder="allow"
):
    """Validated Monte Carlo inputs: (sigma values, nominal walls, operating
    mismatch). The defaults, one sample under "allow", are the closed form's
    (_wall_error_moments)."""
    nominal = nominal_boundaries_um(period_mm, duty_cycle, num_domains)
    sigmas = _check_array("sigma_z_grid_um", sigma_z_grid_um, lo=0.0, ndim=1).tolist()
    samples = _check_int("samples", samples, 1)
    _check_cells("samples x sigma values", samples * len(sigmas))
    if reorder not in ("resample", "allow"):
        raise ValidationError("reorder must be 'resample' or 'allow'")
    dk = _check_int("qpm_order", qpm_order, 0) * 2.0 * np.pi / (float(period_mm) * 1e3)
    # walls err by at most 2 * 3 sigma: the truncation, then the row mean
    sigma = max(sigmas, default=0.0)
    _check_phase(abs(dk) * (2.0 * _TRUNCATION_SIGMAS * sigma), f"sigma_z_um {sigma:g}")
    return sigmas, nominal, dk


def _phasor_table() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin at the table nodes. Node k >= 2048 is evaluated at the
    angle (k - 4096) * step, so the nodes next to zero phase carry no
    rounding of 2 pi."""
    half = _TABLE_SIZE // 2
    angles = ((np.arange(_TABLE_SIZE) + half) % _TABLE_SIZE - half) * _TABLE_STEP
    return np.cos(angles), np.sin(angles)


_COS_TABLE, _SIN_TABLE = _phasor_table()


def _phasors(phi, work, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of exp(-i phi) for the (rows, N) phases phi,
    written into the pair of arrays out (such as the .real and .imag of a
    complex array) and returned; without out, into two of the work arrays.

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
    # real part c cos_b - s sin_b and imaginary part s cos_b + c sin_b, each
    # written once into out
    re, im = (j, s) if out is None else out
    np.multiply(c, cos_b, out=j)
    c *= sin_b
    sin_b *= s
    np.subtract(j, sin_b, out=re)
    s *= cos_b
    np.add(s, c, out=im)
    return re, im


def _power(re, im) -> np.ndarray:
    """|mean_j (re + i im)[r, j]|^2 for each row r. The planes may be the
    strided .real and .imag of a complex array: their means equal those of
    contiguous copies bit for bit, where a complex mean's do not."""
    re = re.mean(axis=-1)
    im = im.mean(axis=-1)
    return re * re + im * im


def _phasor_power(phi, work) -> np.ndarray:
    """|mean_j exp(-i phi[r, j])|^2 for each row r of the (rows, N) phases
    phi, by the table kernel (_phasors); phi and work are overwritten as
    there."""
    return _power(*_phasors(phi, work))


def _step_plan(sigmas, num_domains) -> list:
    """For each sigma of the grid, the step sigma_i - sigma_(i-1) by which a
    row block advances the previous sigma's phasors, or None where it
    evaluates the phases directly.

    A step is taken where it repeats: where it equals the step held before
    it (the last one taken) or the next sigma's step, so each step is
    evaluated once and reused while it repeats, and a step that repeats
    nowhere costs one table pass, as the direct evaluation does. Direct are
    also the anchors (index 0 and every _ANCHOR_EVERY-th after it), which
    bound the rounding the steps accumulate; sigma 0, whose phasors are
    exactly 1; and every sigma of a grating of fewer than _STEP_MIN_DOMAINS
    domains, whose few phasors average out too little of that rounding to
    stay within the kernel's bound.
    """
    if num_domains < _STEP_MIN_DOMAINS:
        return [None] * len(sigmas)
    plan = []
    held = None
    for i, sigma in enumerate(sigmas):
        anchor = i % _ANCHOR_EVERY == 0
        step = None if anchor else sigma - sigmas[i - 1]
        ahead = None
        if i + 1 < len(sigmas) and (i + 1) % _ANCHOR_EVERY:
            ahead = sigmas[i + 1] - sigma
        if anchor or sigma == 0.0 or step not in (held, ahead):
            plan.append(None)
        else:
            plan.append(step)
            held = step
    return plan


def _phasor_cells(q, x, dk, work) -> None:
    """q = exp(-i dk x) by the table kernel, for complex q and the same-shaped
    x, both contiguous; x is overwritten with the phases. The kernel runs on
    at most len(work[0]) cells at a time. It is elementwise, so the cells
    give the bits of one whole-array pass, and its memory stays that chunk's
    whatever the row length."""
    x *= dk
    q, phi = q.reshape(-1), x.reshape(-1)
    chunk = work.shape[1]
    for a in range(0, phi.size, chunk):
        cells = slice(a, a + chunk)
        _phasors(phi[cells], work[:, : min(chunk, phi.size - a)], (q.real[cells], q.imag[cells]))


def _block_eta(seed, b, rows, sigmas, plan, nominal, dk, reorder):
    """eta of row block b, `rows` realizations, at every sigma of the grid, as
    a (len(sigmas), rows) array.

    z is drawn once from spawn_rng(seed, b) and sigma i takes the errors
    sigma * z (common random numbers), its crossing rows redrawn from
    spawn_rng(seed, b, i) under "resample" (_scaled_errors). A row that was
    not redrawn thus has the phases Phi_i = dk sigma_i z, and its phasors at
    sigma_i are those at sigma_(i-1) times the step phasors exp(-i dk
    (sigma_i - sigma_(i-1)) z). Where plan (_step_plan) gives a
    step, the block multiplies by the step's phasors, evaluated once while
    the step repeats. It evaluates every row from its phases where plan
    gives no step, and also at a sigma where the block redrew a row, at that
    sigma or the one before: a redrawn row has no phasors to step from or
    to. A plan with no step runs one whole-block kernel pass per sigma and
    holds no phasors.
    """
    z = _draw_z(spawn_rng(seed, b), rows, nominal.size)
    err = np.empty_like(z)
    if any(step is not None for step in plan):
        # the phasors at the last sigma and of the held step; the kernel runs
        # a chunk at a time
        q = np.empty(z.shape, dtype=complex)
        step_q = np.empty(z.shape, dtype=complex)
        work = np.empty((4, min(z.size, _CHUNK_CELLS)))
    else:
        # nothing to step: each sigma is one kernel pass over the block,
        # reduced from its planes as conversion_efficiency's is
        q = None
        work = np.empty((4,) + z.shape)
    eta = np.empty((len(sigmas), rows))
    held = None
    redrawn_before = False
    for i, (sigma, step) in enumerate(zip(sigmas, plan)):
        redrawn = False
        if sigma == 0.0:  # every phasor is exactly 1
            eta[i] = 1.0
            if q is not None:
                q.fill(1.0)
        elif q is None:
            err, _ = _scaled_errors(z, sigma, err, nominal, reorder, lambda: spawn_rng(seed, b, i))
            err *= dk  # the phases replace the errors in place
            eta[i] = _phasor_power(err, work)
        else:
            if step is None or reorder == "resample":
                err, redrawn_rows = _scaled_errors(z, sigma, err, nominal, reorder, lambda: spawn_rng(seed, b, i))
                redrawn = redrawn_rows.size > 0
            if step is None or redrawn or redrawn_before:
                _phasor_cells(q, err, dk, work)
            else:
                if step != held:
                    np.multiply(z, step, out=err)  # this sigma's errors are not needed
                    _phasor_cells(step_q, err, dk, work)
                    held = step
                q *= step_q
            eta[i] = _power(q.real, q.imag)
        redrawn_before = redrawn
    return eta


def _blocks(samples, num_domains) -> list[tuple[int, int]]:
    """(start, stop) rows of each block; they depend only on the sizes."""
    rows = max(1, _BLOCK_CELLS // num_domains)
    return [(a, min(a + rows, samples)) for a in range(0, samples, rows)]


def efficiency_samples(
    period_mm: float,
    duty_cycle: float,
    num_domains: int,
    sigma_z_grid_um,
    samples: int,
    seed: int = 0,
    qpm_order: int = 1,
    reorder: str = "resample",
) -> list[np.ndarray]:
    """eta for `samples` error realizations at each sigma of the grid, one
    array per sigma, in grid order.

    eta is evaluated at the order-m operating mismatch m * 2 pi / Lambda (zero
    for m = 0, whose efficiency is then identically 1), with wall errors
    sigma * z, z a unit Gaussian truncated to +/- 3 and centred per
    realization. Under "resample" a row block redraws its realizations whose
    walls cross, and gives up with a SolverError after 1000 rounds; under
    "allow" the walls may cross. sigma_z_grid_um is a 1-D sequence of finite
    numbers >= 0. The row blocks (_blocks) run one after another. Block b
    draws z from spawn_rng(seed, b) and its redraws at grid index i from
    spawn_rng(seed, b, i), so the result depends only on the inputs and the
    seed.

    Along the grid a block steps its phasors (_block_eta): where sigma_i -
    sigma_(i-1) equals the step before it or after it, the phasors at sigma_i
    are those at sigma_(i-1) times the step's phasors, which are evaluated
    once while the step repeats (to the last bit: 0.1 * k for k <= 10 rounds
    some of its steps apart and steps 8 of its 11 sigma). The phases are
    evaluated directly at the first sigma and every 16th after it, at a step
    that does not repeat, at sigma 0 (eta = 1 exactly), and at every sigma
    of a grating of fewer than 8 domains; a row block that redraws a
    realization at a sigma evaluates all its rows directly there and at the
    next sigma. A grid with nothing to step, so every one-sigma
    grid, runs the per-sigma table kernel and keeps its bits, and so does
    every directly evaluated sigma of a block. A stepped sigma's eta differs in
    the last digits, each step since the anchor adding its rounding; on the
    grids tested it stayed within 16 eps * max(1, |Phi|) of the
    complex-exponential sum (up to 13.5 eps at 8 domains, 7 eps at 64 and
    more).
    """
    sigmas, nominal, dk = _check_monte_carlo(
        period_mm, duty_cycle, num_domains, sigma_z_grid_um, qpm_order, samples, reorder
    )
    eta = np.empty((len(sigmas), samples))
    plan = _step_plan(sigmas, nominal.size)
    for b, (a, stop) in enumerate(_blocks(samples, nominal.size)):
        eta[:, a:stop] = _block_eta(seed, b, stop - a, sigmas, plan, nominal, dk, reorder)
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


def _cf_deficit(s) -> np.ndarray:
    """1 - chi(s) for chi(s) = E[cos(s u)], u a unit Gaussian truncated to
    +/- t = _TRUNCATION_SIGMAS, at each s >= 0 of the array s.

    chi(s) = (exp(-s^2/2) - T(s)) / erf(t / sqrt 2), where T(s) =
    Re[exp(-t^2/2 - i t s) w((i t - s) / sqrt 2)], w the Faddeeva function,
    is the tails' share of the untruncated Gaussian's exp(-s^2/2); it stays
    finite at large s, where the exp * erf form overflows. 1 - chi is formed
    as (T(s) - T(0) - expm1(-s^2/2)) / erf(t / sqrt 2), so it keeps its
    relative accuracy as s -> 0 and is exactly 0 at s = 0. Past s = 40,
    exp(-s^2/2) has underflowed, so s is capped there before it is squared.
    The clip to [0, 2], the range of 1 - chi, absorbs the last rounding.
    """
    from scipy.special import wofz

    t = _TRUNCATION_SIGMAS

    def tail(x):
        return math.exp(-0.5 * t * t) * np.real(np.exp(-1j * t * x) * wofz((1j * t - x) / math.sqrt(2.0)))

    z = np.minimum(s, 40.0)
    deficit = (tail(s) - tail(0.0)) - np.expm1(-0.5 * z * z)
    deficit /= math.erf(t / math.sqrt(2.0))
    return np.clip(deficit, 0.0, 2.0, out=deficit)


def _wall_error_moments(
    period_mm: float,
    duty_cycle: float,
    num_domains: int,
    sigma_z_grid_um,
    qpm_order: int = 1,
) -> list[dict]:
    """monte_carlo_efficiency's rows {"sigma_z_um", "mean_eta", "std_eta"}
    from the exact moments of eta, for the sampler's model under
    reorder="allow".

    Subtracting the row mean is a common phase of the phasor sum, so eta =
    |S|^2 / N^2 with S the sum of N i.i.d. phasors exp(-i dk sigma u) (Fejer
    et al., IEEE JQE 28, 2631 (1992)). With a = chi(dk sigma) and c = chi(2 dk
    sigma) (_cf_deficit), and the falling factorials N^(k):

        E|S|^2 = N + a^2 N^(2),
        E|S|^4 = N + (4a^2 + c^2 + 2) N^(2) + (2c + 4) a^2 N^(3) + a^4 N^(4),

    so E[eta] = a^2 + (1 - a^2)/N, and Var[eta] = (E|S|^4 - (E|S|^2)^2) / N^4
    = (N - 1)/N^3 [2 (1 - a^2)^2 + r (2 (N - 1) a^2 - (1 - c))] with r = 1 +
    c - 2a^2 = 2 Var[cos(dk sigma u)]. The terms are formed from 1 - a and 1 -
    c, so the variance keeps its relative accuracy as sigma -> 0, where the
    moments themselves cancel; it is clipped at 0 against rounding. sigma = 0,
    or qpm_order 0, gives exactly (1.0, 0.0). Inputs are validated as
    efficiency_samples validates them, which keeps 6 dk sigma finite.
    """
    sigmas, nominal, dk = _check_monte_carlo(period_mm, duty_cycle, num_domains, sigma_z_grid_um, qpm_order)
    n = nominal.size
    s = dk * np.array(sigmas, dtype=float)
    p = _cf_deficit(s)  # 1 - a
    q = _cf_deficit(2.0 * s)  # 1 - c
    a2 = (1.0 - p) ** 2
    spread = p * (2.0 - p)  # 1 - a^2
    r = 2.0 * spread - q
    mean = a2 + spread / n
    var = (n - 1) / n**3 * (2.0 * spread * spread + r * (2.0 * (n - 1) * a2 - q))
    std = np.sqrt(np.maximum(var, 0.0))
    return [
        {"sigma_z_um": sigma, "mean_eta": float(m), "std_eta": float(sd)}
        for sigma, m, sd in zip(sigmas, mean, std)
    ]


def monte_carlo_efficiency(
    period_mm: float,
    duty_cycle: float,
    num_domains: int,
    sigma_z_grid_um,
    samples: int = 2000,
    seed: int = 0,
    qpm_order: int = 1,
    reorder: str = "resample",
) -> list[dict]:
    """Mean and spread of eta over fabrication-error realizations.

    Returns one row per sigma value: {"sigma_z_um", "mean_eta", "std_eta"},
    from efficiency_samples, whose model this is. The errors at each sigma
    are sigma * z for one truncated, row-centred standard-normal draw z
    shared by the whole grid (common random numbers), so the rows of
    different sigma are correlated and the eta(sigma) curve is smoother than
    independent draws would give; each sigma keeps its own distribution.
    Row block b draws from streams keyed by (seed, b), so a rerun with the
    same seed and grid reproduces every row exactly. Where the grid repeats
    a step, the rows are evaluated by stepping the phasors from sigma to
    sigma, as efficiency_samples describes; a row block that redraws
    realizations at a sigma evaluates that sigma and the next from the
    phases instead. The first sigma's row, and every row of a grid with no
    repeated step (so of a one-sigma grid), equals the per-sigma evaluation
    bit for bit.
    """
    etas = efficiency_samples(
        period_mm, duty_cycle, num_domains, sigma_z_grid_um, samples, seed, qpm_order=qpm_order, reorder=reorder
    )
    return _efficiency_rows(sigma_z_grid_um, etas)
