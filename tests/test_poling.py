"""Grating Fourier response and fabrication-error Monte Carlo.

The balanced duty cycle is pinned against a brute-force scan of the same
magnitude equation, and the square-wave series is checked for completeness by
reconstructing the profile from partial sums.
"""

import cmath
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf, wofz

from coexpm import poling
from coexpm.errors import SolverError, ValidationError
from coexpm.util import spawn_rng


def _coeff_by_hand(duty, order):
    if order == 0:
        return complex(2.0 * duty - 1.0)
    x = math.pi * order * duty
    return 2.0 * duty * (math.sin(x) / x) * cmath.exp(1j * x)


def test_fourier_coefficients_match_hand_formula():
    for duty in (0.25, 0.5, 0.735, 0.9):
        for order in range(5):
            got = poling.fourier_coefficient(duty, order)
            assert got == pytest.approx(_coeff_by_hand(duty, order), abs=1e-14)


def test_dc_term_is_linear_in_duty():
    assert poling.fourier_coefficient(0.5, 0) == 0.0
    assert poling.fourier_coefficient(0.75, 0) == pytest.approx(0.5)
    assert poling.fourier_coefficient(0.9, 0) == pytest.approx(0.8)


def test_negative_order_is_the_conjugate_coefficient():
    for duty in (0.6, 0.735):
        for order in (1, 2, 3):
            c = poling.fourier_coefficient(duty, order)
            assert poling.fourier_coefficient(duty, -order) == pytest.approx(
                c.conjugate(), abs=1e-14
            )


def test_fifty_percent_duty_kills_even_orders():
    for order in (2, 4, 6):
        assert abs(poling.fourier_coefficient(0.5, order)) < 1e-15
    # and leaves the classic 2/pi first-order response
    assert abs(poling.fourier_coefficient(0.5, 1)) == pytest.approx(2.0 / math.pi)


def test_square_wave_partial_sums_converge():
    """L2 error of the reconstructed +1/-1 profile must fall as orders are added."""
    duty = 0.7
    z = np.linspace(0.0, 1.0, 2001, endpoint=False)  # one period, unit length
    profile = np.where(z < duty, 1.0, -1.0)

    def reconstruction(max_order):
        rec = np.full_like(z, poling.fourier_coefficient(duty, 0).real)
        for m in range(1, max_order + 1):
            c = poling.fourier_coefficient(duty, m)
            rec += 2.0 * (c * np.exp(-2j * np.pi * m * z)).real
        return rec

    errs = []
    for m_max in (5, 10, 20, 40, 80):
        rec = reconstruction(m_max)
        errs.append(math.sqrt(np.mean((rec - profile) ** 2)))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    # pointwise convergence away from the domain walls (Gibbs stays local)
    safe = (np.abs(z - duty) > 0.05) & (z > 0.05) & (z < 0.95)
    assert np.max(np.abs(reconstruction(400)[safe] - profile[safe])) < 0.02


def test_balanced_duty_cycle_first_order():
    duty = poling.solve_balanced_duty_cycle(1)
    assert duty == pytest.approx(0.735, abs=0.002)
    assert duty == 0.7352581046338496  # the bits of the default dutycycle and montecarlo runs
    r0 = poling.efficiency_ratio(duty, 0)
    r1 = poling.efficiency_ratio(duty, 1)
    assert r0 == pytest.approx(r1, abs=1e-12)
    # brute-force oracle: the sign change of |c0|-|c1| lies between two
    # neighbouring points of a 200 001-point grid over (0.5, 1)
    grid = np.linspace(0.5, 1.0 - 1e-9, 200001)
    gap = np.abs(2.0 * grid - 1.0) - np.abs(
        2.0 * grid * np.sinc(grid)  # numpy sinc is sin(pi x)/(pi x)
    )
    flips = np.nonzero(np.diff(np.sign(gap)) != 0)[0]
    assert flips.size == 1
    assert grid[flips[0]] <= duty <= grid[flips[0] + 1]


def test_balanced_duty_shared_ratio_value():
    duty = poling.solve_balanced_duty_cycle(1)
    shared = poling.efficiency_ratio(duty, 0)
    assert shared == pytest.approx(0.2214, abs=1e-3)


def test_no_balanced_duty_for_second_order():
    # |c2(D)| = |sin(2 pi D)|/pi < (2D-1) has no solution in (0.5, 1):
    # |c0|-|c2| stays positive on a dense grid and the solver must say so
    grid = np.linspace(0.5 + 1e-6, 1.0 - 1e-6, 1000001)
    gap = np.abs(2.0 * grid - 1.0) - np.abs(np.sin(2.0 * np.pi * grid)) / np.pi
    assert np.all(gap[1:] > 0.0)
    with pytest.raises(SolverError):
        poling.solve_balanced_duty_cycle(2)


def test_balanced_duty_third_order_exists():
    duty = poling.solve_balanced_duty_cycle(3)
    assert 0.5 < duty < 1.0
    assert poling.efficiency_ratio(duty, 0) == pytest.approx(
        poling.efficiency_ratio(duty, 3), abs=1e-12
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", [1, 3, 5, 7, 11, 25001, 100001])
def test_balanced_duty_cycle_is_the_smallest_root(order):
    # the root of (2D - 1) = (2/(pi m)) |sin(pi m D)| in (0.5, 0.5 + 1/(2m)),
    # where the right side falls from 2/(pi m) to 0 and the left rises from 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m = mpmath.mpf(order)
        half = mpmath.mpf(1) / 2
        root = mpmath.findroot(
            lambda d: 2 * d - 1 - 2 / (mpmath.pi * m) * abs(mpmath.sin(mpmath.pi * m * d)),
            (half, half + 1 / (2 * m)),
            solver="anderson",
        )
        assert abs(poling.solve_balanced_duty_cycle(order) - root) < 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", [2, 4, 6, 100, 100000, 2**53 + 1, 2**70 + 1, 10**307 + 1])
def test_even_and_unresolvable_orders_raise(order):
    # even orders have no root; past 2**53 the bracket (0.5, 0.5 + 1/(2m)) is
    # narrower than the spacing of doubles at 0.5
    with pytest.raises(SolverError, match=f"m={order}"):
        poling.solve_balanced_duty_cycle(order)


def test_efficiency_penalty_formula_and_growth():
    for duty in (0.55, 0.7, 0.735258, 0.9):
        assert poling.efficiency_penalty(duty) == pytest.approx(
            1.0 / math.sin(math.pi * duty) ** 2, rel=1e-14
        )
    grid = np.linspace(0.55, 0.95, 9)
    pen = [poling.efficiency_penalty(d) for d in grid]
    # worst at the extremes, best at 50 %: strictly increasing above 0.5
    assert all(a < b for a, b in zip(pen, pen[1:]))


def test_nominal_boundaries_walk_the_duty_cycle():
    bounds = poling.nominal_boundaries_um(2.0, 0.735, 8)
    assert bounds.shape == (8,)
    assert bounds[0] == pytest.approx(0.735 * 2000.0)
    assert bounds[1] == pytest.approx(2000.0)
    assert bounds[4] == pytest.approx(2 * 2000.0 + 0.735 * 2000.0)
    assert bounds[-1] == pytest.approx(4 * 2000.0)  # crystal length for N=8


def test_realized_structure_statistics():
    st = poling.realize_structure(2.0, 0.735, 64, sigma_z_um=30.0, seed=99)
    err = st.boundary_error_um
    assert err.shape == (64,)
    assert abs(err.mean()) < 1e-9  # mean-subtracted draws
    assert np.std(err) == pytest.approx(30.0, rel=0.35)
    # truncation: raw draws live in +-3 sigma; mean removal can add at most
    # another 3 sigma in pathological cases
    assert np.max(np.abs(err)) <= 6.0 * 30.0
    assert np.all(np.diff(st.boundary_um) > 0)  # walls stay ordered
    assert st.length_mm == pytest.approx(64 * 2.0 / 2.0)


def test_zero_error_structure_is_nominal_and_perfect():
    st = poling.realize_structure(2.0, 0.735258, 8, sigma_z_um=0.0, seed=1)
    assert np.all(st.boundary_error_um == 0.0)
    eta = poling.conversion_efficiency(st, 2.0 * math.pi / 2000.0)
    assert eta == pytest.approx(1.0, abs=1e-12)


def test_conversion_efficiency_matches_direct_phasor_sum():
    st = poling.realize_structure(2.0, 0.735, 8, sigma_z_um=40.0, seed=5)
    dk = 2.0 * math.pi / 2000.0
    detune = 3.0e-5
    got = poling.conversion_efficiency(st, dk, detuning_rad_per_um=detune)
    # independent accumulation, one boundary at a time
    acc = 0.0 + 0.0j
    for nominal, delta in zip(st.boundary_nominal_um, st.boundary_error_um):
        acc += cmath.exp(-1j * (dk * delta + detune * nominal))
    want = abs(acc) ** 2 / st.boundary_nominal_um.size**2
    assert got == pytest.approx(want, rel=1e-12)


def test_monte_carlo_zero_sigma_row_is_exact():
    rows = poling.monte_carlo_efficiency(2.0, 0.735258, 8, [0.0], samples=50, seed=3)
    assert rows[0]["mean_eta"] == pytest.approx(1.0, abs=1e-12)
    assert rows[0]["std_eta"] == pytest.approx(0.0, abs=1e-12)


def test_monte_carlo_mean_degrades_with_error():
    rows = poling.monte_carlo_efficiency(
        2.0, 0.735258, 8, [0.0, 25.0, 50.0, 100.0], samples=800, seed=21, reorder="allow"
    )
    means = [r["mean_eta"] for r in rows]
    assert all(a > b for a, b in zip(means, means[1:]))
    assert means[-1] > 0.85  # millimetre-period gratings shrug off 100 um errors


def test_short_period_grating_is_far_more_fragile():
    # same crystal length: 8 domains at 2 mm vs 1066+ domains at 15 um.
    # 10 um errors fully randomize the short-period phasor sum, which then
    # collapses to its random-walk floor near 1/N.
    coarse = poling.monte_carlo_efficiency(
        2.0, 0.735258, 8, [10.0], samples=400, seed=7, reorder="allow"
    )
    fine = poling.monte_carlo_efficiency(
        0.015, 0.735258, 1066, [10.0], samples=400, seed=7, reorder="allow"
    )
    assert fine[0]["mean_eta"] < 0.01 < 0.95 < coarse[0]["mean_eta"]


def test_monte_carlo_reproducible_and_seed_sensitive():
    a = poling.monte_carlo_efficiency(2.0, 0.7, 8, [30.0, 60.0], samples=64, seed=11)
    b = poling.monte_carlo_efficiency(2.0, 0.7, 8, [30.0, 60.0], samples=64, seed=11)
    c = poling.monte_carlo_efficiency(2.0, 0.7, 8, [30.0, 60.0], samples=64, seed=12)
    assert a == b
    assert a != c


def test_efficiency_samples_are_fixed_by_the_seed():
    # 400 um on 2 mm makes walls cross, so the redraw streams are used too
    a = poling.efficiency_samples(2.0, 0.735, 8, [50.0, 400.0], 32, 4)
    b = poling.efficiency_samples(2.0, 0.735, 8, [50.0, 400.0], 32, 4)
    c = poling.efficiency_samples(2.0, 0.735, 8, [50.0, 400.0], 32, 5)
    assert [eta.shape for eta in a] == [(32,), (32,)]
    for same, other, eta in zip(b, c, a):
        assert np.array_equal(eta, same)
        assert not np.array_equal(eta, other)
        assert np.all((eta >= 0.0) & (eta <= 1.0 + 1e-12))


def _truncated_gaussian_cf(s, c=3.0):
    """Characteristic function E[exp(-i s u)] of a unit Gaussian truncated to
    +/- c, in a form that stays finite at large s (the exp * erf form
    overflows)."""
    tail = np.exp(-c * c / 2.0 - 1j * c * s) * wofz((1j * c - s) / math.sqrt(2.0))
    return (np.exp(-s * s / 2.0) - np.real(tail)) / erf(c / math.sqrt(2.0))


def test_truncated_gaussian_cf_is_finite_far_out():
    assert _truncated_gaussian_cf(0.0) == pytest.approx(1.0, abs=1e-15)
    assert np.isfinite(_truncated_gaussian_cf(60.0))
    assert abs(_truncated_gaussian_cf(60.0)) < 1e-3


@pytest.mark.parametrize("period_mm, domains", [(2.0, 8), (0.015, 1066)])
def test_monte_carlo_mean_matches_analytic_expectation(period_mm, domains):
    # Mean subtraction is a global phase of the phasor sum, so for i.i.d.
    # truncated-Gaussian walls E[eta] = 1/N + (1 - 1/N) |chi(dk sigma)|^2.
    sigmas = [1.0, 5.0, 10.0, 25.0, 50.0, 100.0]
    samples = 2000
    rows = poling.monte_carlo_efficiency(
        period_mm, 0.735, domains, sigmas, samples=samples, seed=42, reorder="allow"
    )
    dk = 2.0 * math.pi / (period_mm * 1e3)
    for r in rows:
        chi = _truncated_gaussian_cf(dk * r["sigma_z_um"])
        want = 1.0 / domains + (1.0 - 1.0 / domains) * chi**2
        standard_error = r["std_eta"] / math.sqrt(samples)
        assert abs(r["mean_eta"] - want) < 4.0 * standard_error, r


@pytest.mark.parametrize("period_mm, domains", [(2.0, 8), (0.015, 1066)])
def test_blocked_phasor_sum_equals_whole_array_sum(period_mm, domains):
    # 300 samples span several row blocks at 1066 domains
    samples, sigma = 300, 10.0
    [eta] = poling.efficiency_samples(period_mm, 0.735, domains, [sigma], samples, 5, reorder="allow")
    rows = max(1, poling._BLOCK_CELLS // domains)
    z = np.concatenate([
        _reference_z(spawn_rng(5, b), min(rows, samples - a), domains) for b, a in enumerate(range(0, samples, rows))
    ])
    phi = 2.0 * math.pi / (period_mm * 1e3) * (sigma * z)
    whole = poling._phasor_power(phi, np.empty((4,) + phi.shape))  # one block
    assert np.array_equal(eta, whole)


def _assert_close_to_cexp(phi):
    eps = np.finfo(float).eps
    want = np.abs(np.exp(-1j * phi).mean(axis=-1)) ** 2
    eta = poling._phasor_power(phi.copy(), np.empty((4,) + phi.shape))
    assert np.max(np.abs(eta - want)) <= 16 * eps * max(1.0, np.max(np.abs(phi)))
    assert np.all((eta >= 0.0) & (eta <= 1.0 + 4 * eps))


@pytest.mark.parametrize("period_mm, domains", [(2.0, 8), (0.015, 1066)])
@pytest.mark.parametrize("sigma", [0.5, 10.0, 100.0])
@pytest.mark.parametrize("detuning", [0.0, 1e-4, -1.0])
def test_phasor_kernel_matches_complex_exp(period_mm, domains, sigma, detuning):
    err = spawn_rng(11).normal(0.0, sigma, (40, domains))
    nominal = poling.nominal_boundaries_um(period_mm, 0.735, domains)
    _assert_close_to_cexp(2.0 * math.pi / (period_mm * 1e3) * err + detuning * nominal)


@pytest.mark.parametrize("offset", [0.0, 0.5, -0.5, 0.5 - 1e-9, 1e-12])
def test_phasor_kernel_matches_complex_exp_at_table_nodes(offset):
    # nodes of both signs, half a step either side of them (where rint picks
    # the neighbouring node), and phases that wrap past +/- 4096 steps
    nodes = np.concatenate([np.arange(-5000, 5001), 4096.0 * np.arange(-40, 41) + 1.0])
    phi = (nodes + offset) * (2.0 * math.pi / 4096)
    _assert_close_to_cexp(phi.reshape(-1, 1))  # one phasor per row
    _assert_close_to_cexp(phi.reshape(1, -1))  # one sum over them all


def test_resample_policy_gives_up_on_hopeless_geometry(monkeypatch):
    # 50 um errors on a 15 um period cannot keep walls ordered
    monkeypatch.setattr(poling, "_MAX_ATTEMPTS", 5)
    with pytest.raises(SolverError, match="still unordered after 5 resampling rounds .*use reorder='allow'"):
        poling.realize_structure(0.015, 0.7, 32, sigma_z_um=50.0, seed=0, reorder="resample")


def test_allow_policy_keeps_the_raw_draw():
    # walls may cross for sigma >> period; the phasor sum stays well defined
    st = poling.realize_structure(0.015, 0.7, 32, sigma_z_um=50.0, seed=0, reorder="allow")
    assert st.boundary_um.shape == (32,)
    assert np.any(np.diff(st.boundary_um) < 0.0)  # this draw does cross
    eta = poling.conversion_efficiency(st, 2.0 * math.pi / 15.0)
    assert 0.0 <= eta <= 1.0


def test_validation():
    with pytest.raises(ValidationError):
        poling.fourier_coefficient(0.0, 1)  # duty must be inside (0, 1)
    with pytest.raises(ValidationError):
        poling.fourier_coefficient(1.0, 1)
    with pytest.raises(ValidationError):
        poling.realize_structure(2.0, 0.7, 8, sigma_z_um=-1.0)
    with pytest.raises(ValidationError):
        poling.realize_structure(2.0, 0.7, 8, sigma_z_um=1.0, reorder="wiggle")
    with pytest.raises(ValidationError):
        poling.realize_structure(2.0, 0.7, 7, sigma_z_um=0.0)
    with pytest.raises(ValidationError):
        poling.solve_balanced_duty_cycle(0)


def _reference_z(rng, rows, domains):
    """The sampler's draw, written plainly: the whole-array draw, masked
    redraws of every cell beyond +/- 3, then a row-centred copy."""
    z = rng.standard_normal((rows, domains))
    bad = np.abs(z) > 3.0
    while np.any(bad):
        z[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(z) > 3.0
    return z - z.mean(axis=-1, keepdims=True)


def _is_ordered(walls):
    return (walls[:, 0] > 0.0) & np.all(np.diff(walls, axis=-1) > 0.0, axis=-1)


def _reference_resampled(rng, z, sigma, nominal):
    """sigma * z, with the crossing rows redrawn from rng as one stacked
    array per round until every row is ordered, in at most 1000 rounds."""
    err = sigma * z
    bad = ~_is_ordered(nominal + err)
    for _ in range(999):
        if not np.any(bad):
            return err
        err[bad] = sigma * _reference_z(rng, int(bad.sum()), nominal.size)
        bad = ~_is_ordered(nominal + err)
    raise AssertionError("reference gave up")


def _reference_phases(period_mm, domains, sigmas, samples, z_rng, redraw_rng, reorder, qpm_order=1):
    """Yield (b, i, z, crossed, phi) from the block definition: block b draws
    z from z_rng(b), each sigma i takes sigma * z, redraws the rows that
    crossed from redraw_rng(b, i) under "resample", and has the phases phi
    at the operating mismatch qpm_order * 2 pi / period."""
    nominal = poling.nominal_boundaries_um(period_mm, 0.735, domains)
    dk = qpm_order * 2.0 * math.pi / (period_mm * 1e3)
    rows = max(1, poling._BLOCK_CELLS // domains)
    for b, a in enumerate(range(0, samples, rows)):
        z = _reference_z(z_rng(b), min(rows, samples - a), domains)
        for i, sigma in enumerate(sigmas):
            crossed = np.zeros(len(z), dtype=bool)
            err = sigma * z
            if reorder == "resample":
                crossed = ~_is_ordered(nominal + err)
                err = _reference_resampled(redraw_rng(b, i), z, sigma, nominal)
            yield b, i, z, crossed, dk * err


def _reference_eta(period_mm, domains, sigmas, samples, z_rng, redraw_rng, reorder):
    """eta per sigma from the block definition (_reference_phases), each sigma
    summed on its own with _phasor_power."""
    etas = [[] for _ in sigmas]
    for _, i, _, _, phi in _reference_phases(period_mm, domains, sigmas, samples, z_rng, redraw_rng, reorder):
        etas[i].append(poling._phasor_power(phi, np.empty((4,) + phi.shape)))
    return [np.concatenate(e) for e in etas]


def _table_phasors(phi):
    """exp(-i phi) by the table kernel, as one complex array."""
    re, im = poling._phasors(phi.copy(), np.empty((4,) + phi.shape))
    return re + 1j * im


def _reference_stepped_eta(period_mm, domains, sigmas, samples, seed, reorder, qpm_order=1):
    """eta per sigma as the sampler steps the grid, written plainly on the
    block definition (_reference_phases, streams (seed, b) and (seed, b, i)).
    Where _step_plan gives a step and the block redrew no row at this sigma
    or the one before, a block's phasors are those of the sigma before times
    the step's phasors exp(-i dk step z); elsewhere they come from the
    phases. sigma 0 has phasors 1."""
    dk = qpm_order * 2.0 * math.pi / (period_mm * 1e3)
    plan = poling._step_plan(sigmas, domains)
    etas = [[] for _ in sigmas]
    for _, i, z, crossed, phi in _reference_phases(
        period_mm, domains, sigmas, samples, lambda b: spawn_rng(seed, b), lambda b, i: spawn_rng(seed, b, i),
        reorder, qpm_order,
    ):
        if sigmas[i] == 0.0:
            q = np.ones(z.shape, dtype=complex)
        elif plan[i] is None or crossed.any() or crossed_before.any():
            q = _table_phasors(phi)
        else:
            q = q * _table_phasors(dk * (plan[i] * z))
        crossed_before = crossed
        re, im = q.real.mean(axis=-1), q.imag.mean(axis=-1)
        etas[i].append(re * re + im * im)
    return [np.concatenate(e) for e in etas]


def _reference_realization(period_mm, duty, domains, sigma, seed):
    """One row of block 0's draw, from spawn_rng(seed, 0), redrawn from
    spawn_rng(seed, 0, 0) until its walls are ordered."""
    nominal = poling.nominal_boundaries_um(period_mm, duty, domains)
    z = _reference_z(spawn_rng(seed, 0), 1, domains)
    return _reference_resampled(spawn_rng(seed, 0, 0), z, sigma, nominal)[0]


@pytest.mark.parametrize("redrawn", [1.0, 0.6], ids=["all-rows", "row-runs"])
@pytest.mark.parametrize("shape", [(1, 8), (7, 130), (300, 1066)])
def test_in_place_draw_equals_the_whole_array_draw(monkeypatch, shape, redrawn):
    # The rows of the mask cross their walls and are redrawn in place into
    # the sigma-scaled copy, in one round (redrawn errors stay within 6
    # sigma, far below the 1 mm domains); the reference draws them as one
    # stacked array, cells beyond 3 sigma redrawn as the sampler redraws them.
    monkeypatch.setattr(poling, "_MAX_ATTEMPTS", 2)
    rows, domains = shape
    mask = spawn_rng(8, rows).random(rows) < redrawn
    mask[0] = True
    nominal = 1000.0 * np.arange(1, domains + 1)
    z = spawn_rng(9).normal(size=shape)
    z[mask, 1] = z[mask, 0] - 60.0  # 20 * 60 um back: wall 2 before wall 1
    before = z.copy()
    got_rng, want_rng = spawn_rng(3, *shape), spawn_rng(3, *shape)
    got, redrawn = poling._scaled_errors(z, 20.0, np.empty(shape), nominal, "resample", lambda: got_rng)
    want = 20.0 * _reference_z(want_rng, int(mask.sum()), domains)
    assert np.array_equal(redrawn, np.flatnonzero(mask))
    assert np.array_equal(got[mask], want)
    assert np.array_equal(got[~mask], 20.0 * before[~mask])
    assert np.array_equal(z, before)  # the shared draw stays intact
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("period_mm, domains, samples, sigma", [(2.0, 8, 2000, 400.0), (0.015, 1066, 300, 0.9)])
def test_resampled_errors_equal_the_stacked_redraw_loop(period_mm, domains, samples, sigma):
    nominal = poling.nominal_boundaries_um(period_mm, 0.735, domains)
    z = _reference_z(spawn_rng(5), samples, domains)
    before = z.copy()
    got_rng, want_rng = spawn_rng(6), spawn_rng(6)
    got, redrawn = poling._scaled_errors(z, sigma, np.empty_like(z), nominal, "resample", lambda: got_rng)
    want = _reference_resampled(want_rng, z, sigma, nominal)
    assert np.array_equal(redrawn, np.flatnonzero(~_is_ordered(nominal + sigma * z)))
    assert np.array_equal(got, want)
    assert np.array_equal(z, before)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("period_mm, domains, sigma", [(2.0, 8, 30.0), (2.0, 8, 400.0), (0.015, 64, 1.5)])
def test_realize_structure_draws_like_its_own_resample_loop(period_mm, domains, sigma):
    # sigma 400 um on 2 mm and 1.5 um on 15 um make walls cross, so these
    # realizations are resampled
    got = poling.realize_structure(period_mm, 0.735, domains, sigma_z_um=sigma, seed=17).boundary_error_um
    assert np.array_equal(got, _reference_realization(period_mm, 0.735, domains, sigma, 17))


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
@pytest.mark.parametrize("qpm_order", [1, 3])
@pytest.mark.parametrize("reorder", ["resample", "allow"])
@pytest.mark.parametrize("period_mm, domains, sigma", [(2.0, 8, 400.0), (0.015, 64, 1.5), (0.015, 1066, 1.2)])
def test_realization_is_the_one_sample_monte_carlo(period_mm, domains, sigma, reorder, qpm_order, seed):
    # each sigma makes the walls of some seeds cross, so "resample" redraws;
    # seed None means 0. The sampler evaluates at the order's operating
    # mismatch qpm_order * 2 pi / period.
    structure = poling.realize_structure(period_mm, 0.735, domains, sigma_z_um=sigma, seed=seed, reorder=reorder)
    got = poling.conversion_efficiency(structure, qpm_order * 2.0 * math.pi / (period_mm * 1e3))
    [[want]] = poling.efficiency_samples(
        period_mm, 0.735, domains, [sigma], 1, seed, qpm_order=qpm_order, reorder=reorder
    )
    assert got == want


@pytest.mark.parametrize(
    "period_mm, domains, reorder, sigmas",
    [
        (2.0, 8, "allow", [0.0, 10.0, 50.0, 100.0, 400.0]),
        (2.0, 8, "resample", [0.0, 10.0, 50.0, 100.0, 400.0]),
        (0.015, 1066, "allow", [0.0, 1.0, 10.0, 100.0]),
        (0.015, 1066, "resample", [0.0, 0.3, 0.6, 0.9]),
        (2.0, 8, "resample", [0.0, 100.0, 200.0, 300.0, 400.0, 500.0]),
        (0.015, 1066, "allow", [0.0, 2.5, 5.0, 7.5, 10.0, 11.0, 12.0, 13.0]),
    ],
)
@pytest.mark.parametrize("qpm_order", [1, 3])
def test_grid_equals_serial_efficiency_samples(monkeypatch, period_mm, domains, reorder, sigmas, qpm_order):
    # The grid equals the stepped block definition evaluated serially, one
    # block after another, on the streams (seed, b) and (seed, b, i), at the
    # first and the third order's operating mismatch.
    # 8 KiB blocks: two blocks of 1024 rows at 8 domains, 43 of 7 at 1066.
    monkeypatch.setattr(poling, "_BLOCK_CELLS", 1 << 13)
    _assert_grid_equals_serial(period_mm, domains, reorder, sigmas, qpm_order)


@pytest.mark.parametrize(
    "period_mm, domains, reorder, sigmas",
    [
        (2.0, 8, "resample", [0.0, 100.0, 200.0, 300.0, 400.0, 500.0]),
        # about 60% of the rows cross their walls at 1 um and are redrawn
        (0.015, 1066, "resample", [0.0, 0.25, 0.5, 0.75, 1.0]),
        (0.015, 1066, "allow", [0.0, 2.5, 5.0, 7.5, 10.0, 11.0, 12.0, 13.0]),
    ],
)
def test_small_kernel_chunks_equal_serial_efficiency_samples(monkeypatch, period_mm, domains, reorder, sigmas):
    # 1 Ki-cell kernel chunks in 8 Ki-cell blocks: the chunks split the rows
    # at 1066 domains, and a block that redrew rows is evaluated whole, a
    # chunk at a time, at 8 domains and at 1066
    monkeypatch.setattr(poling, "_BLOCK_CELLS", 1 << 13)
    monkeypatch.setattr(poling, "_CHUNK_CELLS", 1 << 10)
    _assert_grid_equals_serial(period_mm, domains, reorder, sigmas)


def test_a_many_block_grid_past_the_second_anchor_equals_serial(monkeypatch):
    # 20 blocks of two rows and 32 sigmas: every block restarts its steps at
    # the anchor at index 16
    monkeypatch.setattr(poling, "_BLOCK_CELLS", 2 * 130)
    sigmas = [float(s) for s in range(1, 33)]
    grid = poling.efficiency_samples(0.1, 0.735, 130, sigmas, 40, 4, reorder="allow")
    want = _reference_stepped_eta(0.1, 130, sigmas, 40, 4, "allow")
    for idx, sigma in enumerate(sigmas):
        assert np.array_equal(grid[idx], want[idx]), sigma


def _assert_grid_equals_serial(period_mm, domains, reorder, sigmas, qpm_order=1):
    samples = 300 if domains > 8 else 2000
    grid = poling.efficiency_samples(period_mm, 0.735, domains, sigmas, samples, 9, qpm_order=qpm_order, reorder=reorder)
    want = _reference_stepped_eta(period_mm, domains, sigmas, samples, 9, reorder, qpm_order)
    assert len(grid) == len(sigmas)
    for idx, sigma in enumerate(sigmas):
        assert np.array_equal(grid[idx], want[idx]), sigma


@pytest.mark.parametrize(
    "sigmas, domains, plan",
    [
        # the default montecarlo grid: sigma 0 has phasors 1, then one step
        ([10.0 * k for k in range(11)], 1066, [None] + [10.0] * 10),
        ([10.0 * k for k in range(11)], 8, [None] + [10.0] * 10),
        # anchors at index 0, 16 and 32
        ([float(k) for k in range(40)], 8, [None] + [1.0] * 15 + [None] + [1.0] * 15 + [None] + [1.0] * 7),
        # a step is taken where it repeats, before or after
        ([1.0, 2.0, 4.0, 8.0], 130, [None] * 4),
        ([0.0, 0.3, 0.6, 0.9], 1066, [None, 0.3, 0.3, None]),  # 0.9 - 0.6 is not 0.3
        ([0.0, 1.0, 2.0, 4.0, 6.0, 7.0], 1066, [None, 1.0, 1.0, 2.0, 2.0, None]),
        ([5.0, 0.0, 5.0, 10.0], 8, [None, None, 5.0, 5.0]),
        ([5.0, 0.0, 5.0, 0.0, 5.0], 8, [None] * 5),
        # fewer than 8 domains: every sigma directly
        ([10.0 * k for k in range(11)], 6, [None] * 11),
        ([10.0 * k for k in range(11)], 2, [None] * 11),
        ([], 8, []),
    ],
)
def test_step_plan(sigmas, domains, plan):
    assert poling._step_plan(sigmas, domains) == plan


def _assert_grid_close_to_cexp(period_mm, domains, sigmas, samples, reorder):
    """The stepped grid against the complex exponential of the block
    definition's phases, within the table kernel's bound 16 eps * max(1,
    |Phi|) for each sigma. The rows a block evaluates whole, where the plan
    gives no step or the block redrew a row at this sigma or the one before,
    equal the per-sigma kernel (_reference_eta) bit for bit."""
    eps = np.finfo(float).eps
    grid = poling.efficiency_samples(period_mm, 0.735, domains, sigmas, samples, 3, reorder=reorder)
    keys = (lambda b: spawn_rng(3, b), lambda b, i: spawn_rng(3, b, i))
    plan = poling._step_plan(sigmas, domains)
    want = [[] for _ in sigmas]
    whole = [[] for _ in sigmas]
    largest = np.ones(len(sigmas))
    for _, i, z, crossed, phi in _reference_phases(period_mm, domains, sigmas, samples, *keys, reorder):
        want[i].append(np.abs(np.exp(-1j * phi).mean(axis=-1)) ** 2)
        largest[i] = max(largest[i], np.max(np.abs(phi)))
        evaluated_whole = plan[i] is None or crossed.any() or crossed_before.any()
        whole[i].append(np.full(len(z), evaluated_whole))
        crossed_before = crossed
    per_sigma = _reference_eta(period_mm, domains, sigmas, samples, *keys, reorder)
    for i in range(len(sigmas)):
        assert np.max(np.abs(grid[i] - np.concatenate(want[i]))) <= 16 * eps * largest[i], sigmas[i]
        rows = np.concatenate(whole[i])
        assert np.array_equal(grid[i][rows], per_sigma[i][rows]), sigmas[i]


@pytest.mark.parametrize(
    "period_mm, domains, sigmas, samples, reorder",
    [
        (0.015, 1066, [0.5 * k for k in range(200)], 61, "allow"),
        (2.0, 8, [5.0 * k for k in range(200)], 500, "allow"),
        # runs of repeated steps between steps that do not repeat
        (0.015, 1066, [0.0, 1.0, 2.0, 3.0, 3.5, 4.0, 4.5, 7.0, 10.0, 13.0, 13.25, 20.0, 30.0], 100, "allow"),
        # about 60% of the rows cross their walls at 1 um and are redrawn
        (0.015, 1066, [0.125 * k for k in range(9)], 100, "resample"),
        (2.0, 8, [25.0 * k for k in range(24)], 2000, "resample"),
        # below 8 domains every sigma is evaluated directly: stepped, nothing
        # would average the rounding that 15 steps since an anchor add up
        # (about 27 eps at 2 domains on this grid)
        (2.0, 2, [0.25 * k for k in range(200)], 500, "allow"),
        (2.0, 4, [0.25 * k for k in range(200)], 500, "allow"),
        (2.0, 6, [0.25 * k for k in range(200)], 500, "allow"),
    ],
)
def test_stepped_grid_stays_within_the_kernel_bound(period_mm, domains, sigmas, samples, reorder):
    _assert_grid_close_to_cexp(period_mm, domains, sigmas, samples, reorder)


def _truncated_gaussian_std(period_mm, domains, sigma):
    """std of eta for i.i.d. truncated-Gaussian walls at zero detuning, from
    E|S|^4 of the phasor sum S with a = chi(dk sigma), c = chi(2 dk sigma)
    and the falling factorials N^(k): E|S|^4 = N + (4a^2 + c^2 + 2) N^(2) +
    (2c + 4) a^2 N^(3) + a^4 N^(4), E[eta^2] = E|S|^4 / N^4."""
    n = domains
    dk = 2.0 * math.pi / (period_mm * 1e3)
    a, c = _truncated_gaussian_cf(dk * sigma), _truncated_gaussian_cf(2.0 * dk * sigma)
    n2 = n * (n - 1)
    n3 = n2 * (n - 2)
    n4 = n3 * (n - 3)
    fourth = n + (4 * a * a + c * c + 2) * n2 + (2 * c + 4) * a * a * n3 + a**4 * n4
    mean = 1.0 / n + (1.0 - 1.0 / n) * a * a
    return math.sqrt(fourth / n**4 - mean * mean)


STD_ORACLE_POINTS = [
    (2.0, 8, 300.0, 0.179175),
    (2.0, 8, 100.0, 0.039538),
    (0.015, 1066, 1.0, 0.0060366),
    (0.015, 1066, 2.0, 0.0150590),
]


@pytest.mark.parametrize("period_mm, domains, sigma, std", STD_ORACLE_POINTS)
def test_std_oracle_values(period_mm, domains, sigma, std):
    assert _truncated_gaussian_std(period_mm, domains, sigma) == pytest.approx(std, rel=1e-5)


@pytest.mark.parametrize("period_mm, domains, sigma, std", STD_ORACLE_POINTS)
def test_wall_error_moments_match_the_oracle(period_mm, domains, sigma, std):
    [row] = poling._wall_error_moments(period_mm, 0.735, domains, [sigma])
    chi = _truncated_gaussian_cf(2.0 * math.pi / (period_mm * 1e3) * sigma)
    assert row["sigma_z_um"] == sigma
    assert row["mean_eta"] == pytest.approx(1.0 / domains + (1.0 - 1.0 / domains) * chi**2, rel=1e-13)
    assert row["std_eta"] == pytest.approx(_truncated_gaussian_std(period_mm, domains, sigma), rel=1e-10)
    assert row["std_eta"] == pytest.approx(std, rel=1e-5)


def _reference_moments(mpmath, n, s, trunc=3):
    """(E[eta], Var[eta]) at dk sigma = s to the working precision of mpmath:
    chi(s) = Re[exp(-s^2/2) erf((trunc - i s)/sqrt 2)] / erf(trunc/sqrt 2),
    and the falling-factorial moments of _truncated_gaussian_std, whose
    cancellation costs nothing at 40 digits."""
    root2 = mpmath.sqrt(2)

    def chi(x):
        return mpmath.re(mpmath.exp(-x * x / 2) * mpmath.erf((trunc - 1j * x) / root2)) / mpmath.erf(trunc / root2)

    a, c = chi(mpmath.mpf(s)), chi(2 * mpmath.mpf(s))
    n2 = n * (n - 1)
    n3 = n2 * (n - 2)
    n4 = n3 * (n - 3)
    fourth = n + (4 * a * a + c * c + 2) * n2 + (2 * c + 4) * a * a * n3 + a**4 * n4
    mean = (n + a * a * n2) / mpmath.mpf(n) ** 2
    return mean, fourth / mpmath.mpf(n) ** 4 - mean * mean


@pytest.mark.parametrize("domains", [2, 8, 1066])
def test_wall_error_moments_match_a_40_digit_reference(domains):
    mpmath = pytest.importorskip("mpmath")
    # dk = 1 rad/um up to rounding, so the grid spans dk sigma = 1e-5 .. 80
    period_mm = 2.0 * math.pi / 1e3
    dk = 2.0 * math.pi / (period_mm * 1e3)
    sigmas = [*np.logspace(-5.0, math.log10(80.0), 71).tolist(), 0.5, 1.0, 2.0, 40.0]
    rows = poling._wall_error_moments(period_mm, 0.735, domains, sigmas)
    with mpmath.workdps(40):
        for row in rows:
            mean, var = (float(m) for m in _reference_moments(mpmath, domains, dk * row["sigma_z_um"]))
            got = row["std_eta"] ** 2
            assert abs(row["mean_eta"] - mean) <= 1e-15, row
            assert abs(got - var) <= 1e-15, row
            if var >= 1e-9:
                assert got == pytest.approx(var, rel=1e-6), row


@pytest.mark.parametrize("period_mm, domains", [(2.0, 8), (0.015, 1066), (1e-300, 16)])
def test_wall_error_moments_are_exact_without_phase_errors(period_mm, domains):
    # sigma 0, or order 0 (no grating vector to spoil) at any sigma
    for rows in (
        poling._wall_error_moments(period_mm, 0.735, domains, [0.0, 0.0]),
        poling._wall_error_moments(period_mm, 0.735, domains, [0.0, 1.0, 1e3], qpm_order=0),
    ):
        assert [(r["mean_eta"], r["std_eta"]) for r in rows] == [(1.0, 0.0)] * len(rows)
        assert all(type(r["mean_eta"]) is float and type(r["std_eta"]) is float for r in rows)


@pytest.mark.parametrize(
    "period_mm, sigmas",
    [
        (1e-300, [5e-324, 1e-300, 1e-3, 50.0]),  # dk near the float range
        (0.015, [5e-324, 1.0, 1e5, 1e305]),  # up to the largest sigma the sampler takes
        (1e300, [1e300]),
    ],
)
def test_wall_error_moments_stay_finite_over_the_samplers_domain(period_mm, sigmas):
    # RuntimeWarnings are errors here (pyproject), so an overflow would fail
    rows = poling._wall_error_moments(period_mm, 0.735, 1066, sigmas)
    for r in rows:
        assert 0.0 <= r["mean_eta"] <= 1.0 and 0.0 <= r["std_eta"] <= 1.0, r


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((0.0, 0.735, 8, [1.0]), {}),
        ((2.0, 1.0, 8, [1.0]), {}),
        ((2.0, 0.735, 7, [1.0]), {}),
        ((2.0, 0.735, 8, [-1.0]), {}),
        ((2.0, 0.735, 8, [math.nan]), {}),
        ((2.0, 0.735, 8, [[1.0]]), {}),
        ((2.0, 0.735, 8, [1.0]), {"qpm_order": -1}),
        ((1e-300, 0.735, 8, [1e300]), {}),
        ((1e-6, 0.735, 8, [1e306]), {}),  # 6 dk sigma overflows
    ],
)
def test_wall_error_moments_reject_what_the_sampler_rejects(args, kwargs):
    with pytest.raises(ValidationError) as sampled:
        poling.monte_carlo_efficiency(*args, samples=1, reorder="allow", **kwargs)
    with pytest.raises(ValidationError) as closed:
        poling._wall_error_moments(*args, **kwargs)
    assert str(closed.value) == str(sampled.value)


@pytest.mark.parametrize(
    "period_mm, domains, sigmas",
    [(2.0, 8, [50.0 * k for k in range(11)]), (0.015, 1066, [0.25 * k for k in range(11)])],
)
def test_monte_carlo_std_matches_analytic_expectation(period_mm, domains, sigmas):
    # a stepped 11-sigma grid; the delta-method standard error of the sample
    # std s is sqrt((m4 - s^4) / n) / (2 s), from the samples' own moments
    samples = 2000
    etas = poling.efficiency_samples(period_mm, 0.735, domains, sigmas, samples, 42, reorder="allow")
    assert poling._step_plan(sigmas, domains)[2:] == [sigmas[1]] * 9
    for sigma, eta in zip(sigmas[1:], etas[1:]):
        s = eta.std(ddof=1)
        m4 = np.mean((eta - eta.mean()) ** 4)
        standard_error = math.sqrt((m4 - s**4) / samples) / (2.0 * s)
        assert abs(s - _truncated_gaussian_std(period_mm, domains, sigma)) < 4.0 * standard_error, sigma


def test_zero_sigma_is_exactly_one():
    for reorder in ("resample", "allow"):
        for eta in poling.efficiency_samples(0.015, 0.735, 1066, [0.0, 1.0, 0.0], 50, reorder=reorder)[::2]:
            assert eta.tobytes() == np.ones(50).tobytes()


def test_hopeless_resample_error_counts_the_realizations_of_one_row_block(monkeypatch):
    # 5000 samples of 64 domains run in row blocks of 1024; the first block fails
    monkeypatch.setattr(poling, "_MAX_ATTEMPTS", 3)
    rows = poling._blocks(5000, 64)[0][1]
    assert rows == 1024
    with pytest.raises(SolverError, match=rf"^{rows} of the {rows} realizations of a row block still unordered"):
        poling.monte_carlo_efficiency(0.015, 0.7, 64, [50.0], samples=5000)


def test_many_block_sampling_starts_no_thread(monkeypatch):
    """The benchmark's span tracer keeps one span stack, which holds only
    while the library runs on the calling thread: a five-block grid runs
    every block there and starts no thread."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    ran_on = []
    block_eta = poling._block_eta
    monkeypatch.setattr(poling, "_block_eta", lambda *a: ran_on.append(threading.current_thread()) or block_eta(*a))
    poling.efficiency_samples(0.015, 0.735, 1066, [0.0, 1.0, 2.0], 300, reorder="allow")
    assert len(poling._blocks(300, 1066)) == 5
    assert ran_on == [threading.current_thread()] * 5
    assert started == []


@pytest.mark.parametrize("reorder, samples", [("allow", 2000), ("allow", 8000), ("resample", 2000)])
def test_grid_memory_is_a_few_blocks(reorder, samples):
    # the 11-sigma grid at 1066 domains; under "resample" about 60% of the
    # rows cross at 1 um on the first draw and are redrawn, over some 17 rounds
    domains = 1066
    sigmas = np.linspace(0.0, 100.0 if reorder == "allow" else 1.0, 11)
    blocks = 10 * poling._BLOCK_CELLS * 8  # z, phases, kernel work, scans and redraws
    etas = 2 * len(sigmas) * samples * 8  # the eta table and one block's results per row
    tracemalloc.start()
    try:
        poling.monte_carlo_efficiency(0.015, 0.735, domains, sigmas, samples=samples, reorder=reorder)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= blocks + etas + 2**20


def test_long_grating_memory_is_a_few_rows():
    # above 2^14 domains one row outgrows a kernel chunk and a block is one
    # row; the kernel still runs a chunk of cells at a time
    domains, samples = 70000, 2
    sigmas = [0.125 * k for k in range(11)]
    blocks = 10 * domains * 8  # the bound above, for a block of one row
    tracemalloc.start()
    try:
        poling.efficiency_samples(0.015, 0.735, domains, sigmas, samples, reorder="allow")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= blocks + 2**20


@pytest.mark.parametrize(
    "grid", [5.0, np.float64(5.0), [[1.0, 2.0]], np.zeros((2, 2)), ["a"], [1.0, "b"], [[1.0], [2.0, 3.0]], None, [1j]]
)
def test_sigma_grid_must_be_one_dimensional_numbers(grid):
    from coexpm import biphoton

    with pytest.raises(ValidationError, match="sigma_z_grid_um"):
        poling.efficiency_samples(2.0, 0.7, 8, grid, 10)
    with pytest.raises(ValidationError, match="sigma_z_grid_um"):
        poling.monte_carlo_efficiency(2.0, 0.7, 8, grid, samples=10)
    with pytest.raises(ValidationError, match="sigma_z_grid_um"):
        biphoton.entanglement_vs_fabrication(2.0, 0.7, 8, grid, samples=10)


@pytest.mark.parametrize("sigma", ["a", [1.0], None, 1j])
def test_realized_sigma_must_be_a_number(sigma):
    with pytest.raises(ValidationError, match="sigma_z_um"):
        poling.realize_structure(2.0, 0.7, 8, sigma_z_um=sigma)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sigma_is_rejected(bad):
    with pytest.raises(ValidationError, match="sigma_z_grid_um"):
        poling.efficiency_samples(2.0, 0.735, 8, [bad], 10)
    with pytest.raises(ValidationError, match="sigma_z_grid_um"):
        poling.monte_carlo_efficiency(2.0, 0.735, 8, [10.0, bad], samples=10)
    with pytest.raises(ValidationError, match="sigma_z_um"):
        poling.realize_structure(2.0, 0.735, 8, sigma_z_um=bad)


@pytest.mark.filterwarnings("error")  # no overflow warning, no NaN row
def test_huge_detuning_raises_or_stays_finite():
    # the phase at the last wall, 8000 um, overflows the float range (or its
    # count of table steps does) at the first two detunings
    structure = poling.realize_structure(2.0, 0.735, 8, sigma_z_um=10.0, seed=1)
    for detuning in (1e305, -1e303, math.nan):
        with pytest.raises(ValidationError, match="detuning"):
            poling.conversion_efficiency(structure, 3e-3, detuning)
    # phases up to 8e17 rad: every table index is reduced before its cast
    assert 0.0 <= poling.conversion_efficiency(structure, 3e-3, 1e14) <= 1.0


@pytest.mark.filterwarnings("error")  # no overflow warning, no NaN row
def test_huge_sigma_raises_before_any_draw(monkeypatch):
    # 6 sigma dk overflows the phase's table steps; at order 0 (dk = 0)
    # the wall errors themselves overflow
    spawned = []
    monkeypatch.setattr(poling, "spawn_rng", lambda *key: spawned.append(key) or spawn_rng(*key))
    for sigma, order in ((1e308, 1), (2e307, 1), (1e308, 0)):
        with pytest.raises(ValidationError, match="sigma_z_um"):
            poling.efficiency_samples(2.0, 0.735, 8, [sigma], 3, qpm_order=order, reorder="allow")
        with pytest.raises(ValidationError, match="sigma_z_um"):
            poling.monte_carlo_efficiency(2.0, 0.735, 8, [10.0, sigma], samples=3, qpm_order=order)
    with pytest.raises(ValidationError, match="sigma_z_um"):
        poling.realize_structure(2.0, 0.735, 8, sigma_z_um=1e308, reorder="allow")
    assert spawned == []
    # the largest sigma the phase bound takes still gives a finite eta
    [eta] = poling.efficiency_samples(2.0, 0.735, 8, [1e300], 3, reorder="allow")
    assert np.all(np.isfinite(eta) & (eta >= 0.0) & (eta <= 1.0))
