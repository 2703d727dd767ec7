"""Joint spectral density: ridge placement, filter convolution, marginals.

The convolution path is validated against an independent quadrature of the
same defining integral (different discretization, padding and weights), so a
lost tail or a mis-scaled kernel shows up as a power mismatch.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from coexpm import dispersion
from coexpm import phasematch as pm
from coexpm import spectrum as sp
from coexpm.errors import ValidationError
from coexpm.util import fwhm_of_profile

L_MM = 8.0


def _centered_grid(center, half_span, step):
    n = int(round(half_span / step))
    return center + step * np.arange(-n, n + 1)


def _independent_convolution(spec, pump_nm, sgrid, igrid, length_mm, fwhm_nm):
    """Direct quadrature of the filtered ridge, built without reusing the
    production integration grid: finer substep, flat trapezoid weights,
    linspace-based support."""
    sigma = fwhm_nm / math.sqrt(8.0 * math.log(2.0))
    supp = 5.0 * sigma

    def kern(x):
        out = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        out[np.abs(x) > supp] = 0.0
        return out

    slope = (igrid[-1] / sgrid[0]) ** 2
    lo = sgrid[0] - supp * (1.0 + 1.0 / slope) - 1.0
    hi = sgrid[-1] + supp * (1.0 + 1.0 / slope) + 1.0
    n = int((hi - lo) / (fwhm_nm / 64.0))
    mu = np.linspace(lo, hi, n)
    w = np.full(n, mu[1] - mu[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    inten = sp.phase_matching_intensity(spec, pump_nm, mu, length_mm)
    ridge = pm.idler_wavelength_nm(pump_nm, mu)
    ks = kern(sgrid[:, None] - mu[None, :])
    ki = kern(igrid[:, None] - ridge[None, :])
    return (ks * (inten * w)) @ ki.T


def test_ridge_intensity_is_unity_at_the_solved_point(nbpm, design_point):
    v = sp.phase_matching_intensity(nbpm, design_point.pump_nm, design_point.signal_nm, L_MM)
    assert v == pytest.approx(1.0, abs=1e-10)


def test_ridge_intensity_matches_sinc_squared_by_hand(nbpm):
    sig = 1074.3
    dk = pm.delta_k(nbpm, 538.4, sig)
    arg = 0.5 * dk * L_MM * 1e3
    want = (math.sin(arg) / arg) ** 2
    assert sp.phase_matching_intensity(nbpm, 538.4, sig, L_MM) == pytest.approx(
        want, rel=1e-12
    )


def test_delta_ridge_lands_on_the_energy_conservation_line(nbpm, design_point):
    s0, i0 = design_point.signal_nm, design_point.idler_nm
    sgrid = _centered_grid(s0, 2.0, 0.05)
    igrid = _centered_grid(i0, 2.0, 0.05)
    grid = sp.joint_spectral_density(nbpm, design_point.pump_nm, sgrid, igrid, L_MM)
    # at most one populated idler cell per signal cell
    assert np.max(np.count_nonzero(grid.values, axis=1)) == 1
    assert sp.peak_location(grid) == (pytest.approx(s0, abs=0.05), pytest.approx(i0, abs=0.05))
    # the populated column index falls as the row index rises (idler shrinks
    # when the signal grows)
    cols = [np.argmax(row) for row in grid.values if row.any()]
    assert all(a >= b for a, b in zip(cols, cols[1:]))


def test_normalized_peak_is_one(nbpm, design_point):
    sgrid = _centered_grid(design_point.signal_nm, 3.0, 0.1)
    igrid = _centered_grid(design_point.idler_nm, 3.0, 0.1)
    grid = sp.joint_spectral_density(
        nbpm, design_point.pump_nm, sgrid, igrid, L_MM, filter_fwhm_nm=1.0
    )
    assert grid.values.max() == pytest.approx(1.0, abs=0.0)


def test_convolution_matches_independent_quadrature(nbpm, design_point):
    s0, i0 = design_point.signal_nm, design_point.idler_nm
    sgrid = _centered_grid(s0, 3.0, 0.1)
    igrid = _centered_grid(i0, 3.0, 0.1)
    fwhm = 0.6
    got = sp.joint_spectral_density(
        nbpm,
        design_point.pump_nm,
        sgrid,
        igrid,
        L_MM,
        filter_fwhm_nm=fwhm,
        normalize=False,
    ).values
    want = _independent_convolution(nbpm, design_point.pump_nm, sgrid, igrid, L_MM, fwhm)
    # total power agreement ...
    assert np.sum(got) == pytest.approx(np.sum(want), rel=1e-6)
    # ... and pointwise agreement at the 1e-6-of-peak level (the two kernel
    # truncation edges fall on different substeps, so exact zeros differ)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-6 * want.max())


def test_convolution_is_converged_in_the_substep(nbpm, design_point):
    s0, i0 = design_point.signal_nm, design_point.idler_nm
    sgrid = _centered_grid(s0, 2.0, 0.1)
    igrid = _centered_grid(i0, 2.0, 0.1)
    coarse = sp.joint_spectral_density(
        nbpm, design_point.pump_nm, sgrid, igrid, L_MM,
        filter_fwhm_nm=0.8, ridge_oversample=8, normalize=False,
    ).values
    fine = sp.joint_spectral_density(
        nbpm, design_point.pump_nm, sgrid, igrid, L_MM,
        filter_fwhm_nm=0.8, ridge_oversample=32, normalize=False,
    ).values
    assert np.sum(coarse) == pytest.approx(np.sum(fine), rel=1e-9)


def test_kernels_have_unit_area():
    x = np.arange(-8.0, 8.0, 0.01)
    for kind in ("gaussian", "box"):
        k = sp.filter_kernel(x, 1.3, kind)
        assert np.sum(k) * 0.01 == pytest.approx(1.0, abs=1e-6)


def test_filter_broadens_the_marginals(nbpm, design_point):
    s0, i0 = design_point.signal_nm, design_point.idler_nm
    sgrid = _centered_grid(s0, 6.0, 0.05)
    igrid = _centered_grid(i0, 6.0, 0.05)
    widths = []
    for fwhm in (0.0, 0.4, 1.0, 2.0):
        grid = sp.joint_spectral_density(
            nbpm, design_point.pump_nm, sgrid, igrid, L_MM, filter_fwhm_nm=fwhm
        )
        widths.append(sp.marginal_fwhm_nm(grid, "signal"))
    assert all(a < b for a, b in zip(widths, widths[1:]))


@pytest.mark.parametrize("pump_nm, length_mm", [(538.4, 8.0), (532.0, 20.0)])
def test_filtered_marginal_tends_to_the_ridge_and_to_the_filter(nbpm, pump_nm, length_mm):
    # The idler kernel integrates out of the signal marginal, which is the
    # ridge convolved with the signal filter. So its FWHM tends to the
    # ridge's as the filter narrows, the gap falling as (f / w)^2, and to the
    # filter's as it widens, the gap falling as w / f (the sinc^2 tails).
    pt = pm.solve_nbpm(nbpm, pump_nm)
    ridge = pt.signal_nm + np.linspace(-5.0, 5.0, 200_001)
    w = fwhm_of_profile(ridge, sp.phase_matching_intensity(nbpm, pump_nm, ridge, length_mm))

    def gap(ratio, limit):
        f = ratio * w
        step = min(w, f) / 8.0
        sgrid = _centered_grid(pt.signal_nm, 3.0 * max(w, f), step)
        igrid = _centered_grid(pt.idler_nm, 3.0 * max(w, f), step)
        grid = sp.joint_spectral_density(
            nbpm, pump_nm, sgrid, igrid, length_mm, filter_fwhm_nm=f, ridge_oversample=4
        )
        return abs(sp.marginal_fwhm_nm(grid, "signal") / limit(f) - 1.0)

    narrowing = [gap(ratio, lambda f: w) for ratio in (0.4, 0.2, 0.1)]
    widening = [gap(ratio, lambda f: f) for ratio in (4.0, 8.0, 16.0)]
    assert all(b < 0.3 * a for a, b in zip(narrowing, narrowing[1:])) and narrowing[-1] < 5e-3, narrowing
    assert all(b < 0.6 * a for a, b in zip(widening, widening[1:])) and widening[-1] < 1.5e-2, widening


def test_green_pumped_pair_linewidth(nbpm):
    # 532 nm pump, 8 mm crystal: the unfiltered signal line is in the
    # nanometre class (narrow for a bulk source but resolvable)
    pt = pm.solve_nbpm(nbpm, 532.0)
    sgrid = _centered_grid(pt.signal_nm, 8.0, 0.02)
    igrid = _centered_grid(pt.idler_nm, 10.0, 0.1)
    grid = sp.joint_spectral_density(nbpm, 532.0, sgrid, igrid, L_MM)
    width = sp.marginal_fwhm_nm(grid, "signal")
    assert width == pytest.approx(1.21, abs=0.05)
    assert 0.6 <= width <= 6.0


# sinc^2(u) = 1/2 at u = U_HALF
U_HALF = brentq(lambda u: math.sin(u) / u - math.sqrt(0.5), 1.0, 2.0, xtol=1e-15)


def _group_index(disp, lam_um, temperature_c):
    """n - lambda dn/dlambda of a two-pole Sellmeier axis with its inverse-
    wavelength thermo-optic polynomial, differentiated by hand."""
    c = disp.coefficients
    poles = [(c["B1"], c["C1"]), (c["B2"], c["C2"])]
    n_ref = math.sqrt(c["A"] + sum(b / (lam_um**2 - p) for b, p in poles))
    dn_ref = -lam_um * sum(b / (lam_um**2 - p) ** 2 for b, p in poles) / n_ref
    dt = temperature_c - disp.reference_temperature_c
    thermo = disp.thermo_coefficients
    n = n_ref + dt * sum(ck * lam_um**-k for k, ck in enumerate(thermo))
    dn = dn_ref - dt * sum(k * ck * lam_um ** (-k - 1) for k, ck in enumerate(thermo))
    return n - lam_um * dn


@pytest.mark.parametrize(
    "process, period_mm, pump_nm",
    [("nbpm", None, p) for p in (532.0, 536.0, 538.4)] + [("qpm", 2.0, p) for p in (538.0, 538.4, 538.8)],
)
@pytest.mark.parametrize("temperature_c", [20.0, 25.0, 60.0])
def test_ridge_linewidth_follows_the_group_index_mismatch(process, period_mm, pump_nm, temperature_c, request):
    # at a fixed pump d(delta_k)/d(lambda_s) = 2 pi (n_g,s - n_g,i) / lambda_s^2,
    # so the sinc^2(delta_k L / 2) ridge has FWHM 4 U_HALF lambda_s^2 / (2 pi L |dn_g|)
    spec = replace(request.getfixturevalue(process), temperature_c=temperature_c)
    pt = pm.solve_qpm(spec, pump_nm, period_mm)
    axes = dispersion.ktp_axes()
    lam_s, lam_i = pt.signal_nm * 1e-3, pt.idler_nm * 1e-3
    mismatch = _group_index(axes[spec.signal_axis], lam_s, temperature_c) - _group_index(
        axes[spec.idler_axis], lam_i, temperature_c
    )
    for length_mm in (6.0, 8.0, 20.0):
        want_nm = 4.0 * U_HALF * lam_s**2 / (2.0 * math.pi * length_mm * abs(mismatch))
        ridge = pt.signal_nm + np.linspace(-3.0 * want_nm, 3.0 * want_nm, 200_001)
        profile = sp.phase_matching_intensity(spec, pump_nm, ridge, length_mm, period_mm=period_mm)
        assert fwhm_of_profile(ridge, profile) == pytest.approx(want_nm, rel=1e-5), length_mm


def test_peak_follows_the_phase_matching_solution_off_design(nbpm):
    # same machinery at a different operating point: warmer crystal, longer pump
    warm = replace(nbpm, temperature_c=25.8)
    pt = pm.solve_nbpm(warm, 538.6)
    sgrid = _centered_grid(pt.signal_nm, 3.0, 0.05)
    igrid = _centered_grid(pt.idler_nm, 3.0, 0.05)
    grid = sp.joint_spectral_density(warm, 538.6, sgrid, igrid, L_MM, filter_fwhm_nm=0.5)
    ps, pi = sp.peak_location(grid)
    assert ps == pytest.approx(pt.signal_nm, abs=0.3)
    assert pi == pytest.approx(pt.idler_nm, abs=0.3)


def test_grating_process_density_peaks_with_the_birefringent_one(qpm, design_point):
    # coexistence: both processes emit on the same wavelengths when the
    # first-order grating is dialed to the design period
    spec = replace(qpm, temperature_c=25.0)
    sgrid = _centered_grid(design_point.signal_nm, 3.0, 0.05)
    igrid = _centered_grid(design_point.idler_nm, 3.0, 0.05)
    grid = sp.joint_spectral_density(
        spec, design_point.pump_nm, sgrid, igrid, L_MM,
        filter_fwhm_nm=0.5, period_mm=design_point.poling_period_mm,
    )
    ps, pi = sp.peak_location(grid)
    assert ps == pytest.approx(design_point.signal_nm, abs=0.3)
    assert pi == pytest.approx(design_point.idler_nm, abs=0.3)


def test_relabeling_the_arms_mirrors_the_ridge(nbpm, design_point):
    # the ridge intensity is symmetric under relabeling: evaluating the
    # swapped process at the conjugate wavelength reproduces it exactly.
    # (The gridded density itself is per-unit-signal-wavelength, so a full
    # transpose picks up the d lambda_i / d lambda_s Jacobian, about 1 % here.)
    pump = design_point.pump_nm
    for s in np.linspace(design_point.signal_nm - 2.0, design_point.signal_nm + 2.0, 9):
        conj = pm.idler_wavelength_nm(pump, s)
        a = sp.phase_matching_intensity(nbpm, pump, s, L_MM)
        b = sp.phase_matching_intensity(nbpm.swapped(), pump, conj, L_MM)
        assert a == pytest.approx(b, rel=1e-10)


def test_marginals_have_unit_peak_and_match_axes(nbpm, design_point):
    sgrid = _centered_grid(design_point.signal_nm, 3.0, 0.1)
    igrid = _centered_grid(design_point.idler_nm, 3.0, 0.1)
    grid = sp.joint_spectral_density(
        nbpm, design_point.pump_nm, sgrid, igrid, L_MM, filter_fwhm_nm=1.0
    )
    for axis, lam_ref in (("signal", sgrid), ("idler", igrid)):
        lam, prof = sp.marginal_spectrum(grid, axis)
        assert np.array_equal(lam, lam_ref)
        assert prof.max() == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        sp.marginal_spectrum(grid, "pump")


def test_input_validation(nbpm):
    good_s = _centered_grid(1073.5, 1.0, 0.1)
    good_i = _centered_grid(1079.6, 1.0, 0.1)
    with pytest.raises(ValidationError):
        sp.joint_spectral_density(nbpm, 538.3, good_s[::-1], good_i, L_MM)
    with pytest.raises(ValidationError):
        ragged = np.concatenate([good_s[:5], good_s[6:]])
        sp.joint_spectral_density(nbpm, 538.3, ragged, good_i, L_MM)
    with pytest.raises(ValidationError):
        sp.joint_spectral_density(nbpm, 538.3, good_s, good_i, L_MM, filter_fwhm_nm=-1.0)
    with pytest.raises(ValidationError):
        sp.joint_spectral_density(nbpm, 1200.0, good_s, good_i, L_MM)  # grid below pump
    with pytest.raises(ValidationError):
        sp.joint_spectral_density(
            nbpm, 538.3, good_s, good_i, L_MM, filter_fwhm_nm=1.0, kernel="triangle"
        )
    with pytest.raises(ValidationError):
        sp.phase_matching_intensity(nbpm, 538.3, 1074.0, -8.0)
    with pytest.raises(ValidationError):
        sp.filter_kernel(np.arange(5.0), 0.0)


@pytest.mark.parametrize("kind", ["gaussian", "box"])
@pytest.mark.parametrize("offset", [0.5, -0.2, 0.0, 4.0, np.float64(0.5)])
def test_a_scalar_offset_gives_the_kernel_of_a_one_element_array(kind, offset):
    got = sp.filter_kernel(offset, 1.3, kind)
    want = sp.filter_kernel(np.array([offset]), 1.3, kind)
    assert isinstance(got, np.ndarray) and got.shape == ()
    assert np.array_equal(got.reshape(1), want)
    assert (float(got) > 0.0) == (abs(offset) < 1.0)


@pytest.mark.parametrize("kind", ["gaussian", "box"])
@pytest.mark.parametrize(
    "grid, centres, fwhm",
    [
        # rising centres, support a few columns wide
        (np.linspace(1070.0, 1080.0, 41), np.arange(1065.0, 1085.0, 0.01), 0.7),
        # the falling idler ridge of a rising signal parameter
        (
            np.linspace(1075.0, 1085.0, 33),
            pm.idler_wavelength_nm(538.4, np.arange(1068.0, 1082.0, 0.013)),
            1.1,
        ),
        # support wider than the whole grid: every cell of some rows is inside
        (np.linspace(1074.0, 1075.0, 7), np.arange(1073.0, 1076.0, 0.05), 40.0),
        # grid partly beyond the centres: rows whose support holds no centre
        (np.linspace(1060.0, 1090.0, 31), np.arange(1070.0, 1080.0, 0.02), 0.5),
        # centres exactly on the Gaussian truncation edge 5 sigma, which rounds
        # above 5 fwhm / sqrt(8 ln 2) for this fwhm
        (np.array([0.0]), 5.0 * (1.3 / np.sqrt(8.0 * np.log(2.0))) * np.array([-1.0, 0.0, 1.0]), 1.3),
    ],
)
def test_band_kernel_matches_the_dense_kernel_bit_for_bit(kind, grid, centres, fwhm):
    want = sp.filter_kernel(grid[:, None] - centres[None, :], fwhm, kind)
    got = sp._band_kernel(grid, centres, fwhm, kind)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.count_nonzero(want) > 0
    # a weight per centre, as the ridge integral's, some of it exactly zero
    weight = np.random.default_rng(3).uniform(0.0, 2.0, centres.size)
    weight[::4] = 0.0
    got = sp._band_kernel(grid, centres, fwhm, kind, weight=weight)
    assert got.tobytes() == (want * weight).tobytes()


def _dense_joint_spectral_density(spec, pump_nm, sgrid, igrid, length_mm, fwhm, kernel, period_mm):
    """The unnormalized ridge integral with both kernel matrices evaluated on
    every cell, on the integration grid joint_spectral_density documents."""
    if kernel == "gaussian":
        half_support = sp.GAUSSIAN_TRUNCATION_SIGMAS * fwhm / np.sqrt(8.0 * np.log(2.0))
    else:
        half_support = fwhm / 2.0
    slope = (igrid[-1] / sgrid[0]) ** 2
    pad = half_support * (1.0 + max(slope, 1.0 / slope))
    step = min(sgrid[1] - sgrid[0], igrid[1] - igrid[0], fwhm) / 8
    mu = np.arange(sgrid[0] - pad, sgrid[-1] + pad + step, step)
    mu = mu[mu > pump_nm * (1.0 + 1e-9)]
    inten = sp.phase_matching_intensity(spec, pump_nm, mu, length_mm, period_mm=period_mm)
    ridge_i = pm.idler_wavelength_nm(pump_nm, mu)
    w = np.full(mu.size, step)
    w[0] = w[-1] = step / 2.0
    ker_s = sp.filter_kernel(sgrid[:, None] - mu[None, :], fwhm, kernel)
    ker_i = sp.filter_kernel(igrid[:, None] - ridge_i[None, :], fwhm, kernel)
    return (ker_s * (inten * w)) @ ker_i.T


@pytest.mark.parametrize("temperature_c", [20.0, 40.0, 60.0])
@pytest.mark.parametrize("process, kernel", [("birefringent", "gaussian"), ("grating", "box")])
def test_joint_spectral_density_equals_the_dense_reference(process, kernel, temperature_c):
    period_mm = 2.0
    pump, point = pm.solve_pump_for_period(period_mm, temperature_c)
    if process == "birefringent":
        spec, period = replace(pm.NBPM_PROCESS, temperature_c=temperature_c), None
    else:
        spec, period = replace(pm.QPM_PROCESS, temperature_c=temperature_c), period_mm
    sgrid = np.linspace(point.signal_nm - 6.0, point.signal_nm + 6.0, 61)
    igrid = np.linspace(point.idler_nm - 6.0, point.idler_nm + 6.0, 61)
    want = _dense_joint_spectral_density(spec, pump, sgrid, igrid, L_MM, 1.0, kernel, period)
    got = sp.joint_spectral_density(
        spec, pump, sgrid, igrid, L_MM, filter_fwhm_nm=1.0, period_mm=period,
        kernel=kernel, normalize=False,
    ).values
    assert np.array_equal(got, want)
    assert want.max() > 0.0
