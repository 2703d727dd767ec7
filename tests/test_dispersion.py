"""Refractive-index model checks.

The hand-evaluated oracles below re-type the published coefficient values
directly from the tabulated sources, independent of the JSON data files, so a
transcription error in either place shows up as a mismatch.
"""

import math

import numpy as np
import pytest

from coexpm.dispersion import (
    _check_range,
    _dndt_inverse_lambda_poly,
    available_entries,
    ktp_axes,
    load_dispersion,
    refractive_index,
    wavevector,
)
from coexpm.errors import RangeError, ValidationError


def _ktp_ny_by_hand(lam_um, t_c):
    # two-pole Sellmeier plus an inverse-wavelength cubic thermo-optic term
    n20 = math.sqrt(
        3.45018
        + 0.04341 / (lam_um**2 - 0.04597)
        + 16.98825 / (lam_um**2 - 39.43799)
    )
    dndt = (
        5.425e-06
        + 5.154e-06 / lam_um
        - 4.063e-06 / lam_um**2
        + 1.997e-06 / lam_um**3
    )
    return n20 + dndt * (t_c - 20.0)


def _ktp_nz_by_hand(lam_um, t_c):
    n20 = math.sqrt(
        4.59423
        + 0.06206 / (lam_um**2 - 0.04763)
        + 110.80672 / (lam_um**2 - 86.12171)
    )
    dndt = (
        -1.897e-06
        + 3.6677e-05 / lam_um
        - 2.922e-05 / lam_um**2
        + 9.221e-06 / lam_um**3
    )
    return n20 + dndt * (t_c - 20.0)


def _linbo3_ne_by_hand(lam_um, t_c):
    f = (t_c - 24.5) * (t_c + 570.82)
    return math.sqrt(
        5.35583
        + 4.629e-07 * f
        + (0.100473 + 3.862e-08 * f) / (lam_um**2 - (0.20692 - 0.89e-08 * f) ** 2)
        + (100.0 + 2.657e-05 * f) / (lam_um**2 - 11.34927**2)
        - 0.015334 * lam_um**2
    )


def test_ktp_y_matches_hand_evaluation():
    disp = load_dispersion("ktp", "y")
    for lam in (0.5382, 0.6328, 1.0642, 1.55):
        for t in (20.0, 25.0, 40.0):
            assert refractive_index(disp, lam, t) == pytest.approx(
                _ktp_ny_by_hand(lam, t), abs=1e-12
            )


def test_ktp_z_matches_hand_evaluation():
    disp = load_dispersion("ktp", "z")
    for lam in (0.5382, 1.0642, 1.3):
        for t in (20.0, 25.0, 60.0):
            assert refractive_index(disp, lam, t) == pytest.approx(
                _ktp_nz_by_hand(lam, t), abs=1e-12
            )


def test_linbo3_ne_matches_hand_evaluation():
    disp = load_dispersion("linbo3", "e")
    for lam in (0.6, 1.0642, 1.5):
        for t in (24.5, 25.0, 80.0):
            assert refractive_index(disp, lam, t) == pytest.approx(
                _linbo3_ne_by_hand(lam, t), abs=1e-12
            )


def test_linbo3_thermo_term_vanishes_at_reference():
    # f = (T - 24.5)(T + 570.82) is zero at 24.5 C by construction
    disp = load_dispersion("linbo3", "e")
    n_ref = refractive_index(disp, 1.0642, 24.5)
    bare = math.sqrt(
        5.35583
        + 0.100473 / (1.0642**2 - 0.20692**2)
        + 100.0 / (1.0642**2 - 11.34927**2)
        - 0.015334 * 1.0642**2
    )
    assert n_ref == pytest.approx(bare, abs=1e-13)


def test_thermo_coefficient_matches_finite_difference():
    disp = load_dispersion("ktp", "z")
    lam = 1.0795
    dndt = (
        -1.897e-06
        + 3.6677e-05 / lam
        - 2.922e-05 / lam**2
        + 9.221e-06 / lam**3
    )
    fd = (refractive_index(disp, lam, 25.1) - refractive_index(disp, lam, 25.0)) / 0.1
    # the model is exactly linear in T, so this holds to rounding
    assert fd == pytest.approx(dndt, rel=1e-9)


def test_positive_birefringence_over_working_band():
    ny = load_dispersion("ktp", "y")
    nz = load_dispersion("ktp", "z")
    lam = np.linspace(0.53, 1.6, 300)
    gap = refractive_index(nz, lam, 25.0) - refractive_index(ny, lam, 25.0)
    assert np.all(gap > 0)


def test_index_decreases_with_wavelength_in_transparency_window():
    for axis in ktp_axes():
        disp = load_dispersion("ktp", axis)
        lam = np.linspace(0.6, 1.3, 200)
        n = refractive_index(disp, lam, 25.0)
        assert np.all(np.diff(n) < 0), f"axis {axis} not normally dispersive"


def test_index_magnitude_is_physical():
    for crystal, axis in [("ktp", "y"), ("ktp", "z"), ("linbo3", "e")]:
        disp = load_dispersion(crystal, axis)
        lo, hi = disp.valid_wavelength_um
        lam = np.linspace(lo, hi, 100)
        n = refractive_index(disp, lam, 25.0)
        assert np.all((n > 1.0) & (n < 4.0))


def test_temperature_dependence_is_smooth_and_small():
    disp = load_dispersion("ktp", "y")
    t = np.linspace(20.0, 80.0, 61)
    n = refractive_index(disp, 1.0642, t)
    steps = np.abs(np.diff(n))
    assert np.max(steps) < 1e-4  # < 1e-4 per kelvin


def test_wavevector_definition():
    disp = load_dispersion("ktp", "y")
    lam = 1.0642
    n = refractive_index(disp, lam, 25.0)
    assert wavevector(disp, lam, 25.0) == pytest.approx(2.0 * math.pi * n / lam, rel=1e-14)


def test_array_input_matches_scalar_loop():
    disp = load_dispersion("ktp", "z")
    lam = np.array([0.54, 0.78, 1.064, 1.55])
    vec = refractive_index(disp, lam, 31.0)
    assert vec.shape == lam.shape
    for k, w in enumerate(lam):
        assert vec[k] == refractive_index(disp, float(w), 31.0)


def test_out_of_range_wavelength_names_the_bound():
    disp = load_dispersion("ktp", "y")
    with pytest.raises(RangeError) as err:
        refractive_index(disp, 0.05, 25.0)
    assert str(disp.valid_wavelength_um[0]) in str(err.value)
    with pytest.raises(RangeError):
        refractive_index(disp, 9.0, 25.0)


def test_out_of_range_temperature_rejected():
    disp = load_dispersion("ktp", "y")
    with pytest.raises(RangeError):
        refractive_index(disp, 1.0642, -200.0)


def test_non_finite_wavelength_and_temperature_rejected():
    disp = load_dispersion("ktp", "y")
    with pytest.raises(RangeError):
        refractive_index(disp, float("nan"), 25.0)
    with pytest.raises(RangeError):
        refractive_index(disp, np.array([1.0, float("nan")]), 25.0)
    with pytest.raises(RangeError):
        refractive_index(disp, 1.0642, float("nan"))


def test_range_check_rejects_nan_and_passes_an_empty_array():
    bounds = dict(lo=0.43, hi=3.54, what="wavelength", unit="um")
    _check_range(np.array([]), **bounds)
    _check_range(np.empty((0, 3)), **bounds)
    _check_range([0.43, 1.0, 3.54], **bounds)
    for bad in (float("nan"), [1.0, float("nan")], [float("nan"), 0.1], [9.0, float("nan")]):
        with pytest.raises(RangeError, match=r"^wavelength nan um outside"):
            _check_range(bad, **bounds)
    # below the range the smallest value is named, above it the largest
    with pytest.raises(RangeError, match=r"^wavelength 0\.1 um outside validity range \[0\.43, 3\.54\] um$"):
        _check_range([9.0, 0.1, 1.0], **bounds)
    with pytest.raises(RangeError, match=r"^wavelength 9 um outside"):
        _check_range([1.0, 9.0, 5.0], **bounds)


@pytest.mark.parametrize("call", [refractive_index, wavevector])
@pytest.mark.parametrize(
    "wavelength, temperature, what",
    [
        ("1.0", 25.0, "wavelength"),  # a numeric string is rejected, not parsed
        ([True], 25.0, "wavelength"),  # not a 1 um wavelength
        (np.array(["1.0", "1.1"]), 25.0, "wavelength"),
        ([1.0, None], 25.0, "wavelength"),
        (1j, 25.0, "wavelength"),
        (1.0, "25", "temperature"),
        (1.0, None, "temperature"),
        (1.0, True, "temperature"),
        (1.0, [25.0, "x"], "temperature"),
    ],
)
def test_a_non_numeric_wavelength_or_temperature_is_rejected_by_name(call, wavelength, temperature, what):
    disp = load_dispersion("ktp", "y")
    with pytest.raises(ValidationError, match=f"^{what} must be a real number"):
        call(disp, wavelength, temperature)


def test_integer_wavelengths_and_temperatures_are_numbers():
    _check_range(np.array([1, 2, 3]), lo=0.43, hi=3.54, what="wavelength", unit="um")
    disp = load_dispersion("ktp", "y")
    assert refractive_index(disp, 1, 25) == refractive_index(disp, 1.0, 25.0)


def test_thermo_polynomial_matches_the_zero_started_sum():
    coeffs = load_dispersion("ktp", "z").thermo_coefficients
    for lam in (1.0642, np.array(0.78), np.linspace(0.5, 1.6, 97)):
        inv = 1.0 / np.asarray(lam, dtype=float)
        want = np.zeros_like(inv)
        for k, ck in enumerate(coeffs):
            want = want + ck * inv**k
        got = _dndt_inverse_lambda_poly(coeffs, lam)
        assert np.array_equal(got, want) and np.shape(got) == np.shape(want)


def test_coefficient_table_is_parsed_once_per_process(monkeypatch):
    import coexpm.dispersion

    ktp_axes()
    monkeypatch.setattr(coexpm.dispersion, "resources", None)  # any further read fails
    assert set(ktp_axes()) == {"y", "z"}


def test_unknown_entry_rejected():
    with pytest.raises(ValidationError):
        load_dispersion("ktp", "x")
    with pytest.raises(ValidationError):
        load_dispersion("bbo", "e")


def test_catalog_contents():
    entries = {(c.lower(), a.lower()) for c, a in available_entries()}
    assert ("ktp", "y") in entries
    assert ("ktp", "z") in entries
    assert ("linbo3", "e") in entries
    assert set(ktp_axes()) == {"y", "z"}
    assert load_dispersion("KTP", "Y").axis == "y"  # lookup is case-insensitive
    for disp in (load_dispersion("ktp", "y"), load_dispersion("linbo3", "e")):
        assert disp.citation  # every entry must carry its source
