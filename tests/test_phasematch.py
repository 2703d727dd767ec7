"""Collinear type-II phase-matching solver checks.

Solver outputs are cross-checked against a dense scan of the same mismatch
function (independent bracketing), against hand-built wavevector sums and
against a scalar Brent reference, so the window solver cannot hide a sign or
unit error.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from coexpm import phasematch as pm
from coexpm.dispersion import ktp_axes, wavevector
from coexpm.errors import SolverError, ValidationError


def _hand_delta_k(pump_nm, signal_nm, pump_axis, signal_axis, idler_axis, t_c,
                  period_mm=None, order=0):
    """Wavevector mismatch assembled directly from the dispersion layer."""
    axes = ktp_axes()
    idler_nm = 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)
    dk = (
        wavevector(axes[pump_axis], pump_nm * 1e-3, t_c)
        - wavevector(axes[signal_axis], signal_nm * 1e-3, t_c)
        - wavevector(axes[idler_axis], idler_nm * 1e-3, t_c)
    )
    if period_mm is not None and order:
        dk -= order * 2.0 * math.pi / (period_mm * 1e3)
    return dk


def test_idler_from_energy_conservation():
    # 1/538.4 = 1/1073.7... + 1/idler
    idler = pm.idler_wavelength_nm(538.4, 1073.7)
    assert 1.0 / 538.4 == pytest.approx(1.0 / 1073.7 + 1.0 / idler, rel=1e-15)


def test_delta_k_matches_hand_assembly():
    for pump, signal in [(538.4, 1074.0), (532.0, 1040.0), (538.4, 1079.0)]:
        got = pm.delta_k(pm.NBPM_PROCESS, pump, signal)
        want = _hand_delta_k(pump, signal, "y", "z", "y", 25.0)
        assert got == pytest.approx(want, abs=1e-15)


def test_delta_k_subtracts_grating_vector():
    spec = replace(pm.QPM_PROCESS, temperature_c=25.0)
    bare = pm.delta_k(spec, 538.4, 1074.0)
    with_grating = pm.delta_k(spec, 538.4, 1074.0, period_mm=2.0)
    assert bare - with_grating == pytest.approx(2.0 * math.pi / 2000.0, rel=1e-12)


def test_solution_satisfies_energy_conservation_and_window(nbpm):
    for pump in (532.0, 536.0, 538.4, 539.0):
        pt = pm.solve_nbpm(nbpm, pump)
        assert 1.0 / pt.pump_nm == pytest.approx(
            1.0 / pt.signal_nm + 1.0 / pt.idler_nm, rel=1e-12
        )
        assert 1.5 * pump <= pt.signal_nm <= 2.0 * pump
        assert pt.signal_nm <= pt.idler_nm
        assert abs(pt.residual_rad_per_um) < 1e-10


def test_solver_agrees_with_dense_scan(nbpm):
    # bracket the root by brute force on a 1 pm grid, independent of brentq
    for pump in (532.0, 538.4):
        grid = np.arange(1.5 * pump, 2.0 * pump - 0.5, 0.001)
        mism = pm.delta_k(nbpm, pump, grid)
        sign_flips = np.nonzero(np.diff(np.sign(mism)) != 0)[0]
        assert sign_flips.size >= 1
        lo = grid[sign_flips[0]]
        pt = pm.solve_nbpm(nbpm, pump)
        assert lo <= pt.signal_nm <= lo + 0.001


def test_unpoled_532_splitting_straddles_degeneracy(nbpm):
    pt = pm.solve_nbpm(nbpm, 532.0)
    assert pt.signal_nm < 1064.0 < pt.idler_nm
    assert pt.splitting_nm > 10.0  # tens of nm apart at this pump


def test_infinite_or_missing_period_reduces_qpm_to_nbpm(nbpm):
    # use the birefringent axes (which do have an ungated root) with a
    # first-order spec: no grating term should mean the same solution
    spec1 = replace(nbpm, qpm_order=1)
    a = pm.solve_qpm(spec1, 538.4, None)
    b = pm.solve_qpm(spec1, 538.4, math.inf)
    c = pm.solve_nbpm(nbpm, 538.4)
    assert a.signal_nm == b.signal_nm
    assert a.signal_nm == pytest.approx(c.signal_nm, abs=1e-9)


def test_coexistence_period_and_roundtrip(nbpm, qpm):
    period, pt = pm.solve_coexistence(538.4, 25.0)
    # the grating does for y->y+z what birefringence does for y->z+y
    again = pm.solve_qpm(qpm, 538.4, period)
    assert again.signal_nm == pytest.approx(pt.signal_nm, abs=1e-6)
    assert again.idler_nm == pytest.approx(pt.idler_nm, abs=1e-6)
    # first-order grating exactly cancels the y->y+z mismatch
    dk = pm.delta_k(qpm, 538.4, pt.signal_nm, period_mm=period)
    assert abs(dk) < 1e-12


def test_coexistence_period_near_two_millimetres():
    # the 2 mm design sits a bit below 538.4 nm; at 538.4 nm the required
    # period lands ~16% above (slope is steep, about 2.3 mm/nm here)
    period, _ = pm.solve_coexistence(538.4, 25.0)
    assert 1.6 <= period <= 2.4


def test_design_pump_for_2mm_matches_reported_source(design_point):
    assert design_point.poling_period_mm == pytest.approx(2.0, abs=1e-9)
    assert design_point.pump_nm == pytest.approx(538.4, abs=1.5)
    assert design_point.signal_nm == pytest.approx(1073.7, abs=1.5)
    assert design_point.idler_nm == pytest.approx(1079.8, abs=1.5)


def test_design_point_frozen_value(design_point):
    # regression pin for the exact solver output (Kato-Takaoka indices, 25 C)
    assert design_point.pump_nm == pytest.approx(538.2789544893568, abs=1e-6)
    assert design_point.signal_nm == pytest.approx(1073.5073752214796, abs=1e-6)
    assert design_point.idler_nm == pytest.approx(1079.625829249525, abs=1e-6)


def test_degenerate_cutoff_bounds_solvable_pumps(nbpm):
    cutoff = pm.degeneracy_pump_nm(25.0)
    assert 538.0 < cutoff < 540.0
    below = pm.solve_nbpm(nbpm, cutoff - 0.05)
    assert below.splitting_nm > 0.0
    with pytest.raises(SolverError) as err:
        pm.solve_nbpm(nbpm, cutoff + 0.2)
    assert "bracket" in str(err.value).lower() or "sign" in str(err.value).lower()


def test_splitting_narrows_towards_cutoff(nbpm):
    cutoff = pm.degeneracy_pump_nm(25.0)
    pumps = np.linspace(532.0, cutoff - 0.01, 12)
    splits = [pm.solve_nbpm(nbpm, p).splitting_nm for p in pumps]
    assert all(a > b for a, b in zip(splits, splits[1:]))


def test_period_sweep_skips_unsolvable_pumps():
    cutoff = pm.degeneracy_pump_nm(25.0)
    grid = np.arange(530.0, 545.0 + 1e-9, 0.5)
    rows = pm.period_sweep(grid, temperature_c=25.0)
    pumps = [pump for pump, _, _ in rows]
    assert pumps == [p for p in grid if p < cutoff]
    periods = [period for _, period, _ in rows]
    assert all(a < b for a, b in zip(periods, periods[1:]))  # monotone growth


@pytest.mark.parametrize("t_c", [20.0, 25.0, 60.0])
def test_period_sweep_signals_match_a_brent_reference(t_c):
    # the vectorized window solve against scalar Brent, pump by pump, over
    # the default design grid (530-545 nm by 0.5 nm)
    nb = replace(pm.NBPM_PROCESS, temperature_c=t_c)
    grid = np.arange(530.0, 545.0 + 1e-9, 0.5)
    reference = {}
    for pump in grid:
        lo, hi = 1.5 * pump, 2.0 * pump * (1.0 - 1e-12)
        f_lo, f_hi = pm.delta_k(nb, pump, np.array([lo, hi]))
        if np.sign(f_lo) != np.sign(f_hi):
            reference[pump] = brentq(
                lambda s: pm.delta_k(nb, pump, s), lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200
            )
    rows = pm.period_sweep(grid, temperature_c=t_c)
    assert [pump for pump, _, _ in rows] == list(reference)
    for pump, _, pt in rows:
        assert abs(pt.signal_nm - reference[pump]) <= 1e-10
        assert abs(pm.delta_k(nb, pump, pt.signal_nm)) <= 1e-12


def test_window_solve_raises_rather_than_return_an_unconverged_root(nbpm, monkeypatch):
    monkeypatch.setattr(pm, "_SIGNAL_MAXITER", 3)
    with pytest.raises(SolverError, match="did not converge"):
        pm.solve_nbpm(nbpm, 538.4)
    with pytest.raises(SolverError, match="did not converge"):
        pm.period_sweep([532.0, 538.4])


def test_swapping_signal_and_idler_axes_relabels_the_pair(nbpm):
    # mismatch of the relabeled process at the conjugate wavelength is the
    # same number: k_p - k_z(s) - k_y(i) no matter which photon is "signal"
    for sig in (1020.0, 1039.5, 1055.0):
        conj = pm.idler_wavelength_nm(532.0, sig)
        assert pm.delta_k(nbpm, 532.0, sig) == pytest.approx(
            pm.delta_k(nbpm.swapped(), 532.0, conj), rel=1e-12
        )


def test_pump_for_period_moves_up_with_temperature():
    cold_pump, _ = pm.solve_pump_for_period(2.0, temperature_c=25.0)
    warm_pump, _ = pm.solve_pump_for_period(2.0, temperature_c=25.8)
    assert warm_pump > cold_pump
    assert warm_pump - cold_pump < 0.1  # gentle thermal slope


@pytest.mark.parametrize("period_mm", [0.5, 2.0, 10.0, 100.0, 1000.0, 1e4])
def test_pump_for_period_is_well_conditioned_up_to_the_cutoff(monkeypatch, period_mm):
    # the period diverges at the degeneracy cutoff: a search on the period
    # itself spent up to 28 window solves here, the one on 1/period a few
    pumps = []
    solve = pm.solve_coexistence

    def counted(pump_nm, temperature_c=25.0):
        pumps.append(pump_nm)
        return solve(pump_nm, temperature_c)

    monkeypatch.setattr(pm, "solve_coexistence", counted)
    pump, point = pm.solve_pump_for_period(period_mm, 25.0)
    assert len(pumps) <= 8 and len(set(pumps)) == len(pumps)
    monkeypatch.undo()
    # the root of the period form, to a tolerance far inside the solver's
    cutoff = pm.degeneracy_pump_nm(25.0, bracket_nm=(530.0, 605.0))
    want = brentq(lambda p: pm.solve_coexistence(p, 25.0)[0] - period_mm, 530.0, cutoff - 1e-6, xtol=1e-12, maxiter=200)
    assert abs(pump - want) <= 1e-9
    assert point == pm.solve_coexistence(pump, 25.0)[1]


def test_process_spec_accepts_polarization_aliases():
    spec = pm.ProcessSpec(pump_axis="H", signal_axis="V", idler_axis="H")
    assert (spec.pump_axis, spec.signal_axis, spec.idler_axis) == ("y", "z", "y")


@pytest.mark.parametrize("label", ["e", "E", "x"])
def test_axes_other_than_the_ktp_y_and_z_are_rejected(label):
    with pytest.raises(ValidationError, match="unknown polarization axis"):
        pm.ProcessSpec("y", label, "y")


def test_validation_rejects_nonsense():
    with pytest.raises(ValidationError):
        pm.ProcessSpec(pump_axis="q", signal_axis="y", idler_axis="z")
    with pytest.raises(ValidationError):
        pm.delta_k(pm.NBPM_PROCESS, -5.0, 1074.0)
    with pytest.raises(ValidationError):
        pm.delta_k(pm.NBPM_PROCESS, 538.4, 500.0)  # signal below the pump
    with pytest.raises(ValidationError):
        pm.solve_qpm(pm.QPM_PROCESS, 538.4, -2.0)
    with pytest.raises(ValidationError):
        pm.solve_pump_for_period(float("nan"))
