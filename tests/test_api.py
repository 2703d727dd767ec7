"""The public surface and its argument rules.

Every name a module exports resolves, and the set of exported names and
the parameter names of each exported callable are pinned, so a change to
the surface is deliberate. Every integer argument of
the library, seeds included, takes an int or a numpy integer and nothing
else: a bool, a float (even an integral one), NaN, an infinity or an int
past the float range is a ValidationError, never a truncation, a raw numpy
error or a hang. Every real argument of the library takes a finite int,
float or numpy number within its bounds: a string (even a numeric one),
None, a bool, a non-finite or an out-of-bounds value is a ValidationError
that names the argument. Every array argument takes an ndarray of integer
or float dtype, or numbers and nested lists or tuples of them checked entry
by entry by the real-number rule, and then its values, an ndarray's too, by
the argument's bounds: a bad entry or value, a ragged nesting or a wrong
number of dimensions is a ValidationError that names the argument. The
state inputs take complex numbers by the same rule, both parts finite. A
parameter annotated float must be one of those rows or a listed exemption.
"""

import importlib
import inspect
import math

import numpy as np
import pytest

from coexpm import biphoton, countstats, dispersion, io, poling
from coexpm import phasematch as pm
from coexpm import spectrum as sp
from coexpm.biphoton import (
    AnalyzerSetting, DensityMatrix4, PolarizationState, bell_psi_plus, entanglement_vs_fabrication,
)
from coexpm.errors import ValidationError
from coexpm.phasematch import NBPM_PROCESS, QPM_PROCESS, ProcessSpec
from coexpm.util import _check_array, spawn_rng

PUBLIC = {
    "coexpm": {"__version__"},
    "coexpm.errors": {"CoexpmError", "ConfigError", "FitError", "RangeError", "SolverError", "ValidationError"},
    "coexpm.util": {"fwhm_of_profile", "sinc", "spawn_rng"},
    "coexpm.dispersion": {
        "CrystalDispersion", "available_entries", "ktp_axes", "load_dispersion", "refractive_index", "wavevector",
    },
    "coexpm.phasematch": {
        "NBPM_PROCESS", "PhaseMatchPoint", "ProcessSpec", "QPM_PROCESS", "degeneracy_pump_nm", "delta_k",
        "period_sweep", "solve_coexistence", "solve_nbpm", "solve_pump_for_period", "solve_qpm",
    },
    "coexpm.poling": {
        "PolingStructure", "conversion_efficiency", "efficiency_penalty", "efficiency_ratio", "efficiency_samples",
        "fourier_coefficient", "monte_carlo_efficiency", "nominal_boundaries_um", "realize_structure",
        "solve_balanced_duty_cycle",
    },
    "coexpm.spectrum": {
        "GAUSSIAN_TRUNCATION_SIGMAS", "SpectralGrid", "filter_kernel", "joint_spectral_density",
        "marginal_fwhm_nm", "marginal_spectrum", "peak_location", "phase_matching_intensity",
    },
    "coexpm.biphoton": {
        "AnalyzerSetting", "CANONICAL_CHSH_ANGLES", "DensityMatrix4", "PolarizationState", "SINGLE_KETS",
        "TomographyResult", "as_density_matrix", "bell_psi_plus", "chsh_s", "coincidence_probability",
        "concurrence", "correlation", "entanglement_vs_fabrication", "fidelity", "purity", "reconstruct_state",
        "simulate_tomography_counts", "state_from_efficiencies", "tomography_settings", "werner_state",
    },
    "coexpm.countstats": {
        "CountRecord", "HeraldedRecord", "VisibilityFit", "accidental_rate", "alpha_2d", "alpha_3d",
        "apply_dead_time", "brightness", "correct_dead_time", "fit_visibility", "simulate_counts",
        "simulate_heralded", "simulate_pair_stream", "subtract_accidentals",
    },
    "coexpm.io": {
        "config_digest", "density_matrix_from_dict", "density_matrix_to_dict", "format_float",
        "read_tomography_counts", "write_csv", "write_json", "write_tomography_counts",
    },
    "coexpm.cli": {"DEFAULT_CONFIG", "main", "run"},
}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_public_name_resolves_and_the_surface_is_pinned(name):
    # a stale __all__ entry would crash anything that walks the surface with getattr
    module = importlib.import_module(name)
    for attr in module.__all__:
        getattr(module, attr)
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == PUBLIC[name]


# The parameter names, in order, of every public callable but the error
# classes, so a parameter cannot come or go without a change here.
SIGNATURES = {
    "coexpm.util": {"fwhm_of_profile": "x y", "sinc": "x", "spawn_rng": "seed key"},
    "coexpm.dispersion": {
        "CrystalDispersion": "crystal axis form coefficients thermo_form thermo_coefficients reference_temperature_c "
        "valid_wavelength_um valid_temperature_c citation",
        "available_entries": "",
        "ktp_axes": "",
        "load_dispersion": "crystal axis",
        "refractive_index": "disp wavelength_um temperature_c",
        "wavevector": "disp wavelength_um temperature_c",
    },
    "coexpm.phasematch": {
        "PhaseMatchPoint": "pump_nm signal_nm idler_nm temperature_c qpm_order poling_period_mm residual_rad_per_um "
        "near_degenerate",
        "ProcessSpec": "pump_axis signal_axis idler_axis qpm_order temperature_c",
        "degeneracy_pump_nm": "temperature_c bracket_nm",
        "delta_k": "spec pump_nm signal_nm period_mm",
        "period_sweep": "pump_nm_grid temperature_c",
        "solve_coexistence": "pump_nm temperature_c",
        "solve_nbpm": "spec pump_nm",
        "solve_pump_for_period": "period_mm temperature_c pump_bracket_nm",
        "solve_qpm": "spec pump_nm period_mm",
    },
    "coexpm.poling": {
        "PolingStructure": "period_mm duty_cycle num_domains boundary_nominal_um boundary_error_um",
        "conversion_efficiency": "structure delta_k_rad_per_um detuning_rad_per_um",
        "efficiency_penalty": "duty_cycle",
        "efficiency_ratio": "duty_cycle order",
        "efficiency_samples": "period_mm duty_cycle num_domains sigma_z_grid_um samples seed qpm_order reorder",
        "fourier_coefficient": "duty_cycle order",
        "monte_carlo_efficiency": "period_mm duty_cycle num_domains sigma_z_grid_um samples seed qpm_order reorder",
        "nominal_boundaries_um": "period_mm duty_cycle num_domains",
        "realize_structure": "period_mm duty_cycle num_domains sigma_z_um seed reorder",
        "solve_balanced_duty_cycle": "order",
    },
    "coexpm.spectrum": {
        "SpectralGrid": "signal_nm idler_nm values",
        "filter_kernel": "offsets_nm fwhm_nm kind",
        "joint_spectral_density": "spec pump_nm signal_grid_nm idler_grid_nm length_mm filter_fwhm_nm period_mm "
        "kernel ridge_oversample normalize",
        "marginal_fwhm_nm": "grid axis",
        "marginal_spectrum": "grid axis",
        "peak_location": "grid",
        "phase_matching_intensity": "spec pump_nm signal_nm length_mm period_mm",
    },
    "coexpm.biphoton": {
        "AnalyzerSetting": "theta_signal_deg theta_idler_deg",
        "DensityMatrix4": "matrix",
        "PolarizationState": "amplitudes",
        "TomographyResult": "rho method neg_log_likelihood flux iterations converged linear_inversion_nll",
        "as_density_matrix": "state",
        "bell_psi_plus": "",
        "chsh_s": "state angles_deg",
        "coincidence_probability": "state setting",
        "concurrence": "state",
        "correlation": "state theta_signal_deg theta_idler_deg",
        "entanglement_vs_fabrication": "period_mm duty_cycle num_domains sigma_z_grid_um samples seed "
        "relative_phase_rad reorder qpm_order",
        "fidelity": "state target",
        "purity": "state",
        "reconstruct_state": "records subtract_accidentals",
        "simulate_tomography_counts": "state pair_rate_hz integration_time_s seed accidental_rate_hz poisson settings",
        "state_from_efficiencies": "r_birefringent r_grating relative_phase_rad",
        "tomography_settings": "",
        "werner_state": "p pure",
    },
    "coexpm.countstats": {
        "CountRecord": "counts_signal counts_idler coincidences duration_s",
        "HeraldedRecord": "counts_herald counts_herald_t1 counts_herald_t2 counts_triple duration_s",
        "VisibilityFit": "visibility visibility_se mean_rate phase_deg",
        "accidental_rate": "rate_signal rate_idler tau_c_s",
        "alpha_2d": "record tau_c_s",
        "alpha_3d": "record",
        "apply_dead_time": "true_rate dead_time_s",
        "brightness": "record pump_mw",
        "correct_dead_time": "measured_rate dead_time_s",
        "fit_visibility": "theta_deg rates",
        "simulate_counts": "state settings pair_rate_hz integration_time_s seed singles_rate_s_hz singles_rate_i_hz "
        "tau_c_s poisson",
        "simulate_heralded": "pair_rate_hz duration_s tau_c_s seed eta_herald eta_target",
        "simulate_pair_stream": "pair_rate_hz duration_s tau_c_s seed eta_signal eta_idler background_rate_s_hz "
        "background_rate_i_hz",
        "subtract_accidentals": "record tau_c_s",
    },
    "coexpm.io": {
        "config_digest": "config",
        "density_matrix_from_dict": "payload",
        "density_matrix_to_dict": "rho",
        "format_float": "x",
        "read_tomography_counts": "path",
        "write_csv": "path header rows",
        "write_json": "path payload",
        "write_tomography_counts": "path records",
    },
    "coexpm.cli": {"main": "argv", "run": "argv"},
}


def _public_callables(module):
    """(name, object) of each callable in module.__all__ but the error classes,
    which have no signature to read."""
    for attr in module.__all__:
        obj = getattr(module, attr)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            yield attr, obj


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_public_signature_is_pinned(name):
    module = importlib.import_module(name)
    got = {attr: " ".join(inspect.signature(obj).parameters) for attr, obj in _public_callables(module)}
    assert got == SIGNATURES.get(name, {})


def _samples(period_mm=2.0, duty_cycle=0.735, num_domains=8, samples=16, seed=0, qpm_order=1, **kwargs):
    return poling.efficiency_samples(
        period_mm, duty_cycle, num_domains, [0.0, 400.0], samples, seed, qpm_order=qpm_order, **kwargs
    )


def _structure(period_mm=2.0, duty_cycle=0.735, num_domains=8, sigma_z_um=400.0, **kwargs):
    return poling.realize_structure(period_mm, duty_cycle, num_domains, sigma_z_um, **kwargs).boundary_um


_SETTING = [AnalyzerSetting(0.0, 90.0)]
# (call taking the integer, a valid value, lower bound or None, upper bound or None)
INTEGER_ARGUMENTS = {
    "fourier_coefficient.order": (lambda v: poling.fourier_coefficient(0.7, v), -3, None, None),
    "efficiency_ratio.order": (lambda v: poling.efficiency_ratio(0.7, v), 3, None, None),
    "solve_balanced_duty_cycle.order": (poling.solve_balanced_duty_cycle, 1, 1, None),
    "nominal_boundaries_um.num_domains": (lambda v: poling.nominal_boundaries_um(2.0, 0.7, v), 8, 2, None),
    "realize_structure.num_domains": (lambda v: _structure(num_domains=v), 8, 2, None),
    "efficiency_samples.num_domains": (lambda v: _samples(num_domains=v), 8, 2, None),
    "efficiency_samples.samples": (lambda v: _samples(samples=v), 50, 1, None),
    "efficiency_samples.qpm_order": (lambda v: _samples(qpm_order=v), 3, 0, None),
    "efficiency_samples.seed": (lambda v: _samples(seed=v), 7, 0, None),
    "ProcessSpec.qpm_order": (lambda v: ProcessSpec(qpm_order=v).qpm_order, 1, 0, None),
    "joint_spectral_density.ridge_oversample": (
        lambda v: sp.joint_spectral_density(
            NBPM_PROCESS, 538.4, np.linspace(800.0, 820.0, 5), np.linspace(1600.0, 1700.0, 5), 8.0,
            filter_fwhm_nm=2.0, ridge_oversample=v,
        ).values,
        4, 1, None,
    ),
    "simulate_counts.seed": (lambda v: countstats.simulate_counts(bell_psi_plus(), _SETTING, 1e3, 1.0, v), 7, 0, None),
    "simulate_pair_stream.seed": (lambda v: countstats.simulate_pair_stream(1e5, 1e-3, 1e-9, v), 7, 0, None),
    "spawn_rng.seed": (lambda v: spawn_rng(v).random(2), 7, 0, None),
    "spawn_rng.key": (lambda v: spawn_rng(7, 1, v).random(2), 3, 0, None),
}


def _bad_values(valid, lo, hi):
    """What no integer argument takes, then what breaks this one's bounds."""
    # past the float range: one bound for every integer argument, seeds included
    bad = [math.nan, math.inf, -math.inf, 2.5, True, np.True_, float(valid), 10**400, -(10**400)]
    if lo is not None:
        bad.append(lo - 1)
    if hi is not None:
        bad += [hi + 1, 2**70]
    return bad


INTEGER_CASES = [
    pytest.param(name, value, id=f"{name}={value!r}")
    for name, (_, valid, lo, hi) in INTEGER_ARGUMENTS.items()
    for value in _bad_values(valid, lo, hi)
]


@pytest.mark.parametrize("name, value", INTEGER_CASES)
def test_integer_arguments_take_only_integers(name, value):
    call = INTEGER_ARGUMENTS[name][0]
    with pytest.raises(ValidationError, match=name.split(".")[1]):
        call(value)


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_a_numpy_integer_is_the_same_integer(name):
    call, valid, _, _ = INTEGER_ARGUMENTS[name]
    np.testing.assert_equal(call(np.int64(valid)), call(valid))


def test_process_spec_stores_its_order_as_an_int():
    assert type(ProcessSpec(qpm_order=np.int64(1)).qpm_order) is int


_STRUCTURE = poling.realize_structure(2.0, 0.735, 8, 10.0)
_BELL = bell_psi_plus()
_RECORD = countstats.CountRecord(21800.0, 26800.0, 439.0, 1.0)


def _mc(period_mm=2.0, duty_cycle=0.735, **kwargs):
    rows = poling.monte_carlo_efficiency(period_mm, duty_cycle, 8, [0.0, 400.0], samples=16, **kwargs)
    return [r["mean_eta"] for r in rows]


def _entangled(period_mm=2.0, duty_cycle=0.7, **kwargs):
    return [r["mean_fidelity"] for r in entanglement_vs_fabrication(period_mm, duty_cycle, 8, [1.0], 3, **kwargs)]


def _jsd(pump_nm=538.4, length_mm=8.0, **kwargs):
    grid = np.linspace(1070.0, 1078.0, 5), np.linspace(1076.0, 1084.0, 5)
    return sp.joint_spectral_density(NBPM_PROCESS, pump_nm, *grid, length_mm, **kwargs).values


def _tomography(pair_rate_hz=439.0, integration_time_s=10.0, **kwargs):
    counts = biphoton.simulate_tomography_counts(_BELL, pair_rate_hz, integration_time_s, seed=1, **kwargs)
    return [r["coincidences"] for r in counts]


def _fringe(pair_rate_hz=439.0, integration_time_s=10.0, **kwargs):
    [record] = countstats.simulate_counts(_BELL, _SETTING, pair_rate_hz, integration_time_s, seed=1, **kwargs)
    return record.coincidences


def _stream(pair_rate_hz=1e5, duration_s=1e-3, tau_c_s=1e-9, **kwargs):
    return countstats.simulate_pair_stream(pair_rate_hz, duration_s, tau_c_s, 7, **kwargs)


def _heralded(pair_rate_hz=1e5, duration_s=1e-2, tau_c_s=1e-9, **kwargs):
    return countstats.simulate_heralded(pair_rate_hz, duration_s, tau_c_s, 7, **kwargs)


# (call taking the real number, a valid value, finite values outside its bounds)
REAL_ARGUMENTS = {
    # poling
    "fourier_coefficient.duty_cycle": (lambda v: poling.fourier_coefficient(v, 1), 0.7, (0.0, 1.0)),
    "efficiency_ratio.duty_cycle": (lambda v: poling.efficiency_ratio(v, 1), 0.7, (-0.5, 1.5)),
    # a duty cycle so small that the penalty 1/sin^2(pi D) overflows
    "efficiency_penalty.duty_cycle": (poling.efficiency_penalty, 0.7, (0.0, 1.0, 1e-200)),
    # a period so long that the last wall is beyond the float range
    "nominal_boundaries_um.period_mm": (lambda v: poling.nominal_boundaries_um(v, 0.7, 8), 2.0, (0.0, -2.0, 1e308)),
    "nominal_boundaries_um.duty_cycle": (lambda v: poling.nominal_boundaries_um(2.0, v, 8), 0.7, (0.0, 1.0)),
    "realize_structure.period_mm": (lambda v: _structure(period_mm=v), 2.0, (0.0, 1e308)),
    "realize_structure.duty_cycle": (lambda v: _structure(duty_cycle=v), 0.735, (0.0, 1.0)),
    "realize_structure.sigma_z_um": (lambda v: _structure(sigma_z_um=v), 400.0, (-1.0,)),
    "efficiency_samples.period_mm": (lambda v: _samples(period_mm=v), 2.0, (0.0, 1e308)),
    "efficiency_samples.duty_cycle": (lambda v: _samples(duty_cycle=v), 0.735, (0.0, 1.0)),
    "monte_carlo_efficiency.period_mm": (lambda v: _mc(period_mm=v), 2.0, (0.0, 1e308)),
    "monte_carlo_efficiency.duty_cycle": (lambda v: _mc(duty_cycle=v), 0.735, (0.0, 1.0)),
    "conversion_efficiency.delta_k_rad_per_um": (lambda v: poling.conversion_efficiency(_STRUCTURE, v), 3e-3, ()),
    "conversion_efficiency.detuning_rad_per_um": (
        lambda v: poling.conversion_efficiency(_STRUCTURE, 3e-3, v), 1e-4, (),
    ),
    # phasematch
    "ProcessSpec.temperature_c": (lambda v: ProcessSpec(temperature_c=v).temperature_c, 25.0, ()),
    "delta_k.period_mm": (lambda v: pm.delta_k(QPM_PROCESS, 538.4, 1074.0, v), 2.0, (0.0, -2.0)),
    "solve_nbpm.pump_nm": (lambda v: pm.solve_nbpm(NBPM_PROCESS, v).signal_nm, 538.4, (0.0, -538.4)),
    "solve_qpm.pump_nm": (lambda v: pm.solve_qpm(QPM_PROCESS, v, 2.0).signal_nm, 538.4, (0.0,)),
    "solve_qpm.period_mm": (lambda v: pm.solve_qpm(QPM_PROCESS, 538.4, v).signal_nm, 2.0, (0.0, -2.0)),
    "solve_coexistence.pump_nm": (lambda v: pm.solve_coexistence(v)[0], 538.4, (0.0,)),
    "solve_coexistence.temperature_c": (lambda v: pm.solve_coexistence(538.4, v)[0], 30.0, ()),
    "solve_pump_for_period.period_mm": (lambda v: pm.solve_pump_for_period(v)[0], 2.0, (0.0, -2.0)),
    "solve_pump_for_period.temperature_c": (lambda v: pm.solve_pump_for_period(2.0, v)[0], 30.0, ()),
    "solve_pump_for_period.pump_bracket_nm": (
        lambda v: pm.solve_pump_for_period(2.0, pump_bracket_nm=(v, 545.0))[0], 530.0, (0.0, -530.0),
    ),
    "degeneracy_pump_nm.temperature_c": (pm.degeneracy_pump_nm, 30.0, ()),
    "degeneracy_pump_nm.bracket_nm": (lambda v: pm.degeneracy_pump_nm(bracket_nm=(v, 600.0)), 500.0, (0.0,)),
    "period_sweep.temperature_c": (lambda v: [row[:2] for row in pm.period_sweep([536.0, 538.0], v)], 30.0, ()),
    # spectrum
    "phase_matching_intensity.pump_nm": (
        lambda v: sp.phase_matching_intensity(NBPM_PROCESS, v, 1074.0, 8.0), 538.4, (0.0,),
    ),
    "phase_matching_intensity.length_mm": (
        lambda v: sp.phase_matching_intensity(NBPM_PROCESS, 538.4, 1074.0, v), 8.0, (0.0, -8.0),
    ),
    "phase_matching_intensity.period_mm": (
        lambda v: sp.phase_matching_intensity(QPM_PROCESS, 538.4, 1074.0, 8.0, v), 2.0, (0.0,),
    ),
    "filter_kernel.fwhm_nm": (lambda v: sp.filter_kernel([0.0, 0.5], v), 1.0, (0.0, -1.0)),
    "joint_spectral_density.pump_nm": (lambda v: _jsd(pump_nm=v), 538.4, (0.0,)),
    "joint_spectral_density.length_mm": (lambda v: _jsd(length_mm=v), 8.0, (0.0,)),
    "joint_spectral_density.filter_fwhm_nm": (lambda v: _jsd(filter_fwhm_nm=v), 2.0, (-2.0,)),
    "joint_spectral_density.period_mm": (lambda v: _jsd(period_mm=v), 2.0, (0.0,)),
    # biphoton
    "AnalyzerSetting.theta_signal_deg": (lambda v: AnalyzerSetting(v, 90.0).ket(), 30.0, ()),
    "AnalyzerSetting.theta_idler_deg": (lambda v: AnalyzerSetting(0.0, v).ket(), 30.0, ()),
    "state_from_efficiencies.r_birefringent": (
        lambda v: biphoton.state_from_efficiencies(v, 1.0).amplitudes, 0.5, (-1.0,),
    ),
    "state_from_efficiencies.r_grating": (lambda v: biphoton.state_from_efficiencies(1.0, v).amplitudes, 0.5, (-1.0,)),
    "state_from_efficiencies.relative_phase_rad": (
        lambda v: biphoton.state_from_efficiencies(1.0, 1.0, v).amplitudes, 0.3, (),
    ),
    "werner_state.p": (lambda v: biphoton.werner_state(v).matrix, 0.5, (-0.1, 1.1)),
    "correlation.theta_signal_deg": (lambda v: biphoton.correlation(_BELL, v, 30.0), 10.0, ()),
    "correlation.theta_idler_deg": (lambda v: biphoton.correlation(_BELL, 10.0, v), 30.0, ()),
    "simulate_tomography_counts.pair_rate_hz": (lambda v: _tomography(pair_rate_hz=v), 439.0, (-1.0,)),
    "simulate_tomography_counts.integration_time_s": (lambda v: _tomography(integration_time_s=v), 10.0, (0.0,)),
    "simulate_tomography_counts.accidental_rate_hz": (lambda v: _tomography(accidental_rate_hz=v), 5.0, (-1.0,)),
    "entanglement_vs_fabrication.period_mm": (lambda v: _entangled(period_mm=v), 2.0, (0.0, 1e308)),
    "entanglement_vs_fabrication.duty_cycle": (lambda v: _entangled(duty_cycle=v), 0.7, (0.0, 1.0)),
    "entanglement_vs_fabrication.relative_phase_rad": (lambda v: _entangled(relative_phase_rad=v), 0.3, ()),
    # countstats
    "CountRecord.counts_signal": (lambda v: countstats.CountRecord(v, 5.0, 1.0, 2.0).rate_signal, 10.0, (-1.0,)),
    "CountRecord.counts_idler": (lambda v: countstats.CountRecord(10.0, v, 1.0, 2.0).rate_idler, 5.0, (-1.0,)),
    "CountRecord.coincidences": (
        lambda v: countstats.CountRecord(10.0, 5.0, v, 2.0).rate_coincidence, 1.0, (-1.0,),
    ),
    "CountRecord.duration_s": (lambda v: countstats.CountRecord(10.0, 5.0, 1.0, v).rate_signal, 2.0, (0.0,)),
    "HeraldedRecord.counts_herald": (lambda v: countstats.HeraldedRecord(v, 5.0, 5.0, 1.0, 2.0), 10.0, (-1.0,)),
    "HeraldedRecord.counts_herald_t1": (lambda v: countstats.HeraldedRecord(10.0, v, 5.0, 1.0, 2.0), 5.0, (-1.0,)),
    "HeraldedRecord.counts_herald_t2": (lambda v: countstats.HeraldedRecord(10.0, 5.0, v, 1.0, 2.0), 5.0, (-1.0,)),
    "HeraldedRecord.counts_triple": (lambda v: countstats.HeraldedRecord(10.0, 5.0, 5.0, v, 2.0), 1.0, (-1.0,)),
    "HeraldedRecord.duration_s": (lambda v: countstats.HeraldedRecord(10.0, 5.0, 5.0, 1.0, v), 2.0, (0.0,)),
    "accidental_rate.rate_signal": (lambda v: countstats.accidental_rate(v, 2e4, 1e-9), 2e4, (-1.0,)),
    "accidental_rate.rate_idler": (lambda v: countstats.accidental_rate(2e4, v, 1e-9), 2e4, (-1.0,)),
    "accidental_rate.tau_c_s": (lambda v: countstats.accidental_rate(2e4, 2e4, v), 1e-9, (0.0,)),
    "alpha_2d.tau_c_s": (lambda v: countstats.alpha_2d(_RECORD, v), 1e-9, (0.0,)),
    "brightness.pump_mw": (lambda v: countstats.brightness(_RECORD, v), 2.0, (0.0,)),
    "subtract_accidentals.tau_c_s": (lambda v: countstats.subtract_accidentals(_RECORD, v).coincidences, 1e-9, (0.0,)),
    "apply_dead_time.true_rate": (lambda v: countstats.apply_dead_time(v, 5e-8), 2e4, (-1.0,)),
    "apply_dead_time.dead_time_s": (lambda v: countstats.apply_dead_time(2e4, v), 5e-8, (-1.0,)),
    "correct_dead_time.measured_rate": (lambda v: countstats.correct_dead_time(v, 5e-8), 2e4, (-1.0,)),
    "correct_dead_time.dead_time_s": (lambda v: countstats.correct_dead_time(2e4, v), 5e-8, (-1.0,)),
    "simulate_counts.pair_rate_hz": (lambda v: _fringe(pair_rate_hz=v), 439.0, (-1.0,)),
    "simulate_counts.integration_time_s": (lambda v: _fringe(integration_time_s=v), 10.0, (0.0,)),
    "simulate_counts.singles_rate_s_hz": (lambda v: _fringe(singles_rate_s_hz=v), 2e4, (-1.0,)),
    "simulate_counts.singles_rate_i_hz": (lambda v: _fringe(singles_rate_i_hz=v), 2e4, (-1.0,)),
    "simulate_counts.tau_c_s": (lambda v: _fringe(singles_rate_s_hz=2e4, tau_c_s=v), 1e-9, (0.0,)),
    "simulate_pair_stream.pair_rate_hz": (lambda v: _stream(pair_rate_hz=v), 1e5, (-1.0,)),
    "simulate_pair_stream.duration_s": (lambda v: _stream(duration_s=v), 1e-3, (0.0,)),
    "simulate_pair_stream.tau_c_s": (lambda v: _stream(tau_c_s=v), 1e-9, (0.0,)),
    "simulate_pair_stream.eta_signal": (lambda v: _stream(eta_signal=v), 0.5, (-0.1, 1.1)),
    "simulate_pair_stream.eta_idler": (lambda v: _stream(eta_idler=v), 0.5, (-0.1, 1.1)),
    "simulate_pair_stream.background_rate_s_hz": (lambda v: _stream(background_rate_s_hz=v), 1e4, (-1.0,)),
    "simulate_pair_stream.background_rate_i_hz": (lambda v: _stream(background_rate_i_hz=v), 1e4, (-1.0,)),
    "simulate_heralded.pair_rate_hz": (lambda v: _heralded(pair_rate_hz=v), 1e5, (-1.0,)),
    "simulate_heralded.duration_s": (lambda v: _heralded(duration_s=v), 1e-2, (0.0,)),
    "simulate_heralded.tau_c_s": (lambda v: _heralded(tau_c_s=v), 1e-9, (0.0,)),
    "simulate_heralded.eta_herald": (lambda v: _heralded(eta_herald=v), 0.5, (0.0, 1.1)),
    "simulate_heralded.eta_target": (lambda v: _heralded(eta_target=v), 0.5, (0.0, 1.1)),
}

# Arguments whose None, or +inf, is a documented value and not a bad one:
# no grating, no pump power to divide by, or the default Bell state.
SPECIAL_VALUES = {
    "delta_k.period_mm": (None,),
    "solve_qpm.period_mm": (None, math.inf),
    "phase_matching_intensity.period_mm": (None,),
    "joint_spectral_density.period_mm": (None,),
    "brightness.pump_mw": (None,),
    "werner_state.pure": (None,),
}


def _not_special(name, bad):
    """bad without the values that name documents (SPECIAL_VALUES)."""
    return [v for v in bad if not any(v is s for s in SPECIAL_VALUES.get(name, ()))]


def _bad_reals(name, valid, outside):
    """What no real argument takes, then what breaks this one's bounds."""
    # a numeric string is rejected, not parsed
    bad = ["a", str(valid), None, True, np.True_, 1j, [valid], math.nan, math.inf, -math.inf, *outside]
    return _not_special(name, bad)


REAL_CASES = [
    pytest.param(name, value, id=f"{name}={value!r}")
    for name, (_, valid, outside) in REAL_ARGUMENTS.items()
    for value in _bad_reals(name, valid, outside)
]


@pytest.mark.filterwarnings("error")  # no RuntimeWarning from a NaN reaching numpy
@pytest.mark.parametrize("name, value", REAL_CASES)
def test_real_arguments_take_only_finite_numbers(name, value):
    call = REAL_ARGUMENTS[name][0]
    with pytest.raises(ValidationError, match=name.split(".")[1]):
        call(value)


@pytest.mark.parametrize("name", sorted(REAL_ARGUMENTS))
def test_a_numpy_float_is_the_same_number(name):
    call, valid, _ = REAL_ARGUMENTS[name]
    np.testing.assert_equal(call(np.float64(valid)), call(valid))


_KTP_Y = dispersion.load_dispersion("ktp", "y")
_IDLER_GRID = np.linspace(1076.0, 1084.0, 5)

# (call taking the array, a valid entry, entries outside its bounds, and
# whether the array must be 1-D). An array whose values reach dispersion's
# validity range gets its bounds there, as a RangeError naming the bound.
ARRAY_ARGUMENTS = {
    "idler_wavelength_nm.pump_nm": (lambda v: pm.idler_wavelength_nm(v, 1074.0), 538.4, (0.0, -538.4), False),
    "idler_wavelength_nm.signal_nm": (lambda v: pm.idler_wavelength_nm(538.4, v), 1074.0, (0.0, -1.0), False),
    "delta_k.pump_nm": (lambda v: pm.delta_k(NBPM_PROCESS, v, 1074.0), 538.4, (0.0, -538.4), False),
    "delta_k.signal_nm": (lambda v: pm.delta_k(NBPM_PROCESS, 538.4, v), 1074.0, (0.0, -1.0), False),
    "period_sweep.pump_nm_grid": (pm.period_sweep, 536.0, (0.0, -536.0), True),
    "filter_kernel.offsets_nm": (lambda v: sp.filter_kernel(v, 1.0), 0.5, (), False),
    "joint_spectral_density.signal_grid_nm": (
        lambda v: sp.joint_spectral_density(NBPM_PROCESS, 538.4, v, _IDLER_GRID, 8.0).values, 1074.0, (0.0,), True,
    ),
    "joint_spectral_density.idler_grid_nm": (
        lambda v: sp.joint_spectral_density(NBPM_PROCESS, 538.4, [1072.0, 1074.0], v, 8.0).values,
        1080.0, (0.0,), True,
    ),
    "fit_visibility.theta_deg": (lambda v: countstats.fit_visibility(v, [10.0, 20.0]), 45.0, (), True),
    "fit_visibility.rates": (lambda v: countstats.fit_visibility([0.0, 45.0], v), 10.0, (), True),
    "refractive_index.wavelength_um": (lambda v: dispersion.refractive_index(_KTP_Y, v), 1.0, (0.1, 9.0), False),
    "refractive_index.temperature_c": (
        lambda v: dispersion.refractive_index(_KTP_Y, 1.0, v), 25.0, (-200.0, 100.0), False,
    ),
    "wavevector.wavelength_um": (lambda v: dispersion.wavevector(_KTP_Y, v), 1.0, (0.1, 9.0), False),
    "wavevector.temperature_c": (lambda v: dispersion.wavevector(_KTP_Y, 1.0, v), 25.0, (-200.0, 100.0), False),
    "efficiency_samples.sigma_z_grid_um": (
        lambda v: poling.efficiency_samples(2.0, 0.7, 8, v, 3), 10.0, (-1.0,), True,
    ),
    "monte_carlo_efficiency.sigma_z_grid_um": (
        lambda v: poling.monte_carlo_efficiency(2.0, 0.7, 8, v, samples=3), 10.0, (-1.0,), True,
    ),
    "entanglement_vs_fabrication.sigma_z_grid_um": (
        lambda v: entanglement_vs_fabrication(2.0, 0.7, 8, v, 3), 10.0, (-1.0,), True,
    ),
    # a bracket is exactly two wavelengths
    "solve_pump_for_period.pump_bracket_nm": (
        lambda v: pm.solve_pump_for_period(2.0, pump_bracket_nm=v), 530.0, (0.0, -530.0), True,
    ),
    "degeneracy_pump_nm.bracket_nm": (lambda v: pm.degeneracy_pump_nm(bracket_nm=v), 500.0, (0.0,), True),
    # exactly four analyzer angles (a, a', b, b')
    "chsh_s.angles_deg": (lambda v: biphoton.chsh_s(bell_psi_plus(), v), 22.5, (), True),
}
# the number of entries an array argument must have, where it is fixed
ARRAY_LENGTHS = {"pump_bracket_nm": 2, "bracket_nm": 2, "angles_deg": 4}
# dispersion names its arguments by quantity, as its RangeError does
ARRAY_NAMED = {"wavelength_um": "wavelength", "temperature_c": "temperature"}


def _bad_arrays(name, valid, outside, one_d):
    """What no array argument takes, then what breaks this one's bounds or shape."""
    # each bad entry sits beside a valid one; a numeric string is rejected, not parsed
    entries = [str(valid), True, np.True_, None, 1j, math.nan, math.inf, -math.inf, *outside]
    bad = [[valid, e] for e in entries] + [
        # an ndarray's values are checked too, not only its dtype
        *(np.array([valid, e]) for e in (math.nan, math.inf, -math.inf, *outside)),
        str(valid), None, math.nan, [[valid], [valid, valid]], np.array([str(valid)] * 2), np.array([True, False]),
    ]
    if one_d:
        bad += [valid, [[valid, valid], [valid, valid]], np.full((2, 2), valid)]
    length = ARRAY_LENGTHS.get(name.split(".")[1])
    if length is not None:
        bad += [tuple(valid + 10.0 * k for k in range(n)) for n in range(length + 2) if n != length]
    return bad


ARRAY_CASES = [
    pytest.param(name, value, id=f"{name}={value!r}".replace("\n", " "))
    for name, (_, valid, outside, one_d) in ARRAY_ARGUMENTS.items()
    for value in _bad_arrays(name, valid, outside, one_d)
]


@pytest.mark.filterwarnings("error")  # no RuntimeWarning from a NaN reaching numpy
@pytest.mark.parametrize("name, value", ARRAY_CASES)
def test_array_arguments_take_only_real_arrays(name, value):
    call = ARRAY_ARGUMENTS[name][0]
    parameter = name.split(".")[1]
    with pytest.raises(ValidationError, match=ARRAY_NAMED.get(parameter, parameter)):
        call(value)


@pytest.mark.parametrize(
    "value, want",
    [
        ([1, 2.5], [1.0, 2.5]),
        ((1, np.float32(2.5)), [1.0, 2.5]),
        ([(1.0, 2.0), [3.0, np.int64(4)]], [[1.0, 2.0], [3.0, 4.0]]),
        (np.array([1, 2]), [1.0, 2.0]),
        (np.array([[1, 2], [3, 4]], dtype=np.int32), [[1.0, 2.0], [3.0, 4.0]]),
        (3, 3.0),
        ([], []),
    ],
)
def test_the_array_rule_returns_a_float_array(value, want):
    got = _check_array("x", value)
    assert got.dtype == float
    np.testing.assert_array_equal(got, want)


_PSI = [0.0, 1.0, 1.0, 0.0]
_RHO = (np.eye(4) / 4.0).tolist()
_NO_IMAG = np.zeros((4, 4)).tolist()
# (call taking the complex array, a valid value, finite values outside its
# bounds). The state inputs take complex numbers by the array rule; their
# bounds keep the norm, the Hermitian check and the trace finite.
COMPLEX_ARGUMENTS = {
    "PolarizationState.amplitudes": (lambda v: PolarizationState(v).amplitudes, _PSI, ([1e200, 0.0, 0.0, 0.0],)),
    "DensityMatrix4.matrix": (lambda v: DensityMatrix4(v).matrix, _RHO, (np.eye(4) * 1e308,)),
    "as_density_matrix.state": (lambda v: biphoton.as_density_matrix(v).matrix, _PSI, ()),
    "fidelity.target": (lambda v: biphoton.fidelity(_BELL, v), _PSI, ()),
    # a PolarizationState or its amplitudes; a mixed state is not a pure one
    "werner_state.pure": (lambda v: biphoton.werner_state(0.5, v).matrix, _PSI, (DensityMatrix4(_RHO),)),
    # the payload's two parts are real arrays
    "density_matrix_from_dict.real": (
        lambda v: io.density_matrix_from_dict({"real": v, "imag": _NO_IMAG}).matrix, _RHO, (),
    ),
    "density_matrix_from_dict.imag": (
        lambda v: io.density_matrix_from_dict({"real": _RHO, "imag": v}).matrix, _NO_IMAG, (),
    ),
}


def _with_first(valid, entry):
    """valid, a list or a nested list of numbers, with its first number replaced by entry."""
    return [_with_first(valid[0], entry), *valid[1:]] if isinstance(valid, list) else entry


def _bad_complex(name, valid, outside):
    """What no state input takes, then what breaks this one's bounds."""
    # each bad entry sits beside valid ones; a numeric string is rejected, not parsed
    entries = [
        "1", True, np.True_, None, math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(-math.inf, 1.0),
    ]
    return _not_special(name, [
        *(_with_first(valid, e) for e in entries),
        # an ndarray's values are checked too, not only its dtype
        *(np.array(_with_first(valid, e)) for e in (math.nan, math.inf, complex(0.0, math.nan))),
        "x", None, np.array(valid).astype(str), np.array(valid, dtype=bool), *outside,
    ])


COMPLEX_CASES = [
    pytest.param(name, value, id=f"{name}={value!r}".replace("\n", " "))
    for name, (_, valid, outside) in COMPLEX_ARGUMENTS.items()
    for value in _bad_complex(name, valid, outside)
]


@pytest.mark.filterwarnings("error")  # no RuntimeWarning from a NaN or an overflow reaching numpy
@pytest.mark.parametrize("name, value", COMPLEX_CASES)
def test_state_inputs_take_only_finite_numbers(name, value):
    call = COMPLEX_ARGUMENTS[name][0]
    # the number rule's messages, not a shape check's ("density matrix must be 4x4")
    with pytest.raises(ValidationError, match=rf"{name.split('.')[1]} must be (a |finite|[<>]=? )"):
        call(value)


@pytest.mark.parametrize(
    "value",
    [
        [1, 0.5, -2, 0],
        (0.0, 1.0, 1.0j, 0.0),
        [np.float32(0.3), np.complex64(0.5 - 0.25j), np.int64(1), 2.0],
        np.array([0.0, 1.0, 1.0, 0.0]),
        np.array([0.6 + 0.1j, 0.0, 0.2j, -0.7], dtype=np.complex64),
    ],
)
def test_a_valid_state_keeps_its_bits(value):
    # against the amplitudes as numpy converts them, the conversion the
    # states made before the rule
    amp = np.asarray(value, dtype=complex)
    assert PolarizationState(value).amplitudes.tobytes() == (amp / np.linalg.norm(amp)).tobytes()
    assert biphoton.as_density_matrix(value).matrix.tobytes() == PolarizationState(amp).density().matrix.tobytes()
    assert biphoton.fidelity(_BELL, value) == biphoton.fidelity(_BELL, PolarizationState(amp))


def test_a_valid_matrix_keeps_its_bits():
    rows = [[0.5, 0, 0, 0.25j], [0, 0, 0, 0], [0, 0, 0, 0], [-0.25j, 0, 0, np.float32(0.5)]]
    assert DensityMatrix4(rows).matrix.tobytes() == DensityMatrix4(np.asarray(rows, dtype=complex)).matrix.tobytes()
    payload = io.density_matrix_to_dict(biphoton.werner_state(0.7))
    rho = np.asarray(payload["real"], dtype=float) + 1j * np.asarray(payload["imag"], dtype=float)
    assert io.density_matrix_from_dict(payload).matrix.tobytes() == DensityMatrix4(rho).matrix.tobytes()


def test_werner_state_takes_the_amplitudes_of_its_pure_state():
    psi = [0.6, 0.0, 0.8j, 0.0]
    assert biphoton.werner_state(0.7, psi).matrix.tobytes() == (
        biphoton.werner_state(0.7, PolarizationState(psi)).matrix.tobytes()
    )
    # the default Psi+ keeps its bits
    rho = DensityMatrix4(0.7 * _BELL.density().matrix + (1.0 - 0.7) * np.eye(4) / 4.0).matrix
    assert biphoton.werner_state(0.7).matrix.tobytes() == rho.tobytes()


_RECORDS = biphoton.simulate_tomography_counts(_BELL, 439.0, 10.0, seed=1)
# (call taking the text, bad values). A text argument takes a string: anything
# else is a ValidationError that names the argument, not an AttributeError, a
# TypeError or an IndexError from inside the call.
TEXT_ARGUMENTS = {
    "ProcessSpec.pump_axis": (lambda v: ProcessSpec(pump_axis=v), (1, None, b"y")),
    "ProcessSpec.signal_axis": (lambda v: ProcessSpec(signal_axis=v), (1, None, b"z")),
    "ProcessSpec.idler_axis": (lambda v: ProcessSpec(idler_axis=v), (1, None, b"y")),
    "load_dispersion.crystal": (lambda v: dispersion.load_dispersion(v, "y"), (1, None, b"ktp")),
    "load_dispersion.axis": (lambda v: dispersion.load_dispersion("ktp", v), (1, None, b"y")),
    # each setting is a (signal, idler) pair of labels
    "simulate_tomography_counts.settings": (
        lambda v: _tomography(settings=[("H", "V"), v]), ((1, 2), ("H",), ("H", "V", "D"), ("H", None), "HV", None),
    ),
    "reconstruct_state.setting_signal": (
        lambda v: biphoton.reconstruct_state([dict(_RECORDS[0], setting_signal=v), *_RECORDS[1:]]), (1, None),
    ),
    "reconstruct_state.setting_idler": (
        lambda v: biphoton.reconstruct_state([*_RECORDS[:-1], dict(_RECORDS[-1], setting_idler=v)]), (1, None),
    ),
    "reconstruct_state.records": (biphoton.reconstruct_state, ([],)),
}

TEXT_CASES = [
    pytest.param(name, value, id=f"{name}={value!r}")
    for name, (_, bad) in TEXT_ARGUMENTS.items()
    for value in bad
]


@pytest.mark.parametrize("name, value", TEXT_CASES)
def test_text_arguments_take_only_strings(name, value):
    call = TEXT_ARGUMENTS[name][0]
    with pytest.raises(ValidationError, match=name.split(".")[1]):
        call(value)


@pytest.mark.parametrize("settings", [5, 2.5, object()])
def test_settings_that_are_not_iterable_are_named(settings):
    with pytest.raises(ValidationError, match="settings"):
        _tomography(settings=settings)


@pytest.mark.parametrize("index", [0, 7, 15])
@pytest.mark.parametrize("key", ["setting_signal", "setting_idler", "coincidences", "integration_time_s"])
def test_a_record_without_a_column_names_the_column_and_the_record(key, index):
    records = [dict(r) for r in _RECORDS]
    del records[index][key]
    with pytest.raises(ValidationError, match=rf"records\[{index}\].*'{key}'"):
        biphoton.reconstruct_state(records)


@pytest.mark.parametrize("record", [None, 1, "HH", ("H", "H", 10.0, 10.0), [("setting_signal", "H")]])
def test_a_record_that_is_not_a_mapping_names_the_record(record):
    with pytest.raises(ValidationError, match=r"records\[3\]"):
        biphoton.reconstruct_state([*_RECORDS[:3], record, *_RECORDS[3:]])


@pytest.mark.parametrize("records", [5, 2.5, object()])
def test_records_that_are_not_iterable_are_named(records):
    with pytest.raises(ValidationError, match="records must be an iterable"):
        biphoton.reconstruct_state(records)


def test_an_empty_record_names_its_first_column():
    with pytest.raises(ValidationError, match=r"records\[0\].*'setting_signal'"):
        biphoton.reconstruct_state([{}])


# Parameters annotated float that are not REAL_ARGUMENTS or ARRAY_ARGUMENTS rows, and why.
REAL_EXEMPT = {
    # result records: the library fills them from checked inputs
    "PhaseMatchPoint", "TomographyResult", "VisibilityFit", "CrystalDispersion", "PolingStructure",
}


def _float_parameters():
    """'callable.parameter' of every parameter annotated float or float | None
    in the pinned __all__ lists, and of every parameter at all."""
    floats, every = set(), set()
    for module_name in PUBLIC:
        for attr, obj in _public_callables(importlib.import_module(module_name)):
            for param in inspect.signature(obj).parameters.values():
                every.add(f"{attr}.{param.name}")
                if param.annotation in ("float", "float | None") and attr not in REAL_EXEMPT:
                    floats.add(f"{attr}.{param.name}")
    return floats, every


def test_every_float_parameter_follows_the_real_number_rule():
    # a new public function cannot skip util._check_real or util._check_array
    # unnoticed, and no row or exemption names a parameter that is gone
    floats, every = _float_parameters()
    assert sorted(floats - set(REAL_ARGUMENTS) - set(ARRAY_ARGUMENTS) - REAL_EXEMPT) == []
    stale = set(REAL_ARGUMENTS) | set(ARRAY_ARGUMENTS) | {e for e in REAL_EXEMPT if "." in e}
    # idler_wavelength_nm is public but outside the pinned __all__ lists
    every |= {f"idler_wavelength_nm.{p}" for p in inspect.signature(pm.idler_wavelength_nm).parameters}
    assert sorted(stale - every) == []


@pytest.mark.parametrize("grid", [["0.5"], [True], [np.True_], [1.0, "2.0"]])
def test_sigma_grid_entries_are_checked_as_given(grid):
    # float() would parse the numeric string and take the bool as sigma = 1
    with pytest.raises(ValidationError, match="sigma_z_grid_um"):
        poling.efficiency_samples(2.0, 0.7, 8, grid, 3)
