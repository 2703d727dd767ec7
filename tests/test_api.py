"""The public surface and its argument rules.

Every name a module exports resolves, and the set of exported names is
pinned, so a change to the surface is deliberate. Every integer argument of
the library, seeds included, takes an int or a numpy integer and nothing
else: a bool, a float (even an integral one), NaN or an infinity is a
ValidationError, never a truncation, a raw numpy error or a hang. The real
arguments of poling and the sampler's relative phase take a finite int,
float or numpy number: a string (even a numeric one), None, a bool or a
non-finite value is a ValidationError.
"""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coexpm import countstats, poling
from coexpm import spectrum as sp
from coexpm.biphoton import AnalyzerSetting, bell_psi_plus, entanglement_vs_fabrication
from coexpm.errors import ValidationError
from coexpm.phasematch import NBPM_PROCESS, ProcessSpec
from coexpm.util import spawn_rng

ROOT = Path(__file__).resolve().parents[1]

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


def _samples(num_domains=8, samples=16, seed=0, qpm_order=1, max_attempts=1000, **kwargs):
    return poling.efficiency_samples(
        2.0, 0.735, num_domains, [0.0, 400.0], samples, seed, qpm_order=qpm_order, max_attempts=max_attempts,
        **kwargs,
    )


def _structure(num_domains=8, max_attempts=1000):
    return poling.realize_structure(2.0, 0.735, num_domains, 400.0, max_attempts=max_attempts).boundary_um


_SETTING = [AnalyzerSetting(0.0, 90.0)]
# (call taking the integer, a valid value, lower bound or None, upper bound or None)
INTEGER_ARGUMENTS = {
    "fourier_coefficient.order": (lambda v: poling.fourier_coefficient(0.7, v), -3, None, None),
    "efficiency_ratio.order": (lambda v: poling.efficiency_ratio(0.7, v), 3, None, None),
    "solve_balanced_duty_cycle.order": (poling.solve_balanced_duty_cycle, 1, 1, None),
    "nominal_boundaries_um.num_domains": (lambda v: poling.nominal_boundaries_um(2.0, 0.7, v), 8, 2, None),
    "realize_structure.num_domains": (lambda v: _structure(num_domains=v), 8, 2, None),
    "realize_structure.max_attempts": (lambda v: _structure(max_attempts=v), 1000, 1, None),
    "efficiency_samples.num_domains": (lambda v: _samples(num_domains=v), 8, 2, None),
    "efficiency_samples.samples": (lambda v: _samples(samples=v), 50, 1, None),
    "efficiency_samples.qpm_order": (lambda v: _samples(qpm_order=v), 3, 0, None),
    "efficiency_samples.max_attempts": (lambda v: _samples(max_attempts=v), 1000, 1, None),
    "efficiency_samples.seed": (lambda v: _samples(seed=v), 7, 0, None),
    "ProcessSpec.qpm_order": (lambda v: ProcessSpec(qpm_order=v).qpm_order, 1, 0, None),
    "joint_spectral_density.ridge_oversample": (
        lambda v: sp.joint_spectral_density(
            NBPM_PROCESS, 538.4, np.linspace(800.0, 820.0, 5), np.linspace(1600.0, 1700.0, 5), 8.0,
            filter_fwhm_nm=2.0, ridge_oversample=v,
        ).values,
        4, 1, None,
    ),
    "simulate_heralded.max_multiplicity": (
        lambda v: countstats.simulate_heralded(1e5, 1e-2, 1e-9, max_multiplicity=v), 8, 1, 170,
    ),
    "simulate_counts.seed": (lambda v: countstats.simulate_counts(bell_psi_plus(), _SETTING, 1e3, 1.0, v), 7, 0, None),
    "simulate_pair_stream.seed": (lambda v: countstats.simulate_pair_stream(1e5, 1e-3, 1e-9, v), 7, 0, None),
    "spawn_rng.seed": (lambda v: spawn_rng(v).random(2), 7, 0, None),
}


def _bad_values(valid, lo, hi):
    """What no integer argument takes, then what breaks this one's bounds."""
    bad = [math.nan, math.inf, -math.inf, 2.5, True, np.True_, float(valid)]
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
# (call taking the real number, a valid value)
REAL_ARGUMENTS = {
    "fourier_coefficient.duty_cycle": (lambda v: poling.fourier_coefficient(v, 1), 0.7),
    "efficiency_penalty.duty_cycle": (poling.efficiency_penalty, 0.7),
    "nominal_boundaries_um.period_mm": (lambda v: poling.nominal_boundaries_um(v, 0.7, 8), 2.0),
    "realize_structure.sigma_z_um": (lambda v: poling.realize_structure(2.0, 0.735, 8, v).boundary_um, 400.0),
    "realize_structure.truncation_sigmas": (
        lambda v: poling.realize_structure(2.0, 0.735, 8, 400.0, truncation_sigmas=v).boundary_um, 2.0,
    ),
    "efficiency_samples.truncation_sigmas": (lambda v: _samples(truncation_sigmas=v), 2.0),
    "efficiency_samples.detuning_rad_per_um": (lambda v: _samples(detuning_rad_per_um=v), 1e-4),
    "conversion_efficiency.delta_k_rad_per_um": (lambda v: poling.conversion_efficiency(_STRUCTURE, v), 3e-3),
    "conversion_efficiency.detuning_rad_per_um": (lambda v: poling.conversion_efficiency(_STRUCTURE, 3e-3, v), 1e-4),
    "entanglement_vs_fabrication.relative_phase_rad": (
        lambda v: entanglement_vs_fabrication(2.0, 0.7, 8, [1.0], 3, relative_phase_rad=v)[0]["mean_fidelity"], 0.3,
    ),
}

REAL_CASES = [
    pytest.param(name, value, id=f"{name}={value!r}")
    for name, (_, valid) in REAL_ARGUMENTS.items()
    # a numeric string is rejected, not parsed
    for value in ["a", str(valid), None, True, np.True_, 1j, [valid], math.nan, math.inf, -math.inf]
]


@pytest.mark.filterwarnings("error")  # no RuntimeWarning from a NaN reaching numpy
@pytest.mark.parametrize("name, value", REAL_CASES)
def test_real_arguments_take_only_finite_numbers(name, value):
    call = REAL_ARGUMENTS[name][0]
    with pytest.raises(ValidationError, match=name.split(".")[1]):
        call(value)


@pytest.mark.parametrize("name", sorted(REAL_ARGUMENTS))
def test_a_numpy_float_is_the_same_number(name):
    call, valid = REAL_ARGUMENTS[name]
    np.testing.assert_equal(call(np.float64(valid)), call(valid))


# Walls of a 15 um grating at sigma = 50 um always cross, so a resampling
# loop bounded by a non-finite max_attempts would never end: run it apart.
_NON_FINITE_ATTEMPTS = """
import sys
from coexpm import poling
from coexpm.errors import ValidationError

bad = float(sys.argv[1])
calls = (
    lambda: poling.monte_carlo_efficiency(0.015, 0.7, 64, [50.0], samples=100, max_attempts=bad),
    lambda: poling.realize_structure(0.015, 0.7, 64, sigma_z_um=50.0, max_attempts=bad),
)
for call in calls:
    try:
        call()
    except ValidationError as exc:
        print(exc)
"""


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_max_attempts_is_rejected_not_looped_on(bad):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _NON_FINITE_ATTEMPTS, bad], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2 and all("max_attempts must be an integer" in line for line in lines)
