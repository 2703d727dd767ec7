"""Photon-counting figures of merit and event-level acquisition models.

Fixture numbers below are worked by hand from the defining ratios, e.g.
alpha_2d = R_c / (tau_c R_s R_i) evaluated at round rates.
"""

import math

import numpy as np
import pytest

from coexpm import biphoton as bp
from coexpm import countstats as cs
from coexpm import poling, spectrum
from coexpm.biphoton import AnalyzerSetting, bell_psi_plus, werner_state
from coexpm.errors import FitError, ValidationError


# -------------------------------------------------------------- simple ratios


def test_accidental_rate_product_rule():
    assert cs.accidental_rate(1.2e4, 1.72e4, 1e-9) == pytest.approx(
        1.2e4 * 1.72e4 * 1e-9, rel=1e-15
    )


def test_alpha_2d_fixture():
    rec = cs.CountRecord(1.2e4, 1.72e4, 162.0, 1.0)
    # 162 / (1e-9 * 1.2e4 * 1.72e4) = 162 / 0.2064
    assert cs.alpha_2d(rec, 1e-9) == pytest.approx(162.0 / 0.2064, rel=1e-12)


def test_alpha_2d_is_one_for_pure_accidentals():
    rs, ri, tau = 2.18e4, 2.68e4, 1e-9
    rec = cs.CountRecord(rs * 10.0, ri * 10.0, rs * ri * tau * 10.0, 10.0)
    assert cs.alpha_2d(rec, tau) == pytest.approx(1.0, rel=1e-12)


def test_alpha_3d_fixture():
    rec = cs.HeraldedRecord(1.0e5, 2.0e3, 2.1e3, 3.0, 1.0)
    assert cs.alpha_3d(rec) == pytest.approx(3.0 * 1.0e5 / (2.0e3 * 2.1e3), rel=1e-12)


def test_brightness_with_and_without_pump_power():
    rec = cs.CountRecord(2.18e4, 2.68e4, 439.0, 1.0)
    plain = cs.brightness(rec)
    assert plain == pytest.approx(2.18e4 * 2.68e4 / 439.0, rel=1e-12)
    assert float(f"{plain:.3g}") == pytest.approx(1.33e6)
    assert cs.brightness(rec, pump_mw=0.12) == pytest.approx(plain / 0.12, rel=1e-12)


def test_brightness_round_trip_through_quoted_value():
    # quoted detected brightness 3.56e6 pairs/s/mW at 0.12 mW with
    # R_s = 1.2e4, R_i = 1.72e4 implies R_c = R_s R_i / (B * P)
    rs, ri, quoted, pump = 1.2e4, 1.72e4, 3.56e6, 0.12
    rc = rs * ri / (quoted * pump)
    rec = cs.CountRecord(rs, ri, rc, 1.0)
    assert cs.brightness(rec, pump_mw=pump) == pytest.approx(quoted, rel=1e-12)


def test_subtract_accidentals_floors_at_zero():
    rec = cs.CountRecord(1e5, 1e5, 15.0, 1.0)  # accidentals predict 10
    out = cs.subtract_accidentals(rec, 1e-9)
    assert out.coincidences == pytest.approx(5.0, rel=1e-12)
    starved = cs.CountRecord(1e6, 1e6, 500.0, 1.0)  # accidentals alone predict 1000
    assert cs.subtract_accidentals(starved, 1e-9).coincidences == 0.0


def test_dead_time_round_trip():
    for rate in (1e3, 5e4, 2e5):
        seen = cs.apply_dead_time(rate, 50e-9)
        assert seen < rate
        assert cs.correct_dead_time(seen, 50e-9) == pytest.approx(rate, rel=1e-12)
    with pytest.raises(ValidationError):
        cs.correct_dead_time(2.1e7, 50e-9)  # beyond saturation 1/tau


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: cs.apply_dead_time(_INF, 1e-9),
        lambda: cs.apply_dead_time(100.0, _NAN),
        lambda: cs.correct_dead_time(_NAN, 1e-9),
        lambda: cs.correct_dead_time(100.0, _NAN),
        lambda: cs.brightness(cs.CountRecord(2e4, 2e4, 400.0, 1.0), pump_mw=_NAN),
        lambda: spectrum.filter_kernel(np.linspace(-1.0, 1.0, 5), _NAN),
        lambda: poling.nominal_boundaries_um(_NAN, 0.7, 8),
        lambda: cs.fit_visibility([0.0, 45.0, 90.0, 135.0], [10.0, _NAN, 10.0, 5.0]),
    ],
    ids=[
        "apply_dead_time-rate",
        "apply_dead_time-dead_time",
        "correct_dead_time-rate",
        "correct_dead_time-dead_time",
        "brightness-pump",
        "filter_kernel-fwhm",
        "nominal_boundaries-period",
        "fit_visibility-rate",
    ],
)
def test_non_finite_library_inputs_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: cs.accidental_rate(1e200, 1e200, 1e-9), "rate_signal 1e+200"),
        (lambda: cs.brightness(cs.CountRecord(1e150, 1e150, 1e-10, 1.0)), "rate_coincidence 1e-10"),
        (lambda: cs.brightness(cs.CountRecord(1e154, 1e154, 1.0, 1.0), pump_mw=1e-10), "pump_mw 1e-10"),
    ],
    ids=["accidental_rate", "brightness", "brightness-per-mw"],
)
def test_finite_inputs_whose_result_overflows_raise_validation_error(call, named):
    with pytest.raises(ValidationError, match="overflows") as err:
        call()
    assert named in str(err.value)


# ------------------------------------------------------------ visibility fits


def test_visibility_fit_recovers_exact_fringe():
    theta = np.arange(0.0, 180.0, 10.0)
    truth = 120.0 * (1.0 + 0.83 * np.cos(2.0 * np.deg2rad(theta - 37.0)))
    fit = cs.fit_visibility(theta, truth)
    assert fit.visibility == pytest.approx(0.83, abs=1e-12)
    assert fit.mean_rate == pytest.approx(120.0, abs=1e-9)
    assert fit.phase_deg == pytest.approx(37.0, abs=1e-9)
    assert fit.visibility_se == pytest.approx(0.0, abs=1e-9)
    assert fit.percent == pytest.approx(83.0, abs=1e-9)


def test_visibility_fit_flat_scan_has_zero_visibility():
    theta = np.arange(0.0, 180.0, 15.0)
    fit = cs.fit_visibility(theta, np.full(theta.size, 50.0))
    assert fit.visibility == pytest.approx(0.0, abs=1e-12)


def test_visibility_fit_error_bar_covers_truth():
    rng = np.random.default_rng(2024)
    theta = np.arange(0.0, 180.0, 10.0)
    mean = 439.0 * 10.0 * 0.5 * (1.0 + 0.95 * np.cos(2.0 * np.deg2rad(theta - 10.0)))
    hits = 0
    for _ in range(20):
        fit = cs.fit_visibility(theta, rng.poisson(mean))
        if abs(fit.visibility - 0.95) < 3.0 * fit.visibility_se:
            hits += 1
    assert hits >= 17  # 3-sigma coverage with a little slack


def test_visibility_fit_rejects_degenerate_scans():
    with pytest.raises(FitError):
        cs.fit_visibility([0.0, 45.0, 90.0], [1.0, 2.0, 1.0])
    with pytest.raises(FitError):
        # three distinct angles mod 180 even though five samples
        cs.fit_visibility([0.0, 45.0, 90.0, 180.0, 225.0], [1.0, 2.0, 1.0, 1.0, 2.0])
    with pytest.raises(FitError):
        cs.fit_visibility(np.arange(0.0, 180.0, 10.0), np.full(18, -5.0))


# ------------------------------------------------------- analyzer-scan counts


def test_simulated_fringe_without_noise_is_exact():
    settings = [AnalyzerSetting(45.0, t) for t in np.arange(0.0, 180.0, 10.0)]
    recs = cs.simulate_counts(
        bell_psi_plus(), settings, pair_rate_hz=439.0, integration_time_s=10.0,
        seed=0, poisson=False,
    )
    # P(45, theta) = (1 - cos(2(45 + theta)))/4 peaks at theta = 40 on this
    # grid: (1 + cos 10 deg)/4 of the pair rate
    peak = max(r.coincidences for r in recs)
    assert peak == pytest.approx(439.0 * 10.0 * (1.0 + math.cos(math.radians(10.0))) / 4.0)
    fit = cs.fit_visibility(
        [s.theta_idler_deg for s in settings], [r.coincidences for r in recs]
    )
    assert fit.visibility == pytest.approx(1.0, abs=1e-12)


def test_simulated_fringe_visibility_tracks_werner_weight():
    settings = [AnalyzerSetting(45.0, t) for t in np.arange(0.0, 180.0, 10.0)]
    for p in (1.0, 0.9, 0.6):
        recs = cs.simulate_counts(
            werner_state(p), settings, 1000.0, 10.0, seed=0, poisson=False
        )
        fit = cs.fit_visibility(
            [s.theta_idler_deg for s in settings], [r.coincidences for r in recs]
        )
        assert fit.visibility == pytest.approx(p, abs=1e-12)


def test_accidental_floor_washes_out_the_fringe():
    settings = [AnalyzerSetting(45.0, t) for t in np.arange(0.0, 180.0, 10.0)]
    vis = []
    for singles in (0.0, 2.18e4, 2.18e5):
        recs = cs.simulate_counts(
            bell_psi_plus(), settings, 439.0, 10.0, seed=0,
            singles_rate_s_hz=singles, singles_rate_i_hz=singles * 1.23,
            tau_c_s=1e-9, poisson=False,
        )
        fit = cs.fit_visibility(
            [s.theta_idler_deg for s in settings], [r.coincidences for r in recs]
        )
        vis.append(fit.visibility)
    assert vis[0] == pytest.approx(1.0, abs=1e-12)
    assert vis[0] > vis[1] > vis[2]


class _LabelSetting:
    """Labeled tomography analyzers; simulate_counts only asks a setting for its ket."""

    def __init__(self, label_signal, label_idler):
        self.labels = (label_signal, label_idler)

    def ket(self):
        return np.kron(*(bp.SINGLE_KETS[label] for label in self.labels))


def test_tomography_counts_are_simulate_counts_on_the_label_kets():
    st = bp.werner_state(0.9)
    settings = [_LabelSetting(s, i) for s, i in bp.tomography_settings()]
    for poisson in (True, False):
        tomo = bp.simulate_tomography_counts(st, 439.0, 10.0, seed=8, poisson=poisson)
        recs = cs.simulate_counts(st, settings, 439.0, 10.0, seed=8, poisson=poisson)
        assert [r["coincidences"] for r in tomo] == [r.coincidences for r in recs]


def test_simulate_counts_reproducible_and_seeded():
    settings = [AnalyzerSetting(45.0, t) for t in (0.0, 30.0, 60.0, 90.0)]
    a = cs.simulate_counts(bell_psi_plus(), settings, 439.0, 10.0, seed=3)
    b = cs.simulate_counts(bell_psi_plus(), settings, 439.0, 10.0, seed=3)
    c = cs.simulate_counts(bell_psi_plus(), settings, 439.0, 10.0, seed=4)
    assert [r.coincidences for r in a] == [r.coincidences for r in b]
    assert [r.coincidences for r in a] != [r.coincidences for r in c]


# ------------------------------------------------------- event-level streams


def test_pure_background_stream_sits_at_the_accidental_floor():
    rec = cs.simulate_pair_stream(
        pair_rate_hz=0.0, duration_s=50.0, tau_c_s=1e-9, seed=11,
        background_rate_s_hz=1e5, background_rate_i_hz=1e5,
    )
    alpha = cs.alpha_2d(rec, 1e-9)
    n_c = rec.coincidences
    assert n_c > 100  # enough statistics for the 3-sigma band to mean something
    assert alpha == pytest.approx(1.0, abs=3.0 / math.sqrt(n_c))


def test_pair_stream_alpha_grows_far_beyond_one():
    rec = cs.simulate_pair_stream(
        pair_rate_hz=4.39e2, duration_s=10.0, tau_c_s=1e-9, seed=1,
        eta_signal=0.25, eta_idler=0.25,
        background_rate_s_hz=2.0e4, background_rate_i_hz=2.5e4,
    )
    # true pairs ~27 Hz vs accidental floor ~0.5 Hz: alpha ~ 55
    assert cs.alpha_2d(rec, 1e-9) > 20.0


def test_pair_stream_accidental_floor_tightens_with_duration():
    alphas = []
    for dur in (5.0, 45.0):
        rec = cs.simulate_pair_stream(
            0.0, dur, 1e-9, seed=8, background_rate_s_hz=1.5e5, background_rate_i_hz=1.5e5
        )
        alphas.append((cs.alpha_2d(rec, 1e-9), rec.coincidences))
    for alpha, n_c in alphas:
        assert alpha == pytest.approx(1.0, abs=3.0 / math.sqrt(n_c))
    # more integration, tighter Poisson band
    assert alphas[1][1] > 5.0 * alphas[0][1]


def test_heralded_stream_passes_the_single_photon_test():
    rec = cs.simulate_heralded(1e6, 30.0, 1e-9, seed=13)
    alpha = cs.alpha_3d(rec)
    mu = 1e6 * 1e-9
    assert alpha < 0.5  # decisively sub-Poissonian
    assert alpha == pytest.approx(2.0 * mu, rel=0.6)  # multi-pair floor scale
    assert rec.counts_triple >= 50  # statistically meaningful
    assert rec.counts_herald_t1 + rec.counts_herald_t2 > 0.2 * rec.counts_herald


def _heralded_oracle(mu, eta_herald, eta_target):
    """_heralded_probabilities as 40-digit sums over the pair number k of
    Poisson(k; mu) P(herald | k) P(targets | k); herald and targets are
    independent given k."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mu, ph, pt = mpmath.mpf(mu), mpmath.mpf(eta_herald), mpmath.mpf(eta_target) / 2
        single = both = neither = mpmath.mpf(0)
        for k in range(1, 200):  # Poisson(200; 10) is below 1e-170
            weight = mpmath.exp(-mu) * mu**k / mpmath.factorial(k) * (1 - (1 - ph) ** k)
            no_t1, no_target = (1 - pt) ** k, (1 - 2 * pt) ** k
            single += weight * (no_t1 - no_target)
            both += weight * (1 - 2 * no_t1 + no_target)
            neither += weight * no_target
        return single, both, neither


@pytest.mark.parametrize("mu", [1e-6, 1e-4, 1e-3, 0.2, 2.0, 10.0])
@pytest.mark.parametrize("eta_herald, eta_target", [(0.25, 0.25), (1.0, 1.0), (0.5, 0.1), (1e-6, 1.0)])
def test_heralded_pattern_probabilities_match_the_sum_over_pair_numbers(mu, eta_herald, eta_target):
    got = cs._heralded_probabilities(mu, eta_herald, eta_target)
    for p, want in zip(got, _heralded_oracle(mu, eta_herald, eta_target)):
        assert abs(p - want) <= 1e-13 * want


def _heralded_means(pair_rate_hz, duration_s, tau_c_s, eta_herald=0.25, eta_target=0.25):
    """Expected (herald, herald + t1, herald + t2, triple) tallies, each by
    inclusion-exclusion over the events that a bin's pairs miss a set of
    detectors, exp(-mu q) for a pair that hits the set with chance q."""
    mu, ph, pt = pair_rate_hz * tau_c_s, eta_herald, eta_target / 2.0

    def miss(q):
        return math.exp(-mu * q)

    herald = 1.0 - miss(ph)
    double = 1.0 - miss(ph) - miss(pt) + miss(ph + pt - ph * pt)
    triple = (
        1.0 - miss(ph) - 2.0 * miss(pt) + 2.0 * miss(ph + pt - ph * pt) + miss(2.0 * pt)
        - miss(ph + 2.0 * pt - 2.0 * ph * pt)
    )
    return [duration_s / tau_c_s * p for p in (herald, double, double, triple)]


def _tallies(rec):
    return [rec.counts_herald, rec.counts_herald_t1, rec.counts_herald_t2, rec.counts_triple]


@pytest.mark.parametrize("pair_rate_hz", [2e8, 5e9])  # mu = 0.2 and 5 pairs per 1 ns bin
def test_heralded_stream_runs_in_the_multiphoton_regime(pair_rate_hz):
    rec = cs.simulate_heralded(pair_rate_hz, 1e-3, 1e-9, seed=0)
    for tally, mean in zip(_tallies(rec), _heralded_means(pair_rate_hz, 1e-3, 1e-9)):
        assert tally == pytest.approx(mean, abs=5.0 * math.sqrt(mean))


def test_heralded_tallies_average_to_their_means_over_seeds():
    tallies = np.array([_tallies(cs.simulate_heralded(2e8, 1e-5, 1e-9, seed=s)) for s in range(400)])
    se = tallies.std(axis=0, ddof=1) / math.sqrt(400)
    np.testing.assert_array_less(abs(tallies.mean(axis=0) - _heralded_means(2e8, 1e-5, 1e-9)), 5.0 * se)


def test_stream_reproducibility():
    a = cs.simulate_pair_stream(1e3, 5.0, 1e-9, seed=7, background_rate_s_hz=1e4)
    b = cs.simulate_pair_stream(1e3, 5.0, 1e-9, seed=7, background_rate_s_hz=1e4)
    assert a == b
    h1 = cs.simulate_heralded(5e5, 5.0, 1e-9, seed=9)
    h2 = cs.simulate_heralded(5e5, 5.0, 1e-9, seed=9)
    assert h1 == h2


def test_record_validation():
    with pytest.raises(ValidationError):
        cs.CountRecord(10.0, 10.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        cs.CountRecord(10.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        cs.HeraldedRecord(10.0, 5.0, 5.0, -2.0, 1.0)


@pytest.mark.parametrize(
    "fields, herald_name, count_name",
    [
        ((math.nan, 5.0, 5.0, 1.0, 1.0), "counts_herald must be finite", "counts_signal must be finite"),
        ((10.0, math.inf, 5.0, 1.0, 1.0), "counts_herald_t1 must be finite", "counts_idler must be finite"),
        ((10.0, 5.0, 5.0, -1.0, 1.0), "counts_triple must be >= 0", "coincidences must be >= 0"),
        ((10.0, 5.0, 5.0, 1.0, math.inf), "duration_s must be finite", "duration_s must be finite"),
        ((10.0, 5.0, 5.0, 1.0, math.nan), "duration_s must be finite", "duration_s must be finite"),
        ((10.0, 5.0, 5.0, 1.0, 0.0), "duration_s must be > 0", "duration_s must be > 0"),
    ],
    ids=[f"fields{i}" for i in range(6)],
)
def test_heralded_record_checks_its_tallies_like_count_record(fields, herald_name, count_name):
    with pytest.raises(ValidationError, match=herald_name):
        cs.HeraldedRecord(*fields)
    with pytest.raises(ValidationError, match=count_name):
        cs.CountRecord(fields[0], fields[1], fields[3], fields[4])


# ------------------------------------------------------- coincidence counting


def _counter_coincidences(bins_a, bins_b):
    from collections import Counter

    a, b = Counter(bins_a.tolist()), Counter(bins_b.tolist())
    return sum(n * b[k] for k, n in a.items())


def _unique_intersect_coincidences(bins_a, bins_b):
    # the two-unique-and-intersect count that the one-sort count replaced
    ua, ca = np.unique(bins_a, return_counts=True)
    ub, cb = np.unique(bins_b, return_counts=True)
    _, ia, ib = np.intersect1d(ua, ub, return_indices=True)
    return int(np.sum(ca[ia] * cb[ib]))


def test_binned_coincidences_match_a_counter_reference():
    rng = np.random.default_rng(20)
    for _ in range(300):
        n_bins = int(rng.integers(1, 60))
        a = rng.integers(0, n_bins, size=int(rng.integers(0, 50)))
        b = rng.integers(0, n_bins, size=int(rng.integers(0, 50)))
        assert cs._binned_coincidences(a, b) == _counter_coincidences(a, b)
    top = 2**63 - 1  # the largest bin: its keys 2**64 - 2 and 2**64 - 1 still fit
    a = np.array([top, top, 0, 7], dtype=np.int64)
    b = np.array([top, 7, 7, 1], dtype=np.int64)
    assert cs._binned_coincidences(a, b) == _counter_coincidences(a, b) == 4
    empty = np.array([], dtype=np.int64)
    assert cs._binned_coincidences(empty, b) == cs._binned_coincidences(a, empty) == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 11])
def test_pair_stream_counts_match_the_unique_intersect_count(monkeypatch, seed):
    kwargs = dict(
        pair_rate_hz=2e4,
        duration_s=1.0,
        tau_c_s=1e-9,
        eta_signal=0.3,
        eta_idler=0.3,
        background_rate_s_hz=5e4,
        background_rate_i_hz=5e4,
        seed=seed,
    )
    fast = cs.simulate_pair_stream(**kwargs)
    monkeypatch.setattr(cs, "_binned_coincidences", _unique_intersect_coincidences)
    assert fast == cs.simulate_pair_stream(**kwargs)
    assert fast.coincidences > 0


def test_stream_draws_are_frozen():
    # values of the simulators at fixed seeds; a change means the draws changed
    rates = dict(eta_signal=0.5, eta_idler=0.7, background_rate_s_hz=1e3, background_rate_i_hz=2e3)
    rec = cs.simulate_pair_stream(5e3, 2.0, 1e-6, seed=1, **rates)
    assert rec == cs.CountRecord(6940.0, 10961.0, 3557.0, 2.0)
    assert cs.simulate_heralded(1e5, 10.0, 1e-9, seed=1) == cs.HeraldedRecord(
        249164.0, 31005.0, 31279.0, 2.0, 10.0
    )


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"pair_rate_hz": _NAN},
        {"pair_rate_hz": _INF},
        {"pair_rate_hz": -1.0},
        {"background_rate_s_hz": _NAN},
        {"background_rate_i_hz": _INF},
        {"duration_s": _NAN},
        {"duration_s": _INF},
        {"tau_c_s": _NAN},
        {"tau_c_s": _INF},
        {"tau_c_s": 0.0},
        {"eta_signal": _NAN},
        {"duration_s": 1e10, "tau_c_s": 1e-12},  # more bins than an int64 holds
        {"background_rate_i_hz": 1e19},  # mean counts beyond numpy's Poisson sampler
    ],
)
def test_pair_stream_rejects_bad_inputs(kwargs):
    args = dict(pair_rate_hz=1e3, duration_s=1.0, tau_c_s=1e-9) | kwargs
    with pytest.raises(ValidationError):
        cs.simulate_pair_stream(**args)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"pair_rate_hz": _NAN},
        {"pair_rate_hz": -1.0},
        {"duration_s": _NAN},
        {"duration_s": _INF},
        {"duration_s": -1.0},
        {"tau_c_s": _NAN},
        {"tau_c_s": _INF},
    ],
)
def test_heralded_stream_rejects_bad_inputs(kwargs):
    args = dict(pair_rate_hz=1e5, duration_s=1.0, tau_c_s=1e-9) | kwargs
    with pytest.raises(ValidationError):
        cs.simulate_heralded(**args)


def test_analyzer_counts_too_large_for_the_poisson_sampler_are_rejected_before_any_draw(monkeypatch):
    from coexpm import biphoton

    def no_draws(*args):
        raise AssertionError("a generator was created")

    monkeypatch.setattr(biphoton, "spawn_rng", no_draws)
    bell, setting = biphoton.bell_psi_plus(), [AnalyzerSetting(0.0, 90.0)]
    with pytest.raises(ValidationError, match="largest Poisson mean"):
        cs.simulate_counts(bell, setting, 1e30, 10.0, seed=0)
    with pytest.raises(ValidationError, match="largest Poisson mean"):
        cs.simulate_counts(bell, setting, 439.0, 10.0, seed=0, singles_rate_s_hz=1e300, singles_rate_i_hz=1e300)
    with pytest.raises(ValidationError, match="largest Poisson mean"):
        biphoton.simulate_tomography_counts(bell, 439.0, 1e300, seed=0)
    # without draws the means are returned as they are
    assert cs.simulate_counts(bell, setting, 1e30, 10.0, seed=0, poisson=False)[0].coincidences == pytest.approx(5e30)


def test_counts_too_large_for_the_poisson_sampler_are_rejected_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a generator was created")

    monkeypatch.setattr(cs, "spawn_rng", no_draws)
    with pytest.raises(ValidationError, match="rate x duration"):
        cs.simulate_pair_stream(1e30, 1.0, 1e-9)
    with pytest.raises(ValidationError, match="rate x duration"):
        cs.simulate_heralded(1e5, 1e20, 1e-9)
    # the largest mean the sampler takes passes the check
    cs._check_stream(1.0, 1e-9, pair_rate_hz=cs._POISSON_MEAN_MAX)
    np.random.default_rng(0).poisson(cs._POISSON_MEAN_MAX)


_BELL = bell_psi_plus()
# every public function that takes a seed, called with a small input whose
# draws depend on it
_SEEDED = {
    "efficiency_samples": lambda seed: poling.efficiency_samples(2.0, 0.735, 8, [50.0, 400.0], 16, seed),
    "monte_carlo_efficiency": lambda seed: poling.monte_carlo_efficiency(2.0, 0.735, 8, [400.0], 16, seed),
    "realize_structure": lambda seed: poling.realize_structure(2.0, 0.735, 8, 400.0, seed).boundary_error_um,
    "entanglement_vs_fabrication": lambda seed: bp.entanglement_vs_fabrication(2.0, 0.735, 8, [400.0], 16, seed),
    "simulate_tomography_counts": lambda seed: bp.simulate_tomography_counts(_BELL, 1e3, 1.0, seed),
    "simulate_counts": lambda seed: cs.simulate_counts(_BELL, [AnalyzerSetting(0.0, 90.0)], 1e3, 1.0, seed),
    "simulate_pair_stream": lambda seed: cs.simulate_pair_stream(1e5, 1e-3, 1e-9, seed),
    "simulate_heralded": lambda seed: cs.simulate_heralded(1e5, 1e-2, 1e-9, seed),
}


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_seed_none_is_seed_zero(name):
    run = _SEEDED[name]
    np.testing.assert_equal(run(None), run(0))
    with pytest.raises(AssertionError):  # the seed does pick the draws
        np.testing.assert_equal(run(1), run(0))
