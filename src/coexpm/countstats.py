"""Coincidence counting: quality ratios, rate arithmetic, fringe fits and
event-level simulations.

Rate conventions: singles and coincidence rates in s^-1, coincidence window
tau_c in seconds, pump power in mW where brightness is involved.

The two-detector quality ratio compares measured coincidences with the
accidental rate of uncorrelated streams,

    alpha_2d = R_c / (tau_c R_s R_i),

(unity for independent Poissonian streams, >> 1 for a pair source). The
heralded three-detector ratio for a herald s and a split target arm (i, i')

    alpha_3d = R_sii' R_s / (R_si R_si')

is << 1 for a single-photon-like source (one target photon cannot fire both
split detectors).

Simulations are event-based: arrivals are binned at the coincidence window
and coincidences are shared-bin events, so estimator behavior (not just the
formulas) is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import exp, factorial, isfinite

import numpy as np

from .biphoton import AnalyzerSetting, _analyzer_counts
from .errors import FitError, ValidationError
from .util import _POISSON_MEAN_MAX, _check_array, _check_int, _check_real, spawn_rng

__all__ = [
    "CountRecord",
    "HeraldedRecord",
    "VisibilityFit",
    "accidental_rate",
    "alpha_2d",
    "alpha_3d",
    "brightness",
    "subtract_accidentals",
    "apply_dead_time",
    "correct_dead_time",
    "fit_visibility",
    "simulate_counts",
    "simulate_pair_stream",
    "simulate_heralded",
]


def _check_tallies(record) -> None:
    """Store the record's counts as floats >= 0 and its duration_s, the last
    field, as a float > 0; the ValidationError names the first that is not."""
    for f in fields(record)[:-1]:
        object.__setattr__(record, f.name, _check_real(f.name, getattr(record, f.name), 0.0))
    object.__setattr__(record, "duration_s", _check_real("duration_s", record.duration_s, above=0.0))


@dataclass(frozen=True)
class CountRecord:
    """Raw two-detector tallies over one acquisition."""

    counts_signal: float
    counts_idler: float
    coincidences: float
    duration_s: float

    def __post_init__(self):
        _check_tallies(self)

    @property
    def rate_signal(self) -> float:
        return self.counts_signal / self.duration_s

    @property
    def rate_idler(self) -> float:
        return self.counts_idler / self.duration_s

    @property
    def rate_coincidence(self) -> float:
        return self.coincidences / self.duration_s


@dataclass(frozen=True)
class HeraldedRecord:
    """Herald + split-target tallies over one acquisition."""

    counts_herald: float
    counts_herald_t1: float
    counts_herald_t2: float
    counts_triple: float
    duration_s: float

    def __post_init__(self):
        _check_tallies(self)


def accidental_rate(rate_signal: float, rate_idler: float, tau_c_s: float) -> float:
    """Uncorrelated-stream coincidence rate R_s R_i tau_c."""
    rate_signal = _check_real("rate_signal", rate_signal, 0.0)
    rate_idler = _check_real("rate_idler", rate_idler, 0.0)
    tau_c_s = _check_real("tau_c_s", tau_c_s, above=0.0)
    value = rate_signal * rate_idler * tau_c_s
    if not isfinite(value):
        raise ValidationError(
            f"accidental rate overflows: rate_signal {rate_signal:g} s^-1 x rate_idler {rate_idler:g} s^-1 "
            f"x tau_c_s {tau_c_s:g} s"
        )
    return value

def alpha_2d(record: CountRecord, tau_c_s: float) -> float:
    """Two-detector quality ratio R_c / (tau_c R_s R_i)."""
    acc = accidental_rate(record.rate_signal, record.rate_idler, tau_c_s)
    if acc == 0:
        raise ValidationError("alpha_2d undefined: zero singles rate")
    return record.rate_coincidence / acc


def alpha_3d(record: HeraldedRecord) -> float:
    """Heralded ratio R_sii' R_s / (R_si R_si') (window-free)."""
    denom = record.counts_herald_t1 * record.counts_herald_t2
    if denom == 0:
        raise ValidationError("alpha_3d undefined: zero heralded doubles")
    return record.counts_triple * record.counts_herald / denom


def brightness(record: CountRecord, pump_mw: float | None = None) -> float:
    """Joint-rate figure R_s R_i / R_c, per mW if pump power is given."""
    if record.coincidences == 0:
        raise ValidationError("brightness undefined: zero coincidences")
    value = record.rate_signal * record.rate_idler / record.rate_coincidence
    if pump_mw is not None:
        value /= _check_real("pump_mw", pump_mw, above=0.0)
    if not isfinite(value):
        raise ValidationError(
            f"brightness overflows: rate_signal {record.rate_signal:g} s^-1 x rate_idler {record.rate_idler:g} "
            f"s^-1 / rate_coincidence {record.rate_coincidence:g} s^-1 / pump_mw {pump_mw}"
        )
    return value


def subtract_accidentals(record: CountRecord, tau_c_s: float) -> CountRecord:
    """Record with the expected accidental coincidences removed (floored at 0)."""
    acc_counts = accidental_rate(record.rate_signal, record.rate_idler, tau_c_s) * record.duration_s
    return CountRecord(
        record.counts_signal,
        record.counts_idler,
        max(0.0, record.coincidences - acc_counts),
        record.duration_s,
    )


def apply_dead_time(true_rate: float, dead_time_s: float) -> float:
    """Registered rate of a non-paralyzable detector, R / (1 + R t_dead)."""
    true_rate = _check_real("true_rate", true_rate, 0.0)
    dead_time_s = _check_real("dead_time_s", dead_time_s, 0.0)
    return true_rate / (1.0 + true_rate * dead_time_s)


def correct_dead_time(measured_rate: float, dead_time_s: float) -> float:
    """Invert apply_dead_time: true rate R / (1 - R t_dead)."""
    measured_rate = _check_real("measured_rate", measured_rate, 0.0)
    dead_time_s = _check_real("dead_time_s", dead_time_s, 0.0)
    loss = measured_rate * dead_time_s
    if loss >= 1.0:
        raise ValidationError("measured rate saturates the dead time; cannot invert")
    return measured_rate / (1.0 - loss)


@dataclass(frozen=True)
class VisibilityFit:
    """Least-squares fit of rate(theta) = A [1 + V cos(2(theta - theta0))]."""

    visibility: float
    visibility_se: float
    mean_rate: float
    phase_deg: float

    @property
    def percent(self) -> float:
        return 100.0 * self.visibility


def fit_visibility(theta_deg, rates) -> VisibilityFit:
    """Fringe visibility from analyzer-angle scan data.

    Linear least squares on the basis (1, cos 2theta, sin 2theta); the
    visibility standard error comes from the residual covariance through the
    delta method. Raises FitError for degenerate scans (fewer than 4 distinct
    angles modulo 180, or a non-positive mean rate).
    """
    th = np.deg2rad(_check_array("theta_deg", theta_deg, ndim=1))
    y = _check_array("rates", rates, ndim=1)
    if th.shape != y.shape:
        raise ValidationError(f"theta_deg and rates must be of equal length, got {th.size} and {y.size}")
    distinct = np.unique(np.round(np.mod(th, np.pi), 12))
    if distinct.size < 4:
        raise FitError("need at least 4 distinct analyzer angles for a visibility fit")
    x = np.column_stack([np.ones_like(th), np.cos(2 * th), np.sin(2 * th)])
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    a, b, c = coef
    if a <= 0:
        raise FitError(f"fitted mean rate {a:.4g} is not positive")
    amp = float(np.hypot(b, c))
    vis = amp / a

    dof = y.size - 3
    if dof > 0:
        resid = y - x @ coef
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.inv(x.T @ x)
        if amp > 0:
            grad = np.array([-amp / a**2, b / (a * amp), c / (a * amp)])
        else:
            grad = np.array([0.0, 1.0 / a, 1.0 / a])
        se = float(np.sqrt(max(0.0, grad @ cov @ grad)))
    else:
        se = float("nan")
    phase = 0.5 * np.degrees(np.arctan2(c, b))
    return VisibilityFit(float(vis), se, float(a), float(phase))


def simulate_counts(
    state,
    settings: list[AnalyzerSetting],
    pair_rate_hz: float,
    integration_time_s: float,
    seed: int = 0,
    singles_rate_s_hz: float = 0.0,
    singles_rate_i_hz: float = 0.0,
    tau_c_s: float = 1e-9,
    poisson: bool = True,
) -> list[CountRecord]:
    """Coincidence counts behind polarization analyzers for each setting.

    Mean coincidences are pair_rate * P(setting) * T plus the accidental
    contribution R_s R_i tau_c T of the singles rates. Setting k draws from
    the stream spawn_rng(seed, k), its singles before its coincidences, so
    results do not depend on evaluation order.
    """
    kets = [s.ket() for s in settings]
    singles = (singles_rate_s_hz, singles_rate_i_hz)
    counts = _analyzer_counts(
        state, kets, pair_rate_hz, integration_time_s, seed, poisson, 0.0, singles, tau_c_s
    )
    return [CountRecord(cs, ci, cc, integration_time_s) for cs, ci, cc in counts]


def _binned_coincidences(bins_a: np.ndarray, bins_b: np.ndarray) -> int:
    """Number of (a, b) pairs sharing a bin, counting multiplicity.

    Bins are integers in [0, 2**63). Arm a's bin k becomes the key 2k and arm
    b's the key 2k + 1, so one sort of both arms puts the run of b's bin k
    right after the run of a's; runs whose keys differ only in the lowest bit
    share a bin and contribute the product of their lengths.
    """
    keys = np.empty(bins_a.size + bins_b.size, dtype=np.uint64)
    keys[: bins_a.size] = bins_a
    keys[bins_a.size :] = bins_b
    keys <<= np.uint64(1)
    keys[bins_a.size :] |= np.uint64(1)
    keys.sort()
    run_start = np.empty(keys.size, dtype=bool)
    run_start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    first = np.flatnonzero(run_start)
    run_keys = keys[first]
    lengths = np.diff(first, append=keys.size)
    shared = (run_keys[1:] ^ run_keys[:-1]) == 1
    return int(np.sum(lengths[:-1][shared] * lengths[1:][shared]))


def _check_stream(duration_s: float, tau_c_s: float, **rates_hz: float) -> None:
    """Reject an event simulation's timing and its named rates before any draw.

    Every Poisson mean a simulator draws with is at most rate x duration.
    """
    duration_s = _check_real("duration_s", duration_s, above=0.0)
    _check_real("tau_c_s", tau_c_s, above=0.0)
    rates = [_check_real(name, r, 0.0) for name, r in rates_hz.items()]
    if any(r * duration_s > _POISSON_MEAN_MAX for r in rates):
        raise ValidationError(
            f"expected counts rate x duration must not exceed {_POISSON_MEAN_MAX:.6g}"
        )


def simulate_pair_stream(
    pair_rate_hz: float,
    duration_s: float,
    tau_c_s: float,
    seed: int = 0,
    eta_signal: float = 1.0,
    eta_idler: float = 1.0,
    background_rate_s_hz: float = 0.0,
    background_rate_i_hz: float = 0.0,
) -> CountRecord:
    """Event-level two-detector acquisition.

    Pairs arrive as a Poisson process; each photon survives to its detector
    with the arm efficiency; independent background singles are added to both
    arms. Arrival times are binned at tau_c and coincidences are shared-bin
    events, exactly as a time tagger with window tau_c would count them.
    With pair_rate_hz = 0 this is a pure accidental (uncorrelated) source.
    """
    _check_stream(
        duration_s, tau_c_s,
        pair_rate_hz=pair_rate_hz, background_rate_s_hz=background_rate_s_hz, background_rate_i_hz=background_rate_i_hz,
    )
    eta_signal = _check_real("eta_signal", eta_signal, 0.0, 1.0)
    eta_idler = _check_real("eta_idler", eta_idler, 0.0, 1.0)
    n_bins = int(np.ceil(duration_s / tau_c_s))
    if n_bins >= 2**63:
        raise ValidationError("duration / coincidence window must be below 2**63 bins")
    rng = spawn_rng(seed, 2)
    n_pairs = rng.poisson(pair_rate_hz * duration_s)
    pair_bins = rng.integers(0, n_bins, size=n_pairs)
    s_from_pairs = pair_bins[rng.random(n_pairs) < eta_signal]
    i_from_pairs = pair_bins[rng.random(n_pairs) < eta_idler]
    s_bg = rng.integers(0, n_bins, size=rng.poisson(background_rate_s_hz * duration_s))
    i_bg = rng.integers(0, n_bins, size=rng.poisson(background_rate_i_hz * duration_s))
    s_bins = np.concatenate([s_from_pairs, s_bg])
    i_bins = np.concatenate([i_from_pairs, i_bg])
    return CountRecord(
        float(s_bins.size),
        float(i_bins.size),
        float(_binned_coincidences(s_bins, i_bins)),
        duration_s,
    )


def simulate_heralded(
    pair_rate_hz: float,
    duration_s: float,
    tau_c_s: float,
    seed: int = 0,
    eta_herald: float = 0.25,
    eta_target: float = 0.25,
    max_multiplicity: int = 8,
) -> HeraldedRecord:
    """Event-level heralded acquisition with a balanced split target arm.

    Pairs are Poisson-distributed over coincidence bins; the herald photon is
    detected with eta_herald, the target photon routes to one of two detectors
    (half of eta_target each). Within one bin a lone target photon can never
    fire both split detectors, so triples require multi-pair bins: the ratio
    alpha_3d ~ 2 pair_rate tau_c at low rates.

    Bins are grouped by pair multiplicity k (Poissonized counts, exact for
    the binned model); k = 1 bins are tallied with one multinomial draw and
    k >= 2 bins with vectorized per-bin draws.
    """
    _check_stream(duration_s, tau_c_s, pair_rate_hz=pair_rate_hz)
    eta_herald = _check_real("eta_herald", eta_herald, hi=1.0, above=0.0)
    eta_target = _check_real("eta_target", eta_target, hi=1.0, above=0.0)
    if _check_int("max_multiplicity", max_multiplicity, 1) > 170:  # 171! overflows a float
        raise ValidationError(f"max_multiplicity must be <= 170, got {max_multiplicity}")
    rng = spawn_rng(seed, 3)
    n_bins = duration_s / tau_c_s
    mu = pair_rate_hz * tau_c_s
    if mu > 0.1:
        raise ValidationError(
            f"mean pairs per window {mu:.3g} too high for the multiplicity cap; "
            "reduce pair rate or window"
        )
    n_h = n_h1 = n_h2 = n_t = 0.0

    # k = 1: aggregate joint outcomes (herald?, target route) in one multinomial.
    n1 = rng.poisson(n_bins * mu * np.exp(-mu))
    ph, pt = eta_herald, eta_target / 2.0
    probs = [
        ph * pt,  # herald + t1
        ph * pt,  # herald + t2
        ph * (1 - 2 * pt),  # herald only
        (1 - ph) * pt,
        (1 - ph) * pt,
        (1 - ph) * (1 - 2 * pt),
    ]
    cls = rng.multinomial(n1, probs)
    n_h += cls[0] + cls[1] + cls[2]
    n_h1 += cls[0]
    n_h2 += cls[1]

    for k in range(2, max_multiplicity + 1):
        nk = rng.poisson(n_bins * exp(-mu) * mu**k / factorial(k))
        if nk == 0:
            continue
        herald_hits = rng.binomial(k, eta_herald, size=nk) > 0
        t1 = rng.binomial(k, pt, size=nk)
        t2 = rng.binomial(k - t1, pt / (1.0 - pt), size=nk)
        n_h += herald_hits.sum()
        n_h1 += (herald_hits & (t1 > 0)).sum()
        n_h2 += (herald_hits & (t2 > 0)).sum()
        n_t += (herald_hits & (t1 > 0) & (t2 > 0)).sum()
    return HeraldedRecord(float(n_h), float(n_h1), float(n_h2), float(n_t), duration_s)
