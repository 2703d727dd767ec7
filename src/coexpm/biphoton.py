"""Polarization two-qubit states, entanglement metrics, correlation
measurements and state tomography.

Basis and conventions:

* Single-photon basis |H> = (1, 0), |V> = (0, 1); H lies along the crystal
  y axis and V along z.
* Two-photon basis ordering (signal tensor idler): |HH>, |HV>, |VH>, |VV>.
* A linear analyzer at angle theta (degrees from H) passes
  |theta> = cos(theta)|H> + sin(theta)|V>; a half-wave plate implementing it
  sits at theta/2.
* Circular kets |R> = (|H> - i|V>)/sqrt(2), |L> = (|H> + i|V>)/sqrt(2);
  diagonal |D> = (|H> + |V>)/sqrt(2), |A> = (|H> - |V>)/sqrt(2).

The source model: the two simultaneously phase-matched conversion channels
(birefringent and grating-assisted, orthogonal signal/idler polarization
pairs) with efficiencies r1 and r2 produce

    |psi> = (sqrt(r1)|HV> + e^{i phi} sqrt(r2)|VH>) / sqrt(r1 + r2),

a Psi+ Bell state when r1 = r2 and phi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import FitError, ValidationError
from .poling import efficiency_ratio, efficiency_samples
from .util import _POISSON_MEAN_MAX, _check_array, _check_real, spawn_rng

__all__ = [
    "PolarizationState",
    "DensityMatrix4",
    "AnalyzerSetting",
    "CANONICAL_CHSH_ANGLES",
    "SINGLE_KETS",
    "state_from_efficiencies",
    "bell_psi_plus",
    "werner_state",
    "as_density_matrix",
    "concurrence",
    "fidelity",
    "purity",
    "coincidence_probability",
    "correlation",
    "chsh_s",
    "tomography_settings",
    "simulate_tomography_counts",
    "reconstruct_state",
    "TomographyResult",
    "entanglement_vs_fabrication",
]

_SQ2 = np.sqrt(2.0)
_HERMITIAN_TOL = 1e-9  # largest |rho - rho^dagger| entry accepted, then symmetrized

SINGLE_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQ2,
    "A": np.array([1.0, -1.0], dtype=complex) / _SQ2,
    "R": np.array([1.0, -1.0j], dtype=complex) / _SQ2,
    "L": np.array([1.0, 1.0j], dtype=complex) / _SQ2,
}

# (a, a', b, b') analyzer angles, degrees, that saturate the Bell bound for Psi+.
CANONICAL_CHSH_ANGLES = (0.0, 45.0, 22.5, 67.5)


@dataclass(frozen=True)
class PolarizationState:
    """Pure two-photon polarization state (amplitudes over HH, HV, VH, VV)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape != (4,):
            raise ValidationError("state needs exactly 4 amplitudes (HH, HV, VH, VV)")
        norm = np.linalg.norm(amp)
        if norm == 0:
            raise ValidationError("state amplitudes are all zero")
        object.__setattr__(self, "amplitudes", amp / norm)

    def density(self) -> "DensityMatrix4":
        return DensityMatrix4(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix4:
    """Validated 4x4 density matrix on the polarization pair space."""

    matrix: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (4, 4):
            raise ValidationError("density matrix must be 4x4")
        if np.max(np.abs(rho - rho.conj().T)) > _HERMITIAN_TOL:
            raise ValidationError("density matrix is not Hermitian within tolerance")
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.real(np.trace(rho)))
        if not np.isfinite(tr) or abs(tr - 1.0) > 1e-6:
            raise ValidationError(f"density matrix trace {tr:.8g} differs from 1")
        rho = rho / tr
        evals = np.linalg.eigvalsh(rho)
        if evals.min() < -1e-8:
            raise ValidationError(
                f"density matrix has negative eigenvalue {evals.min():.3e} beyond tolerance"
            )
        object.__setattr__(self, "matrix", rho)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def as_density_matrix(state) -> DensityMatrix4:
    """Coerce a PolarizationState / DensityMatrix4 / raw array to a density matrix."""
    if isinstance(state, DensityMatrix4):
        return state
    if isinstance(state, PolarizationState):
        return state.density()
    arr = np.asarray(state, dtype=complex)
    if arr.shape == (4,):
        return PolarizationState(arr).density()
    return DensityMatrix4(arr)


def state_from_efficiencies(
    r_birefringent: float, r_grating: float, relative_phase_rad: float = 0.0
) -> PolarizationState:
    """Pair state generated by two coexisting channels of given efficiencies.

    The birefringent-channel efficiency weights |HV> and the grating-channel
    efficiency weights |VH>; the grating amplitude carries
    exp(i relative_phase_rad). Only the ratio of the two efficiencies matters.
    """
    r_birefringent = _check_real("r_birefringent", r_birefringent, 0.0)
    r_grating = _check_real("r_grating", r_grating, 0.0)
    relative_phase_rad = _check_real("relative_phase_rad", relative_phase_rad)
    if r_birefringent + r_grating == 0:
        raise ValidationError("at least one channel efficiency must be positive")
    amp = np.zeros(4, dtype=complex)
    amp[1] = np.sqrt(r_birefringent)
    amp[2] = np.exp(1j * relative_phase_rad) * np.sqrt(r_grating)
    return PolarizationState(amp)


def bell_psi_plus() -> PolarizationState:
    """(|HV> + |VH>)/sqrt(2)."""
    return state_from_efficiencies(1.0, 1.0, 0.0)


def werner_state(p: float, pure: PolarizationState | None = None) -> DensityMatrix4:
    """p |psi><psi| + (1-p) I/4 (white-noise admixture model)."""
    p = _check_real("p", p, 0.0, 1.0)
    if pure is None:
        pure = bell_psi_plus()
    rho = p * pure.density().matrix + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix4(rho)


# --- entanglement metrics ---------------------------------------------------

_SIGMA_Y2 = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def concurrence(state) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    The lambda_i (square roots of the eigenvalues of rho rho_tilde) are taken
    as the singular values of tau = W^T (sigma_y x sigma_y) W, where
    rho = W W^dagger with W = V diag(sqrt(p)) from the eigendecomposition of
    rho: tau^dagger tau has the nonzero spectrum of rho rho_tilde, and its
    singular values keep full precision near zero, where the square roots of
    the eigenvalues of rho rho_tilde lose half the digits.
    """
    rho = as_density_matrix(state).matrix
    p, v = np.linalg.eigh(rho)
    w = v * np.sqrt(np.clip(p, 0.0, None))
    lam = np.linalg.svd(w.T @ _SIGMA_Y2 @ w, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def fidelity(state, target) -> float:
    """Overlap <psi_t| rho |psi_t> with a pure target state."""
    if isinstance(target, DensityMatrix4):
        evals, evecs = np.linalg.eigh(target.matrix)
        if evals.max() < 1.0 - 1e-9:
            raise ValidationError("fidelity target must be a pure state")
        psi = evecs[:, int(np.argmax(evals))]
    else:
        psi = (
            target.amplitudes
            if isinstance(target, PolarizationState)
            else PolarizationState(np.asarray(target)).amplitudes
        )
    return float(_probabilities(state, [psi])[0])


def purity(state) -> float:
    """Tr(rho^2)."""
    rho = as_density_matrix(state).matrix
    return float(np.real(np.trace(rho @ rho)))


# --- analyzer measurements ---------------------------------------------------


@dataclass(frozen=True)
class AnalyzerSetting:
    """Linear polarization analyzers in the two arms (degrees from H)."""

    theta_signal_deg: float
    theta_idler_deg: float

    def __post_init__(self):
        for name in ("theta_signal_deg", "theta_idler_deg"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))

    @property
    def hwp_signal_deg(self) -> float:
        return self.theta_signal_deg / 2.0

    @property
    def hwp_idler_deg(self) -> float:
        return self.theta_idler_deg / 2.0

    def ket(self) -> np.ndarray:
        ts = np.deg2rad(self.theta_signal_deg)
        ti = np.deg2rad(self.theta_idler_deg)
        ks = np.array([np.cos(ts), np.sin(ts)], dtype=complex)
        ki = np.array([np.cos(ti), np.sin(ti)], dtype=complex)
        return np.kron(ks, ki)


def _probabilities(state, kets) -> np.ndarray:
    """<k|rho|k>, the probability of passing analyzers with two-photon ket k, for each k."""
    rho = as_density_matrix(state).matrix
    return np.array([np.real(k.conj() @ rho @ k) for k in kets])


def coincidence_probability(state, setting: AnalyzerSetting) -> float:
    """Probability that both photons pass their linear analyzers."""
    return float(_probabilities(state, [setting.ket()])[0])


def _correlation_settings(pairs) -> list[AnalyzerSetting]:
    """Analyzers (t_s, t_i), (t_s+90, t_i+90), (t_s+90, t_i), (t_s, t_i+90) of each pair."""
    offsets = ((0.0, 0.0), (90.0, 90.0), (90.0, 0.0), (0.0, 90.0))
    bases = [AnalyzerSetting(ts, ti) for ts, ti in pairs]  # checks each angle before the offsets add to it
    return [AnalyzerSetting(b.theta_signal_deg + ds, b.theta_idler_deg + di) for b in bases for ds, di in offsets]


def _correlations(outcomes) -> list[float]:
    """E = (n0 + n1 - n2 - n3) / (n0 + n1 + n2 + n3) per 4 outcomes of _correlation_settings."""
    n = np.asarray(outcomes, dtype=float).reshape(-1, 4).T
    total = n[0] + n[1] + n[2] + n[3]
    if np.any(total <= 0):
        raise FitError("no coincidences in a correlation's four outcomes; raise pair rate or time")
    return ((n[0] + n[1] - n[2] - n[3]) / total).tolist()


def _chsh_pairs(angles_deg) -> list[tuple[float, float]]:
    a, ap, b, bp = angles_deg
    return [(a, b), (a, bp), (ap, b), (ap, bp)]


def _chsh_values(e) -> tuple[float, float]:
    """Three-term and four-term S from E(a,b), E(a,b'), E(a',b), E(a',b')."""
    e_ab, e_abp, e_apb, e_apbp = e
    return abs(e_ab - e_abp) + abs(e_apb) + abs(e_apbp), sum(abs(v) for v in e)


def correlation(state, theta_signal_deg: float, theta_idler_deg: float) -> float:
    """Polarization correlation E(theta_s, theta_i).

    E = [P(t_s, t_i) + P(t_s+90, t_i+90) - P(t_s+90, t_i) - P(t_s, t_i+90)]
    normalized by the four-outcome sum (unity for a normalized state).
    """
    settings = _correlation_settings([(theta_signal_deg, theta_idler_deg)])
    return _correlations(_probabilities(state, [s.ket() for s in settings]))[0]


def chsh_s(state, angles_deg=CANONICAL_CHSH_ANGLES) -> float:
    """Bell parameter in the three-term form

        S = |E(a,b) - E(a,b')| + |E(a',b)| + |E(a',b')|.

    This is the combination used to report the source's Bell violation; at the
    canonical angles (0, 45, 22.5, 67.5) it reaches 2 sqrt(2) for a Psi+ state
    and stays <= 2 for any product state. Away from the canonical angles the
    three-term form is not a faithful separability witness (product states can
    exceed 2), so angle choices other than the canonical set should be
    interpreted with care; the chsh command also reports the four-term sum.
    """
    return _chsh_values([correlation(state, *pair) for pair in _chsh_pairs(angles_deg)])[0]


def _analyzer_counts(
    state, kets, pair_hz, t, seed, poisson, accidental_hz=0.0, singles_hz=(0.0, 0.0), tau_c_s=1e-9
) -> list[tuple[float, float, float]]:
    """(signal singles, idler singles, coincidences) behind the analyzers of
    each two-photon ket k over t seconds: the means (R_s t, R_i t,
    t (pair_hz <k|rho|k> + R_acc)) with (R_s, R_i) = singles_hz and
    R_acc = accidental_hz + R_s R_i tau_c, or with poisson=True a draw from
    the stream spawn_rng(seed, k), singles with a positive mean first."""
    pair_hz = _check_real("pair_rate_hz", pair_hz, 0.0)
    t = _check_real("integration_time_s", t, above=0.0)
    accidental_hz = _check_real("accidental_rate_hz", accidental_hz, 0.0)
    rate_s = _check_real("singles_rate_s_hz", singles_hz[0], 0.0)
    rate_i = _check_real("singles_rate_i_hz", singles_hz[1], 0.0)
    tau_c_s = _check_real("tau_c_s", tau_c_s, above=0.0)
    acc = accidental_hz + rate_s * rate_i * tau_c_s
    probs = _probabilities(state, kets).tolist()
    means = [(rate_s * t, rate_i * t, pair_hz * p * t + acc * t) for p in probs]
    if not poisson:
        return means
    if not all(m <= _POISSON_MEAN_MAX for mean in means for m in mean):
        raise ValidationError(f"expected counts must not exceed {_POISSON_MEAN_MAX:.6g}, the largest Poisson mean")
    counts = []
    for k, mean in enumerate(means):
        rng = spawn_rng(seed, k)
        counts.append(tuple(float(rng.poisson(m)) if m > 0 else 0.0 for m in mean))
    return counts


# --- tomography ---------------------------------------------------------------

_TOMO_LABELS = ("H", "V", "D", "R")


def tomography_settings() -> list[tuple[str, str]]:
    """The 16 projective settings {H, V, D, R} x {H, V, D, R}."""
    return [(s, i) for s in _TOMO_LABELS for i in _TOMO_LABELS]


def _label_ket(label_signal: str, label_idler: str) -> np.ndarray:
    """Two-photon ket |l_s l_i> of labeled analyzer settings (any case)."""
    try:
        return np.kron(SINGLE_KETS[label_signal.upper()], SINGLE_KETS[label_idler.upper()])
    except KeyError as exc:
        raise ValidationError(f"unknown analyzer label {exc.args[0]!r}; use H/V/D/A/R/L") from None


def simulate_tomography_counts(
    state,
    pair_rate_hz: float,
    integration_time_s: float,
    seed: int | None = None,
    accidental_rate_hz: float = 0.0,
    poisson: bool = True,
    settings=None,
) -> list[dict]:
    """Forward-model counts for each tomography setting.

    With poisson=False returns the exact expected (generally non-integer)
    counts. Accidentals add a flat accidental_rate_hz to every setting.
    Setting k draws from the stream spawn_rng(seed, k); seed None means 0.
    """
    settings = tomography_settings() if settings is None else list(settings)
    kets = [_label_ket(*s) for s in settings]
    counts = _analyzer_counts(
        state, kets, pair_rate_hz, integration_time_s, seed, poisson, accidental_rate_hz
    )
    return [
        {
            "setting_signal": s,
            "setting_idler": i,
            "coincidences": c,
            "integration_time_s": float(integration_time_s),
            "accidentals": float(accidental_rate_hz * integration_time_s),
        }
        for (s, i), (_, _, c) in zip(settings, counts)
    ]


@dataclass(frozen=True)
class TomographyResult:
    """Reconstructed state and how the maximum-likelihood refinement ran.

    iterations and converged report the L-BFGS-B run (its iteration count and
    success flag) whichever candidate is returned; linear_inversion_nll scores
    the projected linear-inversion start point on the same likelihood as
    neg_log_likelihood.
    """

    rho: DensityMatrix4
    method: str
    neg_log_likelihood: float
    flux: float
    iterations: int
    converged: bool
    linear_inversion_nll: float


def _projected_physical(rho_raw: np.ndarray) -> np.ndarray:
    """Nearest physical state: hermitize, clip negative eigenvalues, renormalize."""
    rho = 0.5 * (rho_raw + rho_raw.conj().T)
    evals, evecs = np.linalg.eigh(rho)
    evals = np.clip(evals, 0.0, None)
    if evals.sum() == 0:
        raise FitError("projection produced the zero matrix; counts are degenerate")
    rho = (evecs * evals) @ evecs.conj().T
    return rho / np.real(np.trace(rho))


def _cholesky_params(rho: np.ndarray) -> np.ndarray:
    """Parameter vector (real parts, then imaginary parts) of a factor M with
    rho ~ M M^dagger: the Cholesky factor of rho mixed with a little white
    noise, so that every p_k starts positive."""
    eps = 1e-7
    m = np.linalg.cholesky((1.0 - eps) * rho + eps * np.eye(4) / 4.0).ravel()
    return np.concatenate([m.real, m.imag])


def _factor_from_params(t: np.ndarray) -> np.ndarray:
    return (t[:16] + 1j * t[16:]).reshape(4, 4)


def _rho_from_params(t: np.ndarray) -> np.ndarray:
    m = _factor_from_params(t)
    rho = m @ m.conj().T
    return rho / np.real(np.trace(rho))


def _profiled_nll(t, amat, freqs, weights):
    """Profiled Poisson NLL per count, f(M)/N = log S - sum_k nu_k log p_k,
    and its gradient in the parameters of M.

    A = M M^dagger, p_k = Tr(P_k A), S = sum_k w_k p_k, nu_k = n_k/N; row k
    of amat is conj(P_k) flattened, so p = Re(amat @ vec(A)). f does not
    change when A is rescaled. Its gradient in M is 2 G M with
    G = sum_k (w_k/S - nu_k/p_k) P_k (James, Kwiat, Munro & White, PRA 64,
    052312 (2001)); the MLE satisfies G rho = 0 and G >= 0.

    M is a full complex 4x4 matrix, not a triangular one: on Poisson counts
    of a pure state the MLE is (nearly) rank-deficient, and a triangular
    factor reaches such states only by driving its diagonal to zero, where
    L-BFGS-B stalls short of the optimum.
    """
    m = _factor_from_params(t)
    p = np.real(amat @ (m @ m.conj().T).ravel())
    s = weights @ p
    seen = freqs > 0
    f = np.log(s) - freqs[seen] @ np.log(p[seen])
    coef = weights / s - np.divide(freqs, p, out=np.zeros_like(p), where=seen)
    gm = (2.0 * (coef @ amat.conj()).reshape(4, 4) @ m).ravel()
    return f, np.concatenate([gm.real, gm.imag])


def reconstruct_state(records: list[dict], subtract_accidentals: bool = True) -> TomographyResult:
    """Density matrix from 16-setting coincidence counts.

    Pipeline: accidental subtraction (optional, floored at zero) -> linear
    inversion from count fractions -> projection onto the physical set ->
    Poisson maximum-likelihood refinement over rho ~ M M^dagger with the
    total-flux scale profiled out analytically (the likelihood is then the
    multinomial one, so a noisy flux estimate cannot distort the state),
    minimized by L-BFGS-B on its exact gradient from the Cholesky factor of
    the projected linear inversion. Returns the MLE unless the projected
    linear inversion scores as well up to rounding, so exact (noise-free)
    data reproduces its state exactly.

    Each record needs keys setting_signal, setting_idler, coincidences,
    integration_time_s; accidentals is optional (expected accidental counts in
    the same integration window). Analyzer labels are case-insensitive. The
    settings must determine the state: their projectors must span all 16
    dimensions of the 4x4 Hermitian matrices.
    """
    labels = [(r["setting_signal"].upper(), r["setting_idler"].upper()) for r in records]
    kets = np.array([_label_ket(s, i) for s, i in labels])
    # row k is conj(P_k) flattened, P_k = |k><k|: p_k = Re(amat @ vec(rho)) = Tr(P_k rho)
    amat = (kets.conj()[:, :, None] * kets[:, None, :]).reshape(-1, 16)
    rank = np.linalg.matrix_rank(amat)
    if rank < 16:
        raise ValidationError(f"tomography settings span {rank} of 16 dimensions; need all 16")
    counts = _check_array("coincidences", [r["coincidences"] for r in records], lo=0.0)
    times = _check_array("integration_time_s", [r["integration_time_s"] for r in records], above=0.0)
    acc = _check_array("accidentals", [r.get("accidentals", 0.0) for r in records])
    if subtract_accidentals:
        counts = np.clip(counts - acc, 0.0, None)

    # Per-unit-time rates on a common exposure scale.
    t_ref = times[0]
    weights = times / t_ref
    rates = counts * (t_ref / times)

    # Flux from the rectilinear subset, which resolves the identity.
    rect = [k for k, (s, i) in enumerate(labels) if s in "HV" and i in "HV"]
    if len(rect) < 4:
        raise ValidationError("settings must include the four rectilinear combinations")
    flux = float(rates[rect].sum())
    if flux <= 0:
        raise FitError("no counts in the rectilinear settings; flux scale undefined")

    rho_li, *_ = np.linalg.lstsq(amat, (rates / flux).astype(complex), rcond=None)
    rho_li = _projected_physical(rho_li.reshape(4, 4))

    def nll_of(rho: np.ndarray) -> float:
        # Poisson likelihood with the flux scale profiled out: at fixed shape
        # the optimal scale is total counts over total predicted weight.
        shape = np.clip(np.real(amat @ rho.ravel()), 1e-12, None) * weights
        mu = np.clip(counts.sum() / shape.sum() * shape, 1e-12, None)
        return float(np.sum(mu - counts * np.log(mu)))

    res = minimize(
        _profiled_nll,
        _cholesky_params(rho_li),
        args=(amat, counts / counts.sum(), weights),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 1000, "ftol": 0.0, "gtol": 1e-8},
    )
    rho_mle = _rho_from_params(res.x)
    li_nll, mle_nll = nll_of(rho_li), nll_of(rho_mle)
    # The white noise mixed into the start point lingers along directions the
    # data leave flat to first order (exact counts of a pure state), where it
    # moves the likelihood by less than rounding: keep the linear inversion
    # unless the MLE scores better by more than that.
    if mle_nll < li_nll - 1e-12 * abs(li_nll):
        method, rho, nll = "mle", rho_mle, mle_nll
    else:
        method, rho, nll = "linear_inversion", rho_li, li_nll
    return TomographyResult(
        DensityMatrix4(rho), method, nll, flux / t_ref, int(res.nit), bool(res.success), li_nll
    )


# --- source quality vs fabrication errors ------------------------------------


def _pair_state_metrics(r_birefringent, r_grating, relative_phase_rad):
    """Concurrence and Bell fidelity of state_from_efficiencies, elementwise."""
    total = r_birefringent + r_grating
    if np.any(total == 0):
        raise ValidationError("at least one channel efficiency must be positive")
    # C <= 1 (AM-GM); the clip removes a one-ulp overshoot near balance
    conc = np.minimum(2.0 * np.sqrt(r_birefringent * r_grating) / total, 1.0)
    return conc, 0.5 * (1.0 + conc * np.cos(relative_phase_rad))


def entanglement_vs_fabrication(
    period_mm: float,
    duty_cycle: float,
    num_domains: int,
    sigma_z_grid_um,
    samples: int = 2000,
    seed: int = 0,
    relative_phase_rad: float = 0.0,
    reorder: str = "resample",
    qpm_order: int = 1,
) -> list[dict]:
    """Concurrence/fidelity statistics of the emitted state vs wall errors.

    The grating channel converts through Fourier order m = qpm_order with
    efficiency |c_m|^2. Per realization that efficiency is reduced by the
    realized order-m eta while the birefringent channel is unaffected (its
    mismatch is zero, so wall errors add no phase). The emitted
    state_from_efficiencies(r1, r2 eta, phi) is pure, so with rg = r2 eta its
    concurrence has the closed form
    (Wootters, PRL 80, 2245 (1998)) C = 2 |a_HH a_VV - a_HV a_VH| =
    2 sqrt(r1 rg) / (r1 + rg), and its fidelity with the Bell state is
    F = |sqrt(r1) + e^{i phi} sqrt(rg)|^2 / (2 (r1 + rg)) = (1 + C cos phi) / 2;
    both are evaluated over all samples of a sigma at once.

    eta is drawn as in monte_carlo_efficiency, so at the same seed, geometry
    and qpm order both report the same mean_eta for each sigma, and the rows
    of different sigma share their draws and are correlated. The relative
    phase must be a finite number; it is checked before any draw.
    """
    phase = _check_real("relative_phase_rad", relative_phase_rad)
    etas = efficiency_samples(
        period_mm,
        duty_cycle,
        num_domains,
        sigma_z_grid_um,
        samples,
        seed,
        qpm_order=qpm_order,
        reorder=reorder,
    )
    return _entanglement_rows(sigma_z_grid_um, etas, duty_cycle, qpm_order, phase)


def _entanglement_rows(sigma_z_grid_um, etas, duty_cycle, qpm_order=1, relative_phase_rad=0.0):
    """entanglement_vs_fabrication rows from the eta samples of each sigma."""
    r_bire = efficiency_ratio(duty_cycle, 0)
    r_grating = efficiency_ratio(duty_cycle, qpm_order)
    rows = []
    for sigma, eta in zip(np.asarray(sigma_z_grid_um, dtype=float), etas):
        conc, fid = _pair_state_metrics(r_bire, r_grating * eta, relative_phase_rad)
        rows.append(
            {
                "sigma_z_um": float(sigma),
                "mean_eta": float(eta.mean()),
                "mean_concurrence": float(conc.mean()),
                "std_concurrence": float(conc.std(ddof=1) if eta.size > 1 else 0.0),
                "mean_fidelity": float(fid.mean()),
                "std_fidelity": float(fid.std(ddof=1) if eta.size > 1 else 0.0),
            }
        )
    return rows
