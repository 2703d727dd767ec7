"""Polarization two-qubit states: metrics, correlations, tomography.

Closed-form oracles: for |psi> = (sqrt(R0)|HV> + e^{i phi} sqrt(R1)|VH>)/norm,
    concurrence C = 2 sqrt(R0 R1) / (R0 + R1)
    fidelity to the balanced Bell state F = (sqrt(R0) + sqrt(R1))^2 / (2 (R0 + R1))
and for a Werner-type mixture of weight p on that Bell state,
    C = max(0, (3p - 1)/2),  F = (3p + 1)/4,  S = 2 sqrt(2) p.
"""

import math

import numpy as np
import pytest

from coexpm import biphoton as bp
from coexpm.errors import ValidationError
from coexpm.util import spawn_rng

ROOT2 = math.sqrt(2.0)


def _random_pure_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def _random_product_state(rng):
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    return np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))


def _projector(label_signal, label_idler):
    """Rank-1 projector |l_s l_i><l_s l_i| from the public single-photon kets."""
    k = np.kron(bp.SINGLE_KETS[label_signal], bp.SINGLE_KETS[label_idler])
    return np.outer(k, k.conj())


# ---------------------------------------------------------------- state algebra


def test_state_from_efficiencies_places_amplitudes():
    st = bp.state_from_efficiencies(0.18, 0.02, relative_phase_rad=0.3)
    amps = st.amplitudes
    assert amps[0] == 0.0 and amps[3] == 0.0
    assert abs(amps[1]) ** 2 == pytest.approx(0.9)  # 0.18 / 0.20
    assert abs(amps[2]) ** 2 == pytest.approx(0.1)
    assert np.angle(amps[2] / amps[1]) == pytest.approx(0.3)


@pytest.mark.parametrize(
    "args, name",
    [
        ((math.inf, 1.0), "r_birefringent must be finite"),
        ((1.0, math.inf), "r_grating must be finite"),
        ((math.nan, 1.0), "r_birefringent must be finite"),
        ((-1.0, 1.0), "r_birefringent must be >= 0"),
        ((1.0, 1.0, math.inf), "relative_phase_rad must be finite"),
        ((1.0, 1.0, math.nan), "relative_phase_rad must be finite"),
    ],
    ids=["r1-inf", "r2-inf", "r1-nan", "r1-negative", "phase-inf", "phase-nan"],
)
def test_non_finite_or_negative_channel_inputs_are_rejected(args, name):
    # they used to reach sqrt and exp and warn instead of raising
    with pytest.raises(ValidationError, match=name):
        bp.state_from_efficiencies(*args)


def test_bell_state_is_balanced():
    bell = bp.bell_psi_plus()
    assert bp.concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    assert bp.fidelity(bell, bell) == pytest.approx(1.0, abs=1e-12)
    assert bp.purity(bell) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_closed_form_across_imbalance():
    for r0, r1 in [(0.5, 0.5), (0.2, 0.1), (1.0, 0.98), (0.3, 0.003)]:
        st = bp.state_from_efficiencies(r0, r1)
        want = 2.0 * math.sqrt(r0 * r1) / (r0 + r1)
        assert bp.concurrence(st) == pytest.approx(want, abs=1e-12)


def test_fidelity_closed_form_across_imbalance():
    bell = bp.bell_psi_plus()
    for r0, r1 in [(0.5, 0.5), (1.0, 0.98), (0.4, 0.1)]:
        st = bp.state_from_efficiencies(r0, r1)
        want = (math.sqrt(r0) + math.sqrt(r1)) ** 2 / (2.0 * (r0 + r1))
        assert bp.fidelity(st, bell) == pytest.approx(want, abs=1e-12)


def test_two_percent_imbalance_keeps_entanglement():
    st = bp.state_from_efficiencies(1.0, 0.98)
    assert bp.concurrence(st) == pytest.approx(0.999948983496128, abs=1e-12)
    assert bp.fidelity(st, bp.bell_psi_plus()) == pytest.approx(
        0.9999744917480637, abs=1e-12
    )


def test_relative_phase_does_not_change_concurrence():
    vals = [
        bp.concurrence(bp.state_from_efficiencies(0.3, 0.2, relative_phase_rad=phi))
        for phi in (0.0, 0.7, 2.0, math.pi)
    ]
    assert np.ptp(vals) < 1e-12


def test_werner_metrics_closed_form():
    for p in (*np.linspace(0.0, 1.0, 21), 1.0 / 3.0, 0.977):
        w = bp.werner_state(p)
        assert bp.concurrence(w) == pytest.approx(max(0.0, (3.0 * p - 1.0) / 2.0), abs=1e-12)
        assert bp.fidelity(w, bp.bell_psi_plus()) == pytest.approx((3.0 * p + 1.0) / 4.0, abs=1e-12)
        assert bp.purity(w) == pytest.approx((1.0 + 3.0 * p * p) / 4.0, abs=1e-12)


def test_concurrence_of_random_pure_states_matches_closed_form():
    rng = spawn_rng(23)
    for _ in range(2000):
        a = _random_pure_state(rng)
        want = 2.0 * abs(a[0] * a[3] - a[1] * a[2])
        assert bp.concurrence(bp.PolarizationState(a)) == pytest.approx(want, abs=1e-12)


# Psi+, Psi-, Phi+ and Phi- over HH, HV, VH, VV
BELL_KETS = [np.array(v) / ROOT2 for v in ([0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1])]
# The magic basis (Hill & Wootters, PRL 78, 5022 (1997)) as columns over HH,
# HV, VH, VV: the maximally entangled states are its real combinations.
MAGIC = np.array([[1, 0, 0, 1], [1j, 0, 0, -1j], [0, 1j, 1j, 0], [0, 1, -1, 0]]).T / ROOT2


def _closest_maximally_entangled_ket(rho):
    """The maximally entangled state of largest fidelity with rho: the top
    eigenvector of Re(M^dagger rho M), a real combination of the magic basis
    M (Grondalski, Etlinger & James, PLA 300, 573 (2002))."""
    _, vecs = np.linalg.eigh((MAGIC.conj().T @ rho @ MAGIC).real)
    return MAGIC @ vecs[:, -1]


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_bell_fidelity_is_bounded_by_the_concurrence(rank):
    # F <= (1 + C) / 2 for every two-qubit state and every maximally
    # entangled target (Verstraete & Verschelde, PRA 66, 022307 (2002)),
    # with equality for pure states at the closest one. The states are
    # random mixtures of `rank` random pure states.
    rng = spawn_rng(41, rank)
    for _ in range(300):
        kets = [_random_pure_state(rng) for _ in range(rank)]
        weights = rng.dirichlet(np.ones(rank))
        rho = bp.DensityMatrix4(sum(p * np.outer(k, k.conj()) for p, k in zip(weights, kets)))
        bound = (1.0 + bp.concurrence(rho)) / 2.0
        closest = bp.fidelity(rho, _closest_maximally_entangled_ket(rho.matrix))
        assert max(bp.fidelity(rho, bell) for bell in BELL_KETS) <= closest + 1e-12
        assert closest <= bound + 1e-12
        if rank == 1:
            assert closest == pytest.approx(bound, abs=1e-12)


def test_balanced_state_with_phase_has_unit_concurrence():
    st = bp.state_from_efficiencies(1.0, 1.0, relative_phase_rad=0.7)
    assert bp.concurrence(st) == pytest.approx(1.0, abs=1e-14)


def test_concurrence_of_random_product_states_is_zero():
    rng = spawn_rng(17)
    for _ in range(50):
        st = bp.PolarizationState(_random_product_state(rng))
        assert bp.concurrence(st) < 1e-8


def test_density_matrix_validation():
    good = np.eye(4) / 4.0
    bp.as_density_matrix(good)
    with pytest.raises(ValidationError):
        bp.as_density_matrix(np.eye(4))  # trace 4
    nonpsd = np.diag([0.6, 0.6, -0.1, -0.1])
    with pytest.raises(ValidationError):
        bp.as_density_matrix(nonpsd)
    skew = good.copy()
    skew[0, 1] = 0.2  # grossly non-hermitian
    with pytest.raises(ValidationError):
        bp.as_density_matrix(skew)


def test_hermiticity_threshold_is_1e_9():
    good = np.eye(4) / 4.0
    for defect, accepted in ((5e-10, True), (2e-9, False)):
        rho = good.astype(complex)
        rho[0, 1] = 1j * defect  # |rho - rho^dagger| = defect at (0, 1) and (1, 0)
        if accepted:
            np.testing.assert_allclose(bp.DensityMatrix4(rho).matrix[0, 1], 0.5j * defect, rtol=0, atol=1e-24)
        else:
            with pytest.raises(ValidationError, match="Hermitian"):
                bp.DensityMatrix4(rho)


# ------------------------------------------------------------- polarizer algebra


def test_analyzer_halfwave_plate_angles():
    s = bp.AnalyzerSetting(theta_signal_deg=45.0, theta_idler_deg=22.5)
    assert s.hwp_signal_deg == 22.5
    assert s.hwp_idler_deg == 11.25


def test_correlation_closed_form_for_bell_state():
    bell = bp.bell_psi_plus()
    rng = spawn_rng(3)
    for _ in range(25):
        ts, ti = rng.uniform(0.0, 180.0, size=2)
        want = -math.cos(math.radians(2.0 * (ts + ti)))
        assert bp.correlation(bell, ts, ti) == pytest.approx(want, abs=1e-12)


def test_correlation_factorizes_for_product_state():
    hv = bp.PolarizationState([0.0, 1.0, 0.0, 0.0])  # |H>|V>
    rng = spawn_rng(4)
    for _ in range(25):
        ts, ti = rng.uniform(0.0, 180.0, size=2)
        want = math.cos(math.radians(2.0 * ts)) * -math.cos(math.radians(2.0 * ti))
        assert bp.correlation(hv, ts, ti) == pytest.approx(want, abs=1e-12)


def test_coincidence_probability_normalization():
    st = bp.state_from_efficiencies(0.5, 0.4, relative_phase_rad=0.2)
    for ts, ti in [(0.0, 0.0), (30.0, 75.0)]:
        total = sum(
            bp.coincidence_probability(st, bp.AnalyzerSetting(a, b))
            for a in (ts, ts + 90.0)
            for b in (ti, ti + 90.0)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_diagonal_basis_fringe_is_perfect_for_bell():
    # scanning the idler analyzer with the signal fixed at 45 degrees
    bell = bp.bell_psi_plus()
    thetas = np.arange(0.0, 181.0, 5.0)  # step must include 45 and 135
    rates = np.array(
        [bp.coincidence_probability(bell, bp.AnalyzerSetting(45.0, t)) for t in thetas]
    )
    lo, hi = rates.min(), rates.max()
    assert (hi - lo) / (hi + lo) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------- CHSH


def test_chsh_maximal_for_bell_at_canonical_angles():
    s = bp.chsh_s(bp.bell_psi_plus())
    assert s == pytest.approx(2.0 * ROOT2, abs=1e-12)
    e = [bp.correlation(bp.bell_psi_plus(), *pair) for pair in bp._chsh_pairs(bp.CANONICAL_CHSH_ANGLES)]
    s4 = bp._chsh_values(e)[1]  # the four-term S the chsh command reports
    assert s4 == pytest.approx(2.0 * ROOT2, abs=1e-12)


def test_chsh_scales_linearly_with_werner_weight():
    for p in (0.2, 0.5, 0.7071, 0.9769, 1.0):
        s = bp.chsh_s(bp.werner_state(p))
        assert s == pytest.approx(2.0 * ROOT2 * p, abs=1e-10)


def test_product_states_respect_the_bound_at_canonical_angles():
    rng = spawn_rng(8)
    for _ in range(200):
        st = bp.PolarizationState(_random_product_state(rng))
        assert bp.chsh_s(st) <= 2.0 + 1e-9


def test_separable_mixtures_respect_the_bound_at_canonical_angles():
    rng = spawn_rng(9)
    for _ in range(50):
        weights = rng.dirichlet(np.ones(4))
        rho = sum(
            w * bp.PolarizationState(_random_product_state(rng)).density().matrix
            for w in weights
        )
        st = bp.as_density_matrix(rho)
        assert bp.chsh_s(st) <= 2.0 + 1e-9


def test_three_term_estimator_can_exceed_two_at_pathological_angles():
    # the shortened |E1 - E2| + |E3| + |E4| form is only a Bell bound at the
    # canonical angle set; a product state and a deliberately bad angle
    # choice push it to 4, which the docstring warns about
    hh = bp.PolarizationState([1.0, 0.0, 0.0, 0.0])
    assert bp.chsh_s(hh, (0.0, 0.0, 0.0, 90.0)) == pytest.approx(4.0, abs=1e-12)


# ----------------------------------------------------------------- tomography


def test_sixteen_settings_span_the_state_space():
    settings = bp.tomography_settings()
    assert len(settings) == 16
    basis = np.array([_projector(a, b).reshape(-1) for a, b in settings])
    assert np.linalg.matrix_rank(basis) == 16


def test_expected_rates_for_bell_state():
    bell = bp.bell_psi_plus()
    records = bp.simulate_tomography_counts(bell, 1.0, 1.0, poisson=False)
    rates = {(r["setting_signal"], r["setting_idler"]): r["coincidences"] for r in records}
    assert rates[("H", "V")] == pytest.approx(0.5, abs=1e-12)
    assert rates[("V", "H")] == pytest.approx(0.5, abs=1e-12)
    assert rates[("H", "H")] == pytest.approx(0.0, abs=1e-12)
    assert rates[("D", "D")] == pytest.approx(0.5, abs=1e-12)


def test_noise_free_reconstruction_is_exact():
    rng = spawn_rng(12)
    for _ in range(10):
        st = bp.PolarizationState(_random_pure_state(rng))
        counts = bp.simulate_tomography_counts(
            st, pair_rate_hz=1000.0, integration_time_s=10.0, seed=0, poisson=False
        )
        result = bp.reconstruct_state(counts)
        assert bp.fidelity(bp.as_density_matrix(result.rho), st) > 1.0 - 1e-9


def test_poisson_reconstruction_tracks_the_true_state():
    st = bp.bell_psi_plus()
    counts = bp.simulate_tomography_counts(
        st, pair_rate_hz=439.0, integration_time_s=10.0, seed=2, poisson=True
    )
    result = bp.reconstruct_state(counts)
    assert result.method in ("linear_inversion", "mle")
    assert bp.fidelity(bp.as_density_matrix(result.rho), st) > 0.97


def test_reconstruction_subtracts_flat_accidentals():
    st = bp.state_from_efficiencies(0.5, 0.45, relative_phase_rad=0.4)
    counts = bp.simulate_tomography_counts(
        st,
        pair_rate_hz=2000.0,
        integration_time_s=10.0,
        seed=0,
        accidental_rate_hz=25.0,
        poisson=False,
    )
    # exact counts plus exact accidental column: subtraction must undo it
    result = bp.reconstruct_state(counts, subtract_accidentals=True)
    assert bp.fidelity(bp.as_density_matrix(result.rho), st) > 1.0 - 1e-6


def test_reconstruction_input_validation():
    st = bp.bell_psi_plus()
    counts = bp.simulate_tomography_counts(
        st, pair_rate_hz=100.0, integration_time_s=1.0, seed=0, poisson=False
    )
    with pytest.raises(ValidationError):
        bp.reconstruct_state(counts[:10])  # fewer than 16 settings
    dup = counts[:15] + [counts[0]]
    with pytest.raises(ValidationError):
        bp.reconstruct_state(dup)


@pytest.mark.parametrize("key", ["coincidences", "integration_time_s", "accidentals"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_counts_times_or_accidentals_are_rejected(key, bad):
    counts = bp.simulate_tomography_counts(bp.bell_psi_plus(), 100.0, 1.0, seed=0, accidental_rate_hz=1.0)
    counts[3][key] = bad
    with pytest.raises(ValidationError, match="finite"):
        bp.reconstruct_state(counts)


def test_rank_deficient_setting_set_is_rejected():
    # {H,V,D,A} x {H,V,D,A}: 16 distinct labels, but with no circular
    # analyzer the projectors are real and span only 9 of the 16 dimensions,
    # so the sign of Im(rho) is invisible: (|HH> + i|VV>)/sqrt(2) and its
    # conjugate give identical counts.
    st = bp.PolarizationState(np.array([1.0, 0.0, 0.0, 1.0j]))
    settings = [(s, i) for s in "HVDA" for i in "HVDA"]
    counts = bp.simulate_tomography_counts(
        st, 1000.0, 10.0, poisson=False, settings=settings
    )
    with pytest.raises(ValidationError, match="span 9 of 16"):
        bp.reconstruct_state(counts)


def test_lowercase_labels_reconstruct_like_uppercase():
    st = bp.state_from_efficiencies(0.5, 0.45, relative_phase_rad=0.4)
    upper = bp.simulate_tomography_counts(st, 439.0, 10.0, seed=3)
    lower = [
        dict(
            r,
            setting_signal=r["setting_signal"].lower(),
            setting_idler=r["setting_idler"].lower(),
        )
        for r in upper
    ]
    a = bp.reconstruct_state(upper)
    b = bp.reconstruct_state(lower)
    assert b.method == a.method
    assert b.neg_log_likelihood == a.neg_log_likelihood
    np.testing.assert_array_equal(b.rho.matrix, a.rho.matrix)


def test_profiled_nll_gradient_matches_central_differences():
    rng = spawn_rng(31)
    st = bp.werner_state(0.9)
    records = bp.simulate_tomography_counts(st, 439.0, 10.0, seed=4)
    amat = np.array(
        [_projector(r["setting_signal"], r["setting_idler"]) for r in records]
    ).conj().reshape(16, 16)
    counts = np.array([r["coincidences"] for r in records])
    freqs = counts / counts.sum()
    weights = rng.uniform(0.5, 2.0, size=16)  # unequal integration times
    h = 1e-6
    for _ in range(5):
        t = rng.normal(size=32)
        _, grad = bp._profiled_nll(t, amat, freqs, weights)
        fd = np.empty(32)
        for j in range(32):
            e = np.zeros(32)
            e[j] = h
            fd[j] = (
                bp._profiled_nll(t + e, amat, freqs, weights)[0]
                - bp._profiled_nll(t - e, amat, freqs, weights)[0]
            ) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)


def _kkt_residuals(result, records):
    """||G rho||_F / N and lambda_min(G) / N at the returned state, with
    G = (N/S) sum_k w_k P_k - sum_k (n_k/p_k) P_k over accidental-subtracted
    counts n_k; the MLE has G rho = 0 and G >= 0."""
    counts = np.clip(
        [r["coincidences"] - r.get("accidentals", 0.0) for r in records], 0.0, None
    )
    times = np.array([r["integration_time_s"] for r in records])
    weights = times / times[0]
    proj = np.array(
        [_projector(r["setting_signal"], r["setting_idler"]) for r in records]
    )
    rho = result.rho.matrix
    p = np.real(np.einsum("kij,ji->k", proj, rho))
    total = counts.sum()
    n_over_p = np.where(counts > 0, counts / np.maximum(p, 1e-300), 0.0)
    coef = total * weights / (weights @ p) - n_over_p
    g = np.einsum("k,kij->ij", coef, proj)
    return np.linalg.norm(g @ rho) / total, np.linalg.eigvalsh(g)[0] / total


@pytest.mark.parametrize("p", [1.0, 0.97, 0.9])
def test_maximum_likelihood_state_meets_the_kkt_conditions(p):
    st = bp.werner_state(p)
    for seed in range(10):
        records = bp.simulate_tomography_counts(
            st, 439.0, 10.0, seed=seed, accidental_rate_hz=0.0 if p == 1.0 else 2.0
        )
        result = bp.reconstruct_state(records)
        stationarity, lam_min = _kkt_residuals(result, records)
        assert stationarity < 1e-6
        assert lam_min > -1e-6
        assert result.converged
        assert result.neg_log_likelihood <= result.linear_inversion_nll


def test_tomography_result_reports_the_mle_run():
    bell = bp.bell_psi_plus()
    noisy = bp.reconstruct_state(bp.simulate_tomography_counts(bell, 439.0, 10.0, seed=2))
    assert noisy.method == "mle" and noisy.converged and noisy.iterations > 0
    assert noisy.neg_log_likelihood < noisy.linear_inversion_nll
    # exact counts: the linear inversion is already the MLE and is kept exactly
    exact = bp.reconstruct_state(
        bp.simulate_tomography_counts(bell, 439.0, 10.0, poisson=False)
    )
    assert exact.method == "linear_inversion"
    assert exact.neg_log_likelihood == exact.linear_inversion_nll
    assert bp.fidelity(exact.rho, bell) == pytest.approx(1.0, abs=1e-14)


def test_simulated_counts_reproducible():
    st = bp.bell_psi_plus()
    a = bp.simulate_tomography_counts(st, 439.0, 10.0, seed=5)
    b = bp.simulate_tomography_counts(st, 439.0, 10.0, seed=5)
    c = bp.simulate_tomography_counts(st, 439.0, 10.0, seed=6)
    assert a == b
    assert a != c


# ------------------------------------------------- link to fabrication errors


def test_entanglement_survives_fabrication_noise():
    from coexpm.poling import solve_balanced_duty_cycle

    duty = solve_balanced_duty_cycle(1)  # exactly balanced -> C = F = 1 at zero error
    rows = bp.entanglement_vs_fabrication(
        2.0, duty, 8, [0.0, 50.0, 100.0], samples=200, seed=1
    )
    assert rows[0]["mean_concurrence"] == rows[0]["mean_fidelity"] == 1.0
    c_means = [r["mean_concurrence"] for r in rows]
    f_means = [r["mean_fidelity"] for r in rows]
    assert all(a >= b for a, b in zip(c_means, c_means[1:]))
    assert all(a >= b for a, b in zip(f_means, f_means[1:]))
    assert c_means[-1] > 0.95
    assert f_means[-1] > 0.99


def test_entanglement_and_monte_carlo_share_the_reorder_default():
    from coexpm.errors import SolverError
    from coexpm.poling import monte_carlo_efficiency

    # 5 um errors on a 15 um period make walls cross; "resample" gives up
    for run in (monte_carlo_efficiency, bp.entanglement_vs_fabrication):
        with pytest.raises(SolverError, match="use reorder='allow'"):
            run(0.015, 0.735, 64, [5.0], samples=50)
    sigmas = [0.0, 100.0, 400.0]
    mc = monte_carlo_efficiency(2.0, 0.735, 8, sigmas, samples=200, seed=3)
    ent = bp.entanglement_vs_fabrication(2.0, 0.735, 8, sigmas, samples=200, seed=3)
    assert [r["mean_eta"] for r in ent] == [r["mean_eta"] for r in mc]


def test_entanglement_closed_form_matches_density_matrix_path():
    from coexpm.poling import efficiency_ratio

    bell = bp.bell_psi_plus()
    r_bire, r_grating = efficiency_ratio(0.7, 0), efficiency_ratio(0.7, 1)
    eta = np.array([0.0, 0.3, 0.9, 1.0])
    for phi in (0.0, 0.7):
        conc, fid = bp._pair_state_metrics(r_bire, r_grating * eta, phi)
        for e, c, f in zip(eta, conc, fid):
            st = bp.state_from_efficiencies(r_bire, r_grating * e, phi)
            assert c == pytest.approx(bp.concurrence(st), abs=1e-12)
            assert f == pytest.approx(bp.fidelity(st, bell), abs=1e-12)


@pytest.mark.filterwarnings("error")  # no RuntimeWarning from np.cos
@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_non_finite_relative_phase_is_rejected_before_sampling(monkeypatch, phase):
    # state_from_efficiencies rejects such a phase; so must the sampler,
    # before it draws anything, instead of returning NaN fidelities
    sampled = []
    monkeypatch.setattr(bp, "efficiency_samples", lambda *a, **k: sampled.append(a) or [])
    with pytest.raises(ValidationError, match="relative_phase_rad"):
        bp.entanglement_vs_fabrication(2.0, 0.7, 8, [1.0], samples=3, relative_phase_rad=phase)
    assert sampled == []
