"""Command-line interface.

Subcommands cover the full design-to-metrology chain: crystal design curves,
duty-cycle balancing, fabrication Monte Carlo, joint spectra, polarization
fringes, Bell tests, state tomography and counting statistics. Every command
reads an optional strict JSON configuration, writes its artifacts plus a
metadata sidecar (effective config, config hash, seed, data citations) into
the output directory, and is byte-deterministic for a fixed config and seed.

Exit codes: 0 success, 2 configuration/validation error, 3 solver/fit
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import biphoton, countstats, dispersion, io, phasematch, poling, spectrum
from .errors import ConfigError, FitError, SolverError, ValidationError

__all__ = ["main", "run", "DEFAULT_CONFIG"]

_STATE_DEFAULTS = {
    "bell": {"kind": "bell"},
    "werner": {"kind": "werner", "p": 1.0},
    "efficiencies": {
        "kind": "efficiencies",
        "r_birefringent": 1.0,
        "r_grating": 1.0,
        "phase_rad": 0.0,
    },
}

DEFAULT_CONFIG = {
    "schema_version": 1,
    "seed": 0,
    "design": {
        "temperature_c": 25.0,
        "pump_min_nm": 530.0,
        "pump_max_nm": 545.0,
        "pump_step_nm": 0.5,
        "fixed_period_mm": 2.0,
    },
    "dutycycle": {
        "qpm_order": 1,
        "max_fourier_order": 5,
    },
    "montecarlo": {
        "period_mm": 2.0,
        "duty_cycle": None,  # null -> balanced duty cycle for qpm_order
        "num_domains": 8,
        "qpm_order": 1,
        "sigma_z_um": [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
        "samples": 2000,
        "reorder": "allow",
        "entanglement": True,
        "comparison": {
            "label": "PPLN_15um",
            "period_mm": 0.015,
            "num_domains": 1066,
        },
    },
    "jspd": {
        "process": "birefringent",  # or "grating"
        "pump_nm": 538.4,
        "temperature_c": 25.0,
        "length_mm": 8.0,
        "period_mm": None,
        "filter_fwhm_nm": 1.0,
        "kernel": "gaussian",
        "signal_min_nm": None,
        "signal_max_nm": None,
        "idler_min_nm": None,
        "idler_max_nm": None,
        "points": 201,
    },
    "fringes": {
        "state": {"kind": "bell"},
        "theta_signal_deg": 45.0,
        "theta_idler_start_deg": 0.0,
        "theta_idler_stop_deg": 180.0,
        "theta_idler_step_deg": 10.0,
        "pair_rate_hz": 439.0,
        "integration_time_s": 10.0,
        "singles_rate_s_hz": 21800.0,
        "singles_rate_i_hz": 26800.0,
        "tau_c_s": 1e-9,
        "poisson": True,
        "subtract_accidentals": True,
    },
    "chsh": {
        "state": {"kind": "bell"},
        "angles_deg": list(biphoton.CANONICAL_CHSH_ANGLES),
        "mode": "expectation",  # or "sampled"
        "pair_rate_hz": 439.0,
        "integration_time_s": 10.0,
    },
    "tomography": {
        "counts_csv": None,
        "state": {"kind": "bell"},
        "pair_rate_hz": 439.0,
        "integration_time_s": 10.0,
        "accidental_rate_hz": 0.0,
        "poisson": True,
        "subtract_accidentals": True,
    },
    "stats": {
        "rate_signal_hz": 21800.0,
        "rate_idler_hz": 26800.0,
        "rate_coincidence_hz": 439.0,
        "tau_c_s": 1e-9,
        "pump_mw": None,
        "dead_time_s": None,
        "pair_rate_per_mw_per_nm": None,
        "filter_band_nm": None,
    },
}


# --- configuration ------------------------------------------------------------


# What a default cannot say about a key, by dotted path. A type is what a key
# that defaults to null takes besides null; dict marks the one section that
# may be null (switched off). A (text, test) pair is a rule on the checked
# value: the allowed strings, or a bound that no library call enforces.
_DOMAINS = {
    "seed": (">= 0", lambda v: v >= 0),  # numpy's SeedSequence takes no negative seed
    "design.pump_step_nm": ("> 0", lambda v: v > 0),
    "dutycycle.max_fourier_order": (">= 0", lambda v: v >= 0),
    "montecarlo.duty_cycle": float,  # null -> balanced duty cycle for qpm_order
    "montecarlo.sigma_z_um": ("non-empty", len),
    "montecarlo.comparison": dict,
    "jspd.process": ("'birefringent' or 'grating'", lambda v: v in ("birefringent", "grating")),
    "jspd.period_mm": float,
    "jspd.signal_min_nm": float,
    "jspd.signal_max_nm": float,
    "jspd.idler_min_nm": float,
    "jspd.idler_max_nm": float,
    "jspd.points": (">= 3", lambda v: v >= 3),  # the FWHM of a marginal needs 3 samples
    "fringes.theta_idler_step_deg": ("> 0", lambda v: v > 0),
    "chsh.angles_deg": ("4 entries (a, a', b, b')", lambda v: len(v) == 4),
    "chsh.mode": ("'expectation' or 'sampled'", lambda v: v in ("expectation", "sampled")),
    "tomography.counts_csv": str,
    "stats.pump_mw": float,
    "stats.dead_time_s": float,
    "stats.pair_rate_per_mw_per_nm": float,
    "stats.filter_band_nm": float,
}


def _merge_config(base, value, path=""):
    """The value of config key `path`, checked against its default `base`.

    Every given key must exist in the default. A number is finite and never a
    bool; an integer given for a float key is stored as a float. List elements
    take the type of the default's elements, a state's kind selects its
    _STATE_DEFAULTS skeleton, and the _DOMAINS entry of `path` applies last.
    """
    domain = _DOMAINS.get(path)
    if isinstance(domain, type):
        if value is None:
            return None
        base = domain() if base is None else base  # a null default checks as 0.0 or ""
    if isinstance(base, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config section {path} must be an object")
        if "kind" in base:  # a two-photon state
            kinds = sorted(_STATE_DEFAULTS)
            if value.get("kind") not in kinds:
                raise ConfigError(f"config key {path + '.kind'!r} must be one of {kinds}")
            base = _STATE_DEFAULTS[value["kind"]]
        merged = copy.deepcopy(base)
        for key, v in value.items():
            sub = f"{path}.{key}" if path else key
            if key not in base:
                raise ConfigError(f"unknown config key {sub!r}")
            merged[key] = _merge_config(base[key], v, sub)
        return merged
    if isinstance(base, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {path!r} must be an array")
        value = [_merge_config(base[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    elif type(value) is not type(base) and not (type(base) is float and type(value) is int):
        what = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}[type(base)]
        raise ConfigError(f"config key {path!r} must be {what}")
    elif type(base) is float:
        if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity or too large an integer
            raise ConfigError(f"config key {path!r} must be finite, got {value}")
        value = float(value)
    if isinstance(domain, tuple) and not domain[1](value):
        raise ConfigError(f"config key {path!r} must be {domain[0]}, got {value}")
    return value


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        raw = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too long an integer, too deep
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if raw.get("schema_version") != 1:
        raise ConfigError(f"{path}: schema_version must be 1")
    return _merge_config(DEFAULT_CONFIG, raw)


def _build_state(state_cfg: dict):
    kind = state_cfg["kind"]
    if kind == "bell":
        return biphoton.bell_psi_plus()
    if kind == "werner":
        return biphoton.werner_state(state_cfg["p"])
    return biphoton.state_from_efficiencies(
        state_cfg["r_birefringent"], state_cfg["r_grating"], state_cfg["phase_rad"]
    )


# --- output helpers -----------------------------------------------------------


def _emit_table(outdir: Path, stem: str, header: list[str], rows, fmt: str) -> Path:
    if fmt == "json":
        path = outdir / f"{stem}.json"
        io.write_json(path, {"columns": header, "rows": [list(r) for r in rows]})
    else:
        path = outdir / f"{stem}.csv"
        io.write_csv(path, header, rows)
    return path


def _citations() -> list[str]:
    return sorted({d.citation for d in dispersion.ktp_axes().values()})


def _write_meta(outdir: Path, command: str, config: dict, seed: int | None, artifacts: list[str]):
    meta = {
        "command": command,
        "package_version": __version__,
        "schema_version": 1,
        "seed": seed,
        "config": config,
        "config_sha256": io.config_digest(config),
        "artifacts": sorted(artifacts),
        "dispersion_citations": _citations(),
    }
    io.write_json(outdir / f"{command}_meta.json", meta)


# --- subcommands ----------------------------------------------------------------


def _inclusive_grid(c: dict, start_key: str, stop_key: str, step_key: str) -> np.ndarray:
    """Grid from c[start_key] by c[step_key] up to c[stop_key], within half a step."""
    start, stop, step = (c[k] for k in (start_key, stop_key, step_key))
    return np.arange(start, stop + 0.5 * step, step)


def _cmd_design(cfg: dict, outdir: Path, seed: int, fmt: str) -> list[str]:
    c = cfg["design"]
    t = c["temperature_c"]
    pumps = _inclusive_grid(c, "pump_min_nm", "pump_max_nm", "pump_step_nm")
    sweep = phasematch.period_sweep(pumps, t)
    rows = [
        (pump, period, pt.signal_nm, pt.idler_nm, pt.splitting_nm)
        for pump, period, pt in sweep
    ]
    curve = _emit_table(
        outdir,
        "design_curve",
        ["pump_nm", "period_mm", "signal_nm", "idler_nm", "splitting_nm"],
        rows,
        fmt,
    )
    cutoff = phasematch.degeneracy_pump_nm(t)
    pump_at, point = phasematch.solve_pump_for_period(
        c["fixed_period_mm"], t, pump_bracket_nm=(c["pump_min_nm"], c["pump_max_nm"])
    )
    payload = {
        "fixed_period_mm": c["fixed_period_mm"],
        "temperature_c": t,
        "pump_nm": pump_at,
        "signal_nm": point.signal_nm,
        "idler_nm": point.idler_nm,
        "splitting_nm": point.splitting_nm,
        "residual_rad_per_um": point.residual_rad_per_um,
        "degeneracy_pump_cutoff_nm": cutoff,
        "sweep_rows_emitted": len(rows),
        "sweep_rows_skipped_past_cutoff": int(len(pumps) - len(rows)),
    }
    io.write_json(outdir / "design_point.json", payload)
    print(
        f"design: period {c['fixed_period_mm']} mm at pump {pump_at:.3f} nm -> "
        f"signal {point.signal_nm:.3f} nm, idler {point.idler_nm:.3f} nm "
        f"(degeneracy cutoff {cutoff:.3f} nm)"
    )
    return [curve.name, "design_point.json"]


def _cmd_dutycycle(cfg: dict, outdir: Path, seed: int, fmt: str) -> list[str]:
    c = cfg["dutycycle"]
    order = c["qpm_order"]
    duty = poling.solve_balanced_duty_cycle(order)
    table = []
    for m in range(c["max_fourier_order"] + 1):
        coeff = poling.fourier_coefficient(duty, m)
        table.append(
            {
                "order": m,
                "magnitude": abs(coeff),
                "phase_rad": float(np.angle(coeff)),
                "efficiency_ratio": poling.efficiency_ratio(duty, m),
            }
        )
    payload = {
        "qpm_order": order,
        "balanced_duty_cycle": duty,
        "efficiency_penalty": poling.efficiency_penalty(duty),
        "shared_efficiency_ratio": poling.efficiency_ratio(duty, 0),
        "fourier_orders": table,
    }
    io.write_json(outdir / "dutycycle.json", payload)
    print(
        f"dutycycle: balanced duty cycle {duty:.6f} for order {order}, "
        f"penalty {payload['efficiency_penalty']:.6f}"
    )
    return ["dutycycle.json"]


def _cmd_montecarlo(cfg: dict, outdir: Path, seed: int, fmt: str) -> list[str]:
    c = cfg["montecarlo"]
    order, sigmas, samples, reorder = c["qpm_order"], c["sigma_z_um"], c["samples"], c["reorder"]
    duty = c["duty_cycle"] if c["duty_cycle"] is not None else poling.solve_balanced_duty_cycle(order)
    # one eta grid feeds both the efficiency and the entanglement table
    etas = poling._eta_grid(
        c["period_mm"], duty, c["num_domains"], sigmas, samples, seed, qpm_order=order, reorder=reorder
    )
    primary = poling._efficiency_rows(sigmas, etas)
    artifacts = []
    comp_rows = None
    if c["comparison"] is not None:
        comp = c["comparison"]
        comp_rows = poling.monte_carlo_efficiency(
            comp["period_mm"],
            duty,
            comp["num_domains"],
            sigmas,
            samples=samples,
            seed=seed + 1,
            qpm_order=order,
            reorder=reorder,
        )
    header = ["sigma_z_um", "mean_eta", "std_eta"]
    rows = [(r["sigma_z_um"], r["mean_eta"], r["std_eta"]) for r in primary]
    if comp_rows is not None:
        header += ["comparison_mean_eta", "comparison_std_eta"]
        rows = [
            base + (cr["mean_eta"], cr["std_eta"]) for base, cr in zip(rows, comp_rows)
        ]
    artifacts.append(_emit_table(outdir, "montecarlo", header, rows, fmt).name)
    if c["entanglement"]:
        ent = biphoton._entanglement_rows(sigmas, etas, duty, order)
        artifacts.append(
            _emit_table(
                outdir,
                "montecarlo_entanglement",
                [
                    "sigma_z_um",
                    "mean_eta",
                    "mean_concurrence",
                    "std_concurrence",
                    "mean_fidelity",
                    "std_fidelity",
                ],
                [
                    (
                        r["sigma_z_um"],
                        r["mean_eta"],
                        r["mean_concurrence"],
                        r["std_concurrence"],
                        r["mean_fidelity"],
                        r["std_fidelity"],
                    )
                    for r in ent
                ],
                fmt,
            ).name
        )
    last = primary[-1]
    print(
        f"montecarlo: duty {duty:.4f}, {samples} samples; mean eta at "
        f"sigma_z {last['sigma_z_um']:g} um = {last['mean_eta']:.4f}"
    )
    return artifacts


def _jspd_process(c: dict) -> tuple[phasematch.ProcessSpec, float | None]:
    t = c["temperature_c"]
    if c["process"] == "birefringent":
        return replace(phasematch.NBPM_PROCESS, temperature_c=t), None
    if c["period_mm"] is None:
        raise ConfigError("jspd.period_mm is required for the grating process")
    return replace(phasematch.QPM_PROCESS, temperature_c=t), c["period_mm"]


def _cmd_jspd(cfg: dict, outdir: Path, seed: int, fmt: str) -> list[str]:
    c = cfg["jspd"]
    spec, period = _jspd_process(c)
    pump, fwhm = c["pump_nm"], c["filter_fwhm_nm"]
    if period is None:
        point = phasematch.solve_nbpm(spec, pump)
    else:
        point = phasematch.solve_qpm(spec, pump, period)
    span = 5.0 * max(fwhm, 2.0)
    smin = point.signal_nm - span if c["signal_min_nm"] is None else c["signal_min_nm"]
    smax = point.signal_nm + span if c["signal_max_nm"] is None else c["signal_max_nm"]
    imin = point.idler_nm - span if c["idler_min_nm"] is None else c["idler_min_nm"]
    imax = point.idler_nm + span if c["idler_max_nm"] is None else c["idler_max_nm"]
    sgrid = np.linspace(smin, smax, c["points"])
    igrid = np.linspace(imin, imax, c["points"])
    grid = spectrum.joint_spectral_density(
        spec, pump, sgrid, igrid, c["length_mm"], filter_fwhm_nm=fwhm, period_mm=period, kernel=c["kernel"]
    )
    # the summary comes first: a marginal without a width fails before any table is written
    lam_s, prof_s = spectrum.marginal_spectrum(grid, "signal")
    lam_i, prof_i = spectrum.marginal_spectrum(grid, "idler")
    peak_s, peak_i = spectrum.peak_location(grid)
    payload = {
        "process": c["process"],
        "pump_nm": pump,
        "temperature_c": c["temperature_c"],
        "length_mm": c["length_mm"],
        "period_mm": period,
        "filter_fwhm_nm": fwhm,
        "kernel": c["kernel"],
        "phase_matched_signal_nm": point.signal_nm,
        "phase_matched_idler_nm": point.idler_nm,
        "peak_signal_nm": peak_s,
        "peak_idler_nm": peak_i,
        "marginal_fwhm_signal_nm": spectrum.marginal_fwhm_nm(grid, "signal"),
        "marginal_fwhm_idler_nm": spectrum.marginal_fwhm_nm(grid, "idler"),
    }
    rows = np.column_stack([grid.signal_nm, grid.values]).tolist()
    header = ["signal_nm\\idler_nm"] + [io.format_float(v) for v in igrid]
    artifacts = [
        _emit_table(outdir, "jspd", header, rows, fmt).name,
        _emit_table(
            outdir,
            "jspd_marginals",
            ["signal_nm", "signal_profile", "idler_nm", "idler_profile"],
            list(zip(lam_s, prof_s, lam_i, prof_i)),
            fmt,
        ).name,
        "jspd_summary.json",
    ]
    io.write_json(outdir / "jspd_summary.json", payload)
    print(
        f"jspd: peak at ({peak_s:.3f}, {peak_i:.3f}) nm, phase-matched point "
        f"({point.signal_nm:.3f}, {point.idler_nm:.3f}) nm"
    )
    return artifacts


def _cmd_fringes(cfg: dict, outdir: Path, seed: int, fmt: str) -> list[str]:
    c = cfg["fringes"]
    state = _build_state(c["state"])
    thetas = _inclusive_grid(
        c, "theta_idler_start_deg", "theta_idler_stop_deg", "theta_idler_step_deg"
    )
    settings = [
        biphoton.AnalyzerSetting(c["theta_signal_deg"], float(ti)) for ti in thetas
    ]
    records = countstats.simulate_counts(
        state,
        settings,
        c["pair_rate_hz"],
        c["integration_time_s"],
        seed=seed,
        singles_rate_s_hz=c["singles_rate_s_hz"],
        singles_rate_i_hz=c["singles_rate_i_hz"],
        tau_c_s=c["tau_c_s"],
        poisson=c["poisson"],
    )
    if c["subtract_accidentals"]:
        analyzed = [countstats.subtract_accidentals(r, c["tau_c_s"]) for r in records]
    else:
        analyzed = records
    rows = [
        (float(t), r.coincidences, a.coincidences, r.duration_s)
        for t, r, a in zip(thetas, records, analyzed)
    ]
    artifacts = [
        _emit_table(
            outdir,
            "fringes",
            ["theta_idler_deg", "coincidences", "coincidences_net", "integration_time_s"],
            rows,
            fmt,
        ).name
    ]
    fit = countstats.fit_visibility(thetas, [a.rate_coincidence for a in analyzed])
    payload = {
        "theta_signal_deg": c["theta_signal_deg"],
        "visibility": fit.visibility,
        "visibility_se": fit.visibility_se,
        "visibility_percent": fit.percent,
        "mean_rate_hz": fit.mean_rate,
        "phase_deg": fit.phase_deg,
        "accidental_rate_hz": countstats.accidental_rate(
            c["singles_rate_s_hz"], c["singles_rate_i_hz"], c["tau_c_s"]
        ),
        "subtracted": c["subtract_accidentals"],
    }
    io.write_json(outdir / "fringes_fit.json", payload)
    artifacts.append("fringes_fit.json")
    print(
        f"fringes: visibility {fit.percent:.2f}% +/- {100 * fit.visibility_se:.2f}% "
        f"at signal analyzer {c['theta_signal_deg']} deg"
    )
    return artifacts


def _cmd_chsh(cfg: dict, outdir: Path, seed: int, fmt: str) -> list[str]:
    c = cfg["chsh"]
    state = _build_state(c["state"])
    angles = c["angles_deg"]
    pairs = biphoton._chsh_pairs(angles)
    if c["mode"] == "expectation":
        e = [biphoton.correlation(state, ts, ti) for ts, ti in pairs]
    else:
        settings = biphoton._correlation_settings(pairs)
        records = countstats.simulate_counts(state, settings, c["pair_rate_hz"], c["integration_time_s"], seed=seed)
        e = biphoton._correlations([r.coincidences for r in records])
    e_values = {f"E({ts:g},{ti:g})": v for (ts, ti), v in zip(pairs, e)}
    s_three_term, s_sym = biphoton._chsh_values(e)
    payload = {
        "angles_deg": angles,
        "mode": c["mode"],
        "correlations": e_values,
        "s": s_three_term,
        "s_symmetric": s_sym,
        "classical_bound": 2.0,
        "tsirelson_bound": float(2.0 * np.sqrt(2.0)),
    }
    io.write_json(outdir / "chsh.json", payload)
    print(f"chsh: S = {s_three_term:.6f} (four-term variant {s_sym:.6f})")
    return ["chsh.json"]


def _cmd_tomography(cfg: dict, outdir: Path, seed: int, fmt: str) -> list[str]:
    c = cfg["tomography"]
    artifacts = []
    if c["counts_csv"] is not None:
        records = io.read_tomography_counts(c["counts_csv"])
    else:
        state = _build_state(c["state"])
        records = biphoton.simulate_tomography_counts(
            state,
            c["pair_rate_hz"],
            c["integration_time_s"],
            seed=seed,
            accidental_rate_hz=c["accidental_rate_hz"],
            poisson=c["poisson"],
        )
        io.write_tomography_counts(outdir / "tomography_counts.csv", records)
        artifacts.append("tomography_counts.csv")
    result = biphoton.reconstruct_state(records, subtract_accidentals=c["subtract_accidentals"])
    rho = result.rho
    target = biphoton.bell_psi_plus()
    payload = {
        "density_matrix": io.density_matrix_to_dict(rho),
        "method": result.method,
        "neg_log_likelihood": result.neg_log_likelihood,
        "flux_pairs_per_s": result.flux,
        "iterations": result.iterations,
        "converged": result.converged,
        "linear_inversion_nll": result.linear_inversion_nll,
        "metrics": {
            "fidelity_bell": biphoton.fidelity(rho, target),
            "concurrence": biphoton.concurrence(rho),
            "purity": biphoton.purity(rho),
            "chsh_s_canonical": biphoton.chsh_s(rho),
        },
    }
    io.write_json(outdir / "tomography_result.json", payload)
    artifacts.append("tomography_result.json")
    m = payload["metrics"]
    print(
        f"tomography: method {result.method}, fidelity {m['fidelity_bell']:.6f}, "
        f"concurrence {m['concurrence']:.6f}"
    )
    return artifacts


def _cmd_stats(cfg: dict, outdir: Path, seed: int, fmt: str) -> list[str]:
    c = cfg["stats"]
    rec = countstats.CountRecord(c["rate_signal_hz"], c["rate_idler_hz"], c["rate_coincidence_hz"], 1.0)
    tau = c["tau_c_s"]
    payload = {
        "inputs": {
            "rate_signal_hz": rec.rate_signal,
            "rate_idler_hz": rec.rate_idler,
            "rate_coincidence_hz": rec.rate_coincidence,
            "tau_c_s": tau,
        },
        "alpha_2d": countstats.alpha_2d(rec, tau),
        "accidental_rate_hz": countstats.accidental_rate(rec.rate_signal, rec.rate_idler, tau),
        "brightness_hz": countstats.brightness(rec),
        "net_coincidence_rate_hz": countstats.subtract_accidentals(rec, tau).rate_coincidence,
    }
    if c["pump_mw"] is not None:
        payload["brightness_per_mw"] = countstats.brightness(rec, c["pump_mw"])
    if c["dead_time_s"] is not None:
        dt = c["dead_time_s"]
        payload["dead_time_corrected_rates_hz"] = {
            "signal": countstats.correct_dead_time(rec.rate_signal, dt),
            "idler": countstats.correct_dead_time(rec.rate_idler, dt),
        }
    if c["pair_rate_per_mw_per_nm"] is not None:
        per_nm = c["pair_rate_per_mw_per_nm"]
        band = c["filter_band_nm"] if c["filter_band_nm"] is not None else 1.0
        pump = c["pump_mw"] if c["pump_mw"] is not None else 1.0
        payload["pair_rate_per_nm_reading"] = {
            "per_mw_per_nm": per_nm,
            "band_nm": band,
            "pump_mw": pump,
            "rate_in_band_hz": per_nm * band * pump,
        }
    io.write_json(outdir / "stats.json", payload)
    print(
        f"stats: alpha_2d = {payload['alpha_2d']:.4f}, brightness = "
        f"{payload['brightness_hz']:.6g} s^-1"
    )
    return ["stats.json"]


_COMMANDS = {
    "design": _cmd_design,
    "dutycycle": _cmd_dutycycle,
    "montecarlo": _cmd_montecarlo,
    "jspd": _cmd_jspd,
    "fringes": _cmd_fringes,
    "chsh": _cmd_chsh,
    "tomography": _cmd_tomography,
    "stats": _cmd_stats,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every run.

    parse_args fills a fresh namespace on each call, so one run's options do
    not carry over into the next.
    """
    parser = argparse.ArgumentParser(
        prog="coexpm",
        description="Design and metrology toolkit for dual-phase-matched photon-pair sources.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("design", "phase-matching design curve and fixed-period operating point"),
        ("dutycycle", "balanced poling duty cycle and Fourier orders"),
        ("montecarlo", "conversion efficiency vs domain-wall placement errors"),
        ("jspd", "filtered joint spectral density and marginals"),
        ("fringes", "polarization-correlation fringe scan and visibility fit"),
        ("chsh", "Bell parameter from correlation measurements"),
        ("tomography", "two-qubit state reconstruction from 16-setting counts"),
        ("stats", "coincidence quality ratios and rate arithmetic"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON configuration file (strict schema)")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, help="override the configured random seed")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="tabular output format"
        )
    return parser


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = load_config(args.config)
    seed = config["seed"] if args.seed is None else _merge_config(DEFAULT_CONFIG["seed"], args.seed, "seed")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    handler = _COMMANDS[args.command]
    section = {
        "schema_version": 1,
        "seed": seed,
        args.command: config[args.command],
    }
    artifacts = handler(config, outdir, seed, args.format)
    _write_meta(outdir, args.command, section, seed, artifacts)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, FitError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
