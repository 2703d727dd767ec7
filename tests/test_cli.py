"""Command-line interface: artifacts, determinism, config validation, exit codes."""

import argparse
import ast
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import coexpm
from coexpm import biphoton, cli, poling
from coexpm.io import read_tomography_counts, write_tomography_counts


def _write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(args, cwd):
    """Run Python in a new interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_design_writes_curve_point_and_meta(tmp_path, capsys):
    assert cli.main(["design", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "design_curve.csv").exists()
    point = json.loads((tmp_path / "design_point.json").read_text())
    assert point["pump_nm"] == pytest.approx(538.4, abs=1.5)
    assert point["signal_nm"] == pytest.approx(1073.7, abs=1.5)
    assert point["idler_nm"] == pytest.approx(1079.8, abs=1.5)
    assert point["sweep_rows_skipped_past_cutoff"] > 0
    meta = json.loads((tmp_path / "design_meta.json").read_text())
    assert meta["command"] == "design"
    assert "config_sha256" in meta and len(meta["config_sha256"]) == 64
    assert "design_curve.csv" in meta["artifacts"]
    assert any("Kato" in c for c in meta["dispersion_citations"])
    out = capsys.readouterr().out
    assert "design" in out


def test_design_output_is_byte_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["design", "--out", str(a)]) == 0
    assert cli.main(["design", "--out", str(b)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


def test_montecarlo_respects_seed_flag(tmp_path):
    cfg = {
        "schema_version": 1,
        "montecarlo": {
            "sigma_z_um": [0.0, 40.0],
            "samples": 40,
            "entanglement": False,
            "comparison": None,
        },
    }
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((a, "5"), (b, "5"), (c, "6")):
        code = cli.main(
            ["montecarlo", "--config", cfg_path, "--out", str(out), "--seed", seed]
        )
        assert code == 0
    assert (a / "montecarlo.csv").read_bytes() == (b / "montecarlo.csv").read_bytes()
    assert (a / "montecarlo.csv").read_bytes() != (c / "montecarlo.csv").read_bytes()
    assert not (a / "montecarlo_entanglement.csv").exists()  # switched off above


def test_montecarlo_entanglement_artifact(tmp_path):
    cfg = {
        "schema_version": 1,
        "montecarlo": {
            "sigma_z_um": [0.0, 100.0],
            "samples": 60,
            "entanglement": True,
            "comparison": None,
        },
    }
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["montecarlo", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "montecarlo_entanglement.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert "mean_concurrence" in header and "mean_fidelity" in header
    first = dict(zip(header, rows[1].split(",")))
    assert float(first["mean_concurrence"]) == pytest.approx(1.0, abs=1e-9)


def test_montecarlo_tables_share_their_eta_draws(tmp_path):
    assert cli.main(["montecarlo", "--out", str(tmp_path)]) == 0

    def mean_eta(name):
        lines = (tmp_path / name).read_text().strip().splitlines()
        col = lines[0].split(",").index("mean_eta")
        return [line.split(",")[col] for line in lines[1:]]

    assert mean_eta("montecarlo.csv") == mean_eta("montecarlo_entanglement.csv")


def test_montecarlo_comparison_is_the_closed_form_whatever_the_seed(tmp_path):
    cfg_path = _write_config(
        tmp_path / "cfg.json", {"schema_version": 1, "montecarlo": {"samples": 20, "entanglement": False}}
    )
    tables = []
    for seed in ("7", "8"):
        out = tmp_path / seed
        assert cli.main(["montecarlo", "--config", cfg_path, "--out", str(out), "--seed", seed]) == 0
        header, *rows = [line.split(",") for line in (out / "montecarlo.csv").read_text().splitlines()]
        columns = [header.index("comparison_mean_eta"), header.index("comparison_std_eta")]
        tables.append([[row[i] for i in columns] for row in rows])
    mc = cli.DEFAULT_CONFIG["montecarlo"]
    comp = mc["comparison"]
    want = poling._wall_error_moments(
        comp["period_mm"], poling.solve_balanced_duty_cycle(1), comp["num_domains"], mc["sigma_z_um"]
    )
    assert tables[0] == tables[1] == [[repr(r["mean_eta"]), repr(r["std_eta"])] for r in want]


def test_resample_with_a_comparison_exits_2_before_any_draw(tmp_path, capsys, monkeypatch):
    draws = []
    draw = poling._draw_z
    monkeypatch.setattr(poling, "_draw_z", lambda *args: draws.append(args) or draw(*args))
    cfg_path = _write_config(
        tmp_path / "cfg.json",
        {"schema_version": 1, "montecarlo": {"sigma_z_um": [0.0, 0.125], "reorder": "resample"}},
    )
    out = tmp_path / "out"
    assert cli.main(["montecarlo", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "montecarlo.comparison" in err and "resample" in err and "Traceback" not in err
    assert draws == []
    assert not out.exists() or not any(out.iterdir())


def test_montecarlo_entanglement_follows_the_qpm_order(tmp_path):
    cfg = {
        "schema_version": 1,
        "montecarlo": {
            "qpm_order": 3,
            "sigma_z_um": [0.0, 100.0],
            "samples": 50,
            "comparison": None,
        },
    }
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["montecarlo", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "montecarlo.csv").read_text().strip().splitlines()
    ent = (tmp_path / "montecarlo_entanglement.csv").read_text().strip().splitlines()
    header = ent[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in ent[1:]]
    # the duty cycle balances orders 0 and 3, so the ideal grating is maximally entangled
    assert float(rows[0]["mean_concurrence"]) == pytest.approx(1.0, abs=1e-12)
    assert [r["mean_eta"] for r in rows] == [line.split(",")[1] for line in lines[1:]]


@pytest.mark.parametrize("command", ["dutycycle", "montecarlo"])
@pytest.mark.parametrize("order, code", [(25001, 0), (2**70 + 1, 3)], ids=["25001", "2**70+1"])
@pytest.mark.filterwarnings("error")
def test_a_high_odd_order_is_balanced_or_exits_3(tmp_path, capsys, command, order, code):
    # the balanced duty cycle of order 25001 lies 9.4e-6 above 0.5; that of
    # 2**70 + 1 is closer to 0.5 than the spacing of doubles there
    cfg_path = _write_config(tmp_path / "cfg.json", {"schema_version": 1, command: {"qpm_order": order}})
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("solver error: ") and f"m={order}" in err


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_non_finite_montecarlo_sigma_exits_2(tmp_path, capsys, bad):
    # Python's json reads NaN and Infinity; the sampler must reject them
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"schema_version": 1, "montecarlo": {"sigma_z_um": [0.0, %s]}}' % bad)
    assert cli.main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "sigma_z_um" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["samples", "num_domains"])
def test_huge_montecarlo_sizes_exit_2_before_allocating(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"schema_version": 1, "montecarlo": {"%s": %d}}' % (key, 2**70))
    tracemalloc.start()
    try:
        assert cli.main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert peak < 8 * 2**20
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_jspd_grating_process_requires_period(tmp_path):
    cfg = {
        "schema_version": 1,
        "jspd": {"process": "grating", "period_mm": None},
    }
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["jspd", "--config", cfg_path, "--out", str(tmp_path)]) == 2


def test_jspd_summary_peak_matches_solver(tmp_path):
    assert cli.main(["jspd", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "jspd_summary.json").read_text())
    assert summary["peak_signal_nm"] == pytest.approx(
        summary["phase_matched_signal_nm"], abs=0.2
    )
    assert summary["peak_idler_nm"] == pytest.approx(
        summary["phase_matched_idler_nm"], abs=0.2
    )
    assert (tmp_path / "jspd.csv").exists()
    assert (tmp_path / "jspd_marginals.csv").exists()


def test_fringes_fit_visibility_high_for_bell(tmp_path):
    assert cli.main(["fringes", "--out", str(tmp_path), "--seed", "3"]) == 0
    fit = json.loads((tmp_path / "fringes_fit.json").read_text())
    assert fit["visibility"] > 0.9
    assert fit["visibility_se"] < 0.1


def test_chsh_expectation_mode_hits_tsirelson(tmp_path):
    cfg = {"schema_version": 1, "chsh": {"mode": "expectation"}}
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["chsh", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "chsh.json").read_text())
    assert result["s"] == pytest.approx(2.0 * 2.0**0.5, abs=1e-9)
    assert result["s_symmetric"] == pytest.approx(2.0 * 2.0**0.5, abs=1e-9)
    assert result["s"] <= result["tsirelson_bound"] + 1e-12


def test_expectation_chsh_equals_the_library_s_at_other_angles(tmp_path):
    angles = [10.0, 55.0, 30.0, 80.0]
    state = {"kind": "efficiencies", "r_birefringent": 1.0, "r_grating": 0.6, "phase_rad": 0.3}
    cfg = {"schema_version": 1, "chsh": {"state": state, "angles_deg": angles}}
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["chsh", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "chsh.json").read_text())
    psi = biphoton.state_from_efficiencies(1.0, 0.6, 0.3)
    assert result["s"] == biphoton.chsh_s(psi, angles)
    e = [biphoton.correlation(psi, *pair) for pair in biphoton._chsh_pairs(angles)]
    assert result["s_symmetric"] == biphoton._chsh_values(e)[1]


def test_sampled_chsh_draws_only_the_streams_of_its_16_settings(tmp_path, monkeypatch):
    import coexpm
    from coexpm import util

    real, keys = util.spawn_rng, []

    def spy(seed, *key):
        keys.append((seed, *key))
        return real(seed, *key)

    for module in vars(coexpm).values():
        if hasattr(module, "spawn_rng"):
            monkeypatch.setattr(module, "spawn_rng", spy)
    cfg_path = _write_config(tmp_path / "cfg.json", {"schema_version": 1, "chsh": {"mode": "sampled"}})
    assert cli.main(["chsh", "--config", cfg_path, "--out", str(tmp_path), "--seed", "11"]) == 0
    assert sorted(keys) == [(11, k) for k in range(16)]


def test_sampled_chsh_without_coincidences_is_a_fit_failure(tmp_path, capsys):
    cfg = {"schema_version": 1, "chsh": {"mode": "sampled", "pair_rate_hz": 0.0}}
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["chsh", "--config", cfg_path, "--out", str(tmp_path)]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section",
    [
        ("fringes", '{"pair_rate_hz": NaN}'),
        ("fringes", '{"singles_rate_s_hz": -5.0}'),
        ("fringes", '{"tau_c_s": NaN}'),
        ("fringes", '{"integration_time_s": Infinity}'),
        ("fringes", '{"theta_idler_step_deg": 0}'),
        ("fringes", '{"theta_idler_start_deg": NaN}'),
        ("tomography", '{"accidental_rate_hz": NaN}'),
        ("chsh", '{"mode": "sampled", "pair_rate_hz": NaN}'),
        ("design", '{"pump_step_nm": 0}'),
        ("design", '{"pump_step_nm": -0.5}'),
        ("design", '{"temperature_c": NaN}'),
        ("design", '{"fixed_period_mm": NaN}'),
        ("jspd", '{"pump_nm": NaN}'),
        ("jspd", '{"length_mm": NaN}'),
        ("jspd", '{"length_mm": Infinity}'),
        ("chsh", '{"angles_deg": [0, 45, NaN, 67.5]}'),
        ("fringes", '{"theta_signal_deg": NaN}'),
        ("stats", '{"rate_signal_hz": NaN}'),
        ("stats", '{"tau_c_s": NaN}'),
        ("montecarlo", '{"samples": 2.5}'),
        ("montecarlo", '{"num_domains": 8.5}'),
        ("montecarlo", '{"qpm_order": 1.0}'),
        ("montecarlo", '{"comparison": {"num_domains": 1066.5}}'),
        ("jspd", '{"points": 50.5}'),
        ("dutycycle", '{"qpm_order": 1.5}'),
        ("dutycycle", '{"max_fourier_order": 2.5}'),
        ("dutycycle", '{"max_fourier_order": -3}'),
        ("dutycycle", '{"max_fourier_order": 4097}'),  # one table row per order
        ("dutycycle", '{"max_fourier_order": 1180591620717411303424}'),  # 2**70
        ("fringes --seed -2", "{}"),
        ("fringes", '{}, "seed": -1'),  # a negative top-level seed
        ("jspd", '{"points": -5}'),
        ("jspd", '{"points": 2}'),  # a marginal's FWHM needs 3 samples
        ("montecarlo", '{"sigma_z_um": ["a"]}'),
        ("montecarlo", '{"sigma_z_um": []}'),
        ("chsh", '{"angles_deg": [0, 45, "x", 67.5]}'),
        ("chsh", '{"angles_deg": [0, 45, null, 67.5]}'),
        ("montecarlo", '{"sigma_z_um": [true]}'),
        ("chsh", '{"angles_deg": [1, 2, true, 3]}'),
        ("montecarlo", '{"period_mm": NaN}'),
        ("stats", '{"pump_mw": NaN}'),
        ("stats", '{"dead_time_s": NaN}'),
        ("stats", '{"pair_rate_per_mw_per_nm": Infinity}'),
        ("stats", '{"pair_rate_per_mw_per_nm": 2.0, "filter_band_nm": NaN}'),
        ("stats", '{"pair_rate_per_mw_per_nm": -10.0}'),
        ("stats", '{"pair_rate_per_mw_per_nm": 2.0, "filter_band_nm": 0.0}'),
        ("stats", '{"pair_rate_per_mw_per_nm": 2.0, "filter_band_nm": -1.0}'),
        ("jspd", '{"process": "grating", "period_mm": NaN}'),
        ("tomography", '{"counts_csv": 3}'),
        ("fringes", '{"state": {"kind": "efficiencies", "phase_rad": NaN}}'),
        ("fringes", '{"pair_rate_hz": 1e300}'),
        ("tomography", '{"integration_time_s": 1e300}'),
        # grids over the cell budget, rejected before they are allocated
        ("design", '{"pump_step_nm": 1e-300}'),
        ("design", '{"pump_max_nm": 1e300}'),
        ("fringes", '{"theta_idler_step_deg": 1e-300}'),
        ("fringes", '{"theta_idler_stop_deg": 1e300}'),
        ("jspd", '{"signal_max_nm": 1e300}'),
        ("jspd", '{"filter_fwhm_nm": 1e-300}'),
        ("jspd", '{"points": 1099511627776}'),
        # grids reversed by a huge magnitude, whose point count is hugely negative
        ("design", '{"pump_min_nm": 1e300}'),
        ("design", '{"pump_min_nm": 1180591620717411303424}'),
        ("design", '{"pump_max_nm": -1e300}'),
        ("fringes", '{"theta_idler_start_deg": 1e300}'),
        ("fringes", '{"theta_idler_start_deg": 1180591620717411303424}'),
        ("fringes", '{"theta_idler_stop_deg": -1e300}'),
    ],
)
@pytest.mark.filterwarnings("error")  # a bad number must not reach numpy and warn first
def test_bad_numbers_exit_2_without_traceback(tmp_path, capsys, command, section):
    # Python's json reads NaN and Infinity; options may follow the command name
    name, *options = command.split()
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"schema_version": 1, "%s": %s}' % (name, section))
    assert cli.main([name, "--config", str(cfg), "--out", str(tmp_path), *options]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "command, section",
    [("design", {"pump_min_nm": 900.0}), ("fringes", {"theta_idler_start_deg": 400.0})],
)
def test_modestly_reversed_grid_bounds_still_reach_the_solver(tmp_path, command, section):
    # a grid reversed by a little is empty, not over the budget; the solvers exit 3 as before
    cfg_path = _write_config(tmp_path / "cfg.json", {"schema_version": 1, command: section})
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize(
    "section, names",
    [
        ({"rate_signal_hz": 1e200, "rate_idler_hz": 1e200}, "accidental rate"),
        ({"rate_signal_hz": 1e150, "rate_idler_hz": 1e150, "rate_coincidence_hz": 1e-10}, "brightness"),
        ({"pair_rate_per_mw_per_nm": 1e200, "filter_band_nm": 1e200}, "pair_rate_per_mw_per_nm"),
    ],
    ids=["accidental-rate", "brightness", "rate-in-band"],
)
def test_stats_results_that_overflow_exit_2_where_they_are_computed(tmp_path, capsys, section, names):
    # finite rates whose product overflows: the library call or the CLI's own
    # product names its inputs, before any artifact is serialized
    cfg_path = _write_config(tmp_path / "cfg.json", {"schema_version": 1, "stats": section})
    out = tmp_path / "out"
    assert cli.main(["stats", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err and "overflows" in err
    assert "stats.json" not in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_every_domain_names_a_default_key_and_every_null_default_is_typed():
    def keys(node, path=""):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            yield sub, value
            if isinstance(value, dict):
                yield from keys(value, sub)

    defaults = dict(keys(cli.DEFAULT_CONFIG))
    assert set(cli._DOMAINS) <= set(defaults)
    null_keys = {k for k, v in defaults.items() if v is None}
    assert len(null_keys) == 11
    for key in null_keys:
        assert cli._DOMAINS[key] in (float, str), key
    assert cli._DOMAINS["montecarlo.comparison"] is dict
    for key, domain in cli._DOMAINS.items():
        if defaults[key] is not None and not isinstance(domain, type):
            text, test = domain
            assert test(defaults[key]), (key, text)  # every default lies in its domain


@pytest.mark.parametrize(
    ("command", "section", "reason"),
    [
        # a jspd grid narrower than the filtered marginal: no half-maximum crossing
        (
            "jspd",
            {
                "filter_fwhm_nm": 3.0,
                "signal_min_nm": 1073.5,
                "signal_max_nm": 1075,
                "idler_min_nm": 1078.8,
                "idler_max_nm": 1080.3,
                "points": 31,
            },
            "marginal",
        ),
        # a jspd grid that misses the ridge: the density is zero everywhere
        (
            "jspd",
            {"signal_min_nm": 800, "signal_max_nm": 820, "idler_min_nm": 1200, "idler_max_nm": 1300},
            "marginal",
        ),
        # the fixed period is not reached within the pump range; the design curve is computed first
        ("design", {"pump_min_nm": 530, "pump_max_nm": 531}, "not bracketed"),
        # 0, 60, 120 and 180 deg are 3 distinct angles modulo 180; the fringe table is computed first
        ("fringes", {"theta_idler_step_deg": 60}, "distinct analyzer angles"),
        # simulated counts, all zero, come before the reconstruction fails
        ("tomography", {"pair_rate_hz": 0}, "no counts"),
        ("chsh", {"mode": "sampled", "pair_rate_hz": 0}, "no coincidences"),
    ],
    ids=["jspd-narrow-grid", "jspd-grid-misses-ridge", "design", "fringes", "tomography", "chsh-sampled"],
)
def test_a_failed_run_exits_3_and_writes_no_artifact(tmp_path, capsys, command, section, reason):
    cfg_path = _write_config(tmp_path / "cfg.json", {"schema_version": 1, command: section})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and reason in err and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("seed", ["1.5", "true", '"3"'])
def test_top_level_seed_must_be_an_integer(tmp_path, capsys, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"schema_version": 1, "seed": %s}' % seed)
    assert cli.main(["stats", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'seed' must be an integer" in err and "Traceback" not in err
    assert not (tmp_path / "stats_meta.json").exists()


def test_integer_keys_take_integers_and_float_keys_take_either(tmp_path):
    orders = {"qpm_order": 3, "max_fourier_order": 2}
    cfg_path = _write_config(tmp_path / "a.json", {"schema_version": 1, "seed": 4, "dutycycle": orders})
    assert cli.main(["dutycycle", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "dutycycle_meta.json").read_text())
    assert meta["seed"] == 4 and meta["config"]["dutycycle"] == orders
    # an integer is a valid value for a key whose default is a float
    cfg_path = _write_config(tmp_path / "b.json", {"schema_version": 1, "stats": {"tau_c_s": 1}})
    assert cli.main(["stats", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    # ... and is stored as the float the run used
    raw = (tmp_path / "stats_meta.json").read_text()
    assert '"tau_c_s": 1.0' in raw and json.loads(raw)["config"]["stats"]["tau_c_s"] == 1.0


def test_successive_runs_do_not_share_options(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "cfg.json", {"schema_version": 1, "seed": 4})
    json_run, csv_run = tmp_path / "json", tmp_path / "csv"
    small = {"schema_version": 1, "montecarlo": {"sigma_z_um": [0.0], "samples": 10, "comparison": None}}
    small_path = _write_config(tmp_path / "small.json", small)
    assert cli.main(["montecarlo", "--config", small_path, "--out", str(json_run), "--format", "json"]) == 0
    assert cli.main(["montecarlo", "--config", small_path, "--out", str(csv_run)]) == 0
    assert (json_run / "montecarlo.json").exists() and not (json_run / "montecarlo.csv").exists()
    assert (csv_run / "montecarlo.csv").exists() and not (csv_run / "montecarlo.json").exists()

    def meta_seed(out):
        return json.loads((out / "stats_meta.json").read_text())["seed"]

    assert cli.main(["stats", "--config", cfg_path, "--out", str(tmp_path / "s9"), "--seed", "9"]) == 0
    assert cli.main(["stats", "--config", cfg_path, "--out", str(tmp_path / "s4")]) == 0
    assert cli.main(["stats", "--out", str(tmp_path / "s0")]) == 0
    assert [meta_seed(tmp_path / d) for d in ("s9", "s4", "s0")] == [9, 4, 0]

    # argparse exits on a usage error, --help and --version; the next run still works
    for argv, code in ((["stats", "--format", "xml"], 2), (["--help"], 0), (["--version"], 0)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
    out, err = capsys.readouterr()
    assert "invalid choice: 'xml'" in err and "usage: coexpm" in out
    assert out.rstrip().endswith(f"coexpm {coexpm.__version__}")
    assert cli.main(["stats", "--out", str(tmp_path / "after")]) == 0
    assert meta_seed(tmp_path / "after") == 0


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        for command in ("stats", "dutycycle", "stats"):
            assert cli.main([command, "--out", str(tmp_path)]) == 0
    finally:
        cli._build_parser.cache_clear()  # later runs build an ordinary parser
    assert built.count("coexpm") == 1
    assert len(built) == 1 + len(cli._COMMANDS)  # the top-level parser and one per subcommand


def test_tomography_roundtrip_through_counts_csv(tmp_path):
    sim_dir = tmp_path / "sim"
    assert cli.main(["tomography", "--out", str(sim_dir), "--seed", "5"]) == 0
    counts_csv = sim_dir / "tomography_counts.csv"
    records = read_tomography_counts(counts_csv)
    assert len(records) == 16

    # feed the simulated counts back through the file-input path
    rerun_dir = tmp_path / "rerun"
    rerun_dir.mkdir()
    counts_copy = rerun_dir / "counts.csv"
    write_tomography_counts(counts_copy, records)
    cfg = {"schema_version": 1, "tomography": {"counts_csv": str(counts_copy)}}
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["tomography", "--config", cfg_path, "--out", str(rerun_dir)]) == 0
    first = json.loads((sim_dir / "tomography_result.json").read_text())
    second = json.loads((rerun_dir / "tomography_result.json").read_text())
    assert second["metrics"]["fidelity_bell"] == pytest.approx(
        first["metrics"]["fidelity_bell"], abs=1e-9
    )
    assert first["metrics"]["fidelity_bell"] > 0.95
    assert first["method"] == "mle" and first["converged"] is True
    assert first["iterations"] > 0
    assert first["linear_inversion_nll"] > first["neg_log_likelihood"]


def test_tomography_rejects_malformed_counts(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("setting_signal,coincidences\nH,12\n", encoding="utf-8")
    cfg = {"schema_version": 1, "tomography": {"counts_csv": str(bad)}}
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["tomography", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    # a column named twice, in a table that is otherwise complete: the csv module would keep the last one
    header = _COUNTS_HEADER.replace("accidentals", "coincidences")
    bad.write_text(header + "".join(r.replace(",0\n", ",100\n") for r in _GOOD_COUNT_ROWS), encoding="utf-8")
    assert cli.main(["tomography", "--config", cfg_path, "--out", str(tmp_path / "twice")]) == 2
    assert list((tmp_path / "twice").iterdir()) == []


_COUNTS_HEADER = "setting_signal,setting_idler,coincidences,integration_time_s,accidentals\n"
_GOOD_COUNT_ROWS = [f"{s},{i},100,10,0\n" for s, i in biphoton.tomography_settings()]


@pytest.mark.parametrize(
    "bad_row",
    [
        b"H,R,1\xff0,10,0\n",  # not UTF-8
        b"H\n",  # shorter than the header: no idler label
        b"H,R\n",  # shorter than the header: no numbers
        b"H,R,100,10,0,7\n",  # longer than the header
        b"H,R,nan,10,0\n",
        b"H,R,inf,10,0\n",
        b"H,R,100,nan,0\n",
        b"H,R,100,inf,0\n",
        b"H,R,100,10,nan\n",
        b"H,R,100,10,inf\n",
        b"H,R,100,10,-inf\n",
    ],
)
def test_malformed_count_rows_exit_2_without_traceback_or_files(tmp_path, capsys, bad_row):
    rows = [r.encode() for r in _GOOD_COUNT_ROWS]
    rows[3] = bad_row
    counts = tmp_path / "counts.csv"
    counts.write_bytes(_COUNTS_HEADER.encode() + b"".join(rows))
    cfg_path = _write_config(tmp_path / "cfg.json", {"schema_version": 1, "tomography": {"counts_csv": str(counts)}})
    out = tmp_path / "out"
    assert cli.main(["tomography", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["dutycycle", "jspd", "fringes", "chsh", "tomography", "stats"])
def test_same_seed_reruns_are_byte_identical(tmp_path, command, fmt):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main([command, "--out", str(out), "--seed", "7", "--format", fmt]) == 0
    assert _tree_bytes(a) and _tree_bytes(a) == _tree_bytes(b)


def test_stats_reports_library_numbers(tmp_path):
    assert cli.main(["stats", "--out", str(tmp_path)]) == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["alpha_2d"] == pytest.approx(439.0 / (1e-9 * 2.18e4 * 2.68e4), rel=1e-9)
    assert stats["brightness_hz"] == pytest.approx(2.18e4 * 2.68e4 / 439.0, rel=1e-9)


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = {"schema_version": 1, "design": {"pump_minimum_nm": 530.0}}
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["design", "--config", cfg_path, "--out", str(tmp_path)]) == 2


def test_wrong_schema_version_is_rejected(tmp_path):
    cfg_path = _write_config(tmp_path / "cfg.json", {"schema_version": 2})
    assert cli.main(["design", "--config", cfg_path, "--out", str(tmp_path)]) == 2


def test_type_errors_are_rejected(tmp_path):
    cfg = {"schema_version": 1, "montecarlo": {"samples": "plenty"}}
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["montecarlo", "--config", cfg_path, "--out", str(tmp_path)]) == 2


def test_invalid_json_is_rejected(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["design", "--config", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b'{"schema_version": 1, "seed": ' + b"1" * 5000 + b"}", b"[" * 100_000],
    ids=["not-utf-8", "integer-too-long-to-read", "nested-too-deep"],
)
def test_unreadable_config_text_is_a_config_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert cli.main(["stats", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["design", "--config", missing, "--out", str(tmp_path)]) == 4


def test_unreachable_design_period_is_solver_error(tmp_path):
    # at 530-531 nm the coexistence period is far below 2 mm: no bracket
    cfg = {
        "schema_version": 1,
        "design": {"pump_min_nm": 530.0, "pump_max_nm": 531.0, "pump_step_nm": 0.5},
    }
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["design", "--config", cfg_path, "--out", str(tmp_path)]) == 3


def test_json_table_format(tmp_path):
    cfg = {
        "schema_version": 1,
        "montecarlo": {
            "sigma_z_um": [0.0],
            "samples": 10,
            "entanglement": False,
            "comparison": None,
        },
    }
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    code = cli.main(
        ["montecarlo", "--config", cfg_path, "--out", str(tmp_path), "--format", "json"]
    )
    assert code == 0
    table = json.loads((tmp_path / "montecarlo.json").read_text())
    first = dict(zip(table["columns"], table["rows"][0]))
    assert first["mean_eta"] == pytest.approx(1.0)
    assert not (tmp_path / "montecarlo.csv").exists()


# ------------------------------------------------------------------ cold start

_SCIPY_LOADED = """
import json, sys
from coexpm import cli

def loaded():
    return [m for m in ("scipy.optimize", "scipy.special") if m in sys.modules]

seen = {"import coexpm.cli": loaded()}
for name, argv in json.loads(sys.argv[1]).items():
    assert cli.main(argv) == 0, name
    seen[name] = loaded()
print(json.dumps(seen))
"""


def _scipy_loaded(tmp_path, runs: dict) -> dict:
    """The scipy modules loaded after import and after each run of the CLI
    (name -> argv), in one fresh interpreter."""
    runs = {name: [*argv, "--out", str(tmp_path / f"out{i}")] for i, (name, argv) in enumerate(runs.items())}
    done = _fresh_python(["-c", _SCIPY_LOADED, json.dumps(runs)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return json.loads(done.stdout.splitlines()[-1])


def test_light_commands_start_and_run_without_scipy(tmp_path):
    def config(name, section):
        return _write_config(tmp_path / f"{name}.json", {"schema_version": 1, name: section})

    runs = {
        "stats": ["stats"],
        "chsh expectation": ["chsh"],
        "chsh sampled": ["chsh", "--config", config("chsh", {"mode": "sampled"})],
        "fringes": ["fringes"],
        "jspd birefringent": ["jspd"],
        "jspd grating": ["jspd", "--config", config("jspd", {"process": "grating", "period_mm": 2.0})],
        "design": ["design"],
        "dutycycle order 1": ["dutycycle"],
        "dutycycle order 3": ["dutycycle", "--config", config("dutycycle", {"qpm_order": 3})],
        "montecarlo without comparison": ["montecarlo", "--config", config("montecarlo", {"comparison": None})],
    }
    assert _scipy_loaded(tmp_path, runs) == {name: [] for name in ["import coexpm.cli", *runs]}


# montecarlo's comparison grating needs scipy.special's wofz, and tomography's
# fit scipy.optimize's minimize, which loads scipy.special too.
_SCIPY_NEEDED = {"montecarlo": ["scipy.special"], "tomography": ["scipy.optimize", "scipy.special"]}


@pytest.mark.parametrize("command", sorted(_SCIPY_NEEDED))
def test_scipy_commands_load_it_on_demand_in_a_fresh_interpreter(tmp_path, command):
    seen = _scipy_loaded(tmp_path, {command: [command]})
    assert seen == {"import coexpm.cli": [], command: _SCIPY_NEEDED[command]}


def _run_on_import(nodes):
    """The statements Python runs on import: all but the bodies of functions."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _run_on_import(ast.iter_child_nodes(node))


def _scipy_imports(node, function=None):
    """(scipy module, enclosing function) of each scipy import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scipy_imports(child, child.name)
            continue
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        else:
            names = []
        yield from ((n, function) for n in names if n == "scipy" or n.startswith("scipy."))
        yield from _scipy_imports(child, function)


def test_scipy_is_imported_only_by_the_two_functions_that_call_it():
    found = [
        (path.stem, function, module)
        for path in sorted((SRC / "coexpm").glob("*.py"))
        for module, function in _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("biphoton", "reconstruct_state", "scipy.optimize"), ("poling", "_cf_deficit", "scipy.special")]


def test_no_module_imports_scipy_at_module_level():
    for path in sorted((SRC / "coexpm").glob("*.py")):
        for node in _run_on_import(ast.parse(path.read_text(encoding="utf-8")).body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), (path.name, node.lineno)
