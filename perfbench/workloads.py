"""Benchmark workloads: seeded round inputs, the operations of one round, and
the checks on their outputs.

A workload repeats a fixed round of operations. Sizes stay fixed; each round
draws fresh values from the workload seed (``round_inputs``) and writes into
a fresh output directory. An operation is one ``cli.main`` call, with its
stdout captured, or one direct library call. It fails if it returns a nonzero
exit code, raises, or fails its output check; a failure is counted and the
round goes on.
"""

from __future__ import annotations

import contextlib
import csv
import io as _stdio
import json
import math
import random
from pathlib import Path

WORKLOADS = ("design", "fabrication", "metrology")

# Design bracket handed to `design`; the solved pump must land inside it.
PUMP_BRACKET_NM = (530.0, 545.0)
BALANCED_DUTY = 0.7352
# Acceptance criterion 5 requires noise-free reconstructions above this
# fidelity. Its other threshold (mean >= 0.99) bounds the mean over 100
# Poisson runs, so it cannot be checked on a single reconstruction.
NOISE_FREE_FIDELITY = 1.0 - 1e-6
# Over 2400 seeded draws at 439 Hz x 10 s and p in [0.95, 0.99], the Werner
# fidelity stayed within 0.056 of (1 + 3p) / 4.
WERNER_FIDELITY_TOL = 0.1
# Acceptance bands for event-simulator counts, in Poisson standard deviations.
COUNT_SIGMAS = 6.0

# Fixed rates of the direct event-simulator calls in `metrology`.
PAIR_STREAM = dict(
    pair_rate_hz=2e4,
    duration_s=1.0,
    tau_c_s=1e-9,
    eta_signal=0.3,
    eta_idler=0.3,
    background_rate_s_hz=5e4,
    background_rate_i_hz=5e4,
)
HERALDED = dict(pair_rate_hz=1e5, duration_s=10.0, tau_c_s=1e-9, eta_herald=0.25, eta_target=0.25)


def round_inputs(workload: str, seed: int, round_id: int) -> dict:
    """Inputs of round ``round_id``; a pure function of (workload, seed, round)."""
    rng = random.Random(f"{workload}/{seed}/{round_id}")
    if workload == "design":
        return {
            "temperature_c": rng.uniform(20.0, 60.0),
            "period_mm": rng.uniform(1.5, 3.0),
        }
    if workload == "fabrication":
        return {"seed": rng.randrange(2**31)}
    if workload == "metrology":
        return {
            "seed": rng.randrange(2**31),
            "bell_pair_rate_hz": rng.uniform(300.0, 600.0),
            # Above p ~ 0.95 the linear inversion is never physical, so every
            # Werner reconstruction runs the full MLE; a mix of p that sometimes
            # skips it makes round times bimodal and their median unstable.
            "werner_p": rng.uniform(0.95, 0.99),
            "accidental_rate_hz": rng.uniform(1.0, 10.0),
            "stats": {
                "rate_signal_hz": rng.uniform(1e4, 5e4),
                "rate_idler_hz": rng.uniform(1e4, 5e4),
                "rate_coincidence_hz": rng.uniform(200.0, 800.0),
                "tau_c_s": rng.uniform(0.5e-9, 2e-9),
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Session:
    """Runs operations in-process, counts failures, and opens a span around
    each call when a tracer is attached."""

    def __init__(self, coexpm, workdir: Path, tracer=None):
        self.coexpm = coexpm
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._n = 0

    def fresh_dir(self, label: str) -> Path:
        self._n += 1
        d = self.workdir / f"{self._n:06d}-{label}"
        d.mkdir(parents=True)
        return d

    def _op(self, label: str, body):
        self.attempted += 1
        try:
            return body()
        except Exception as exc:  # any failure of one operation is counted, not fatal
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def cli(self, command: str, config, seed: int | None = None, check=None) -> Path | None:
        """``coexpm <command>`` with a fresh --out; ``config`` is a section dict
        (or a callable returning one, evaluated inside the operation)."""

        def body():
            out = self.fresh_dir(command)
            cfg = config() if callable(config) else config
            cfg_path = out / "bench_config.json"
            cfg_path.write_text(json.dumps({"schema_version": 1, **cfg}))
            argv = [command, "--config", str(cfg_path), "--out", str(out)]
            if seed is not None:
                argv += ["--seed", str(seed)]
            errors = _stdio.StringIO()
            with contextlib.redirect_stdout(_stdio.StringIO()), contextlib.redirect_stderr(errors):
                if self.tracer is None:
                    rc = self.coexpm.cli.main(argv)
                else:
                    with self.tracer.span(f"cli.{command}"):
                        rc = self.coexpm.cli.main(argv)
            _require(rc == 0, f"exit code {rc}: {errors.getvalue().strip()}")
            if check is not None:
                check(out)
            return out

        return self._op(command, body)

    def call(self, label: str, fn, check=None):
        """A direct library call; the tracer's own wrappers time it."""

        def body():
            result = fn()
            if check is not None:
                check(result)
            return result

        return self._op(label, body)


# --- checks -----------------------------------------------------------------------


def check_design(out: Path) -> None:
    p = _read_json(out / "design_point.json")
    _require(abs(p["residual_rad_per_um"]) < 1e-9, f"design residual {p['residual_rad_per_um']}")
    lo, hi = PUMP_BRACKET_NM
    _require(lo <= p["pump_nm"] <= hi, f"design pump {p['pump_nm']} outside [{lo}, {hi}]")
    _require(p["pump_nm"] < p["degeneracy_pump_cutoff_nm"], "design pump past degeneracy cutoff")
    _require(p["sweep_rows_emitted"] > 0, "empty design curve")


def check_dutycycle(out: Path) -> None:
    d = _read_json(out / "dutycycle.json")["balanced_duty_cycle"]
    _require(abs(d - BALANCED_DUTY) <= 1e-4, f"balanced duty cycle {d}")


def check_jspd(out: Path) -> None:
    s = _read_json(out / "jspd_summary.json")
    marg = _read_csv(out / "jspd_marginals.csv")
    for arm in ("signal", "idler"):
        step = float(marg[1][f"{arm}_nm"]) - float(marg[0][f"{arm}_nm"])
        miss = abs(s[f"peak_{arm}_nm"] - s[f"phase_matched_{arm}_nm"])
        _require(miss <= step * (1 + 1e-9), f"jspd {arm} peak {miss} nm off the phase-matched point")


def check_montecarlo(out: Path) -> None:
    tables = {
        "montecarlo.csv": ("mean_eta", "comparison_mean_eta"),
        "montecarlo_entanglement.csv": ("mean_eta",),
    }
    for name, columns in tables.items():
        rows = _read_csv(out / name)
        zero = [r for r in rows if float(r["sigma_z_um"]) == 0.0]
        _require(len(zero) == 1, f"{name}: no sigma_z = 0 row")
        for col in columns:
            _require(abs(float(zero[0][col]) - 1.0) <= 1e-12, f"{name}: {col} at sigma 0 is {zero[0][col]}")
            _require(all(0.0 <= float(r[col]) <= 1.0 + 1e-12 for r in rows), f"{name}: {col} outside [0, 1]")


def _bell_fidelity(out: Path) -> float:
    return _read_json(out / "tomography_result.json")["metrics"]["fidelity_bell"]


def check_bell_tomography(out: Path) -> None:
    f = _bell_fidelity(out)
    _require(f > NOISE_FREE_FIDELITY, f"noise-free Bell fidelity {f}")


def check_werner_tomography(p: float):
    def check(out: Path) -> None:
        f = _bell_fidelity(out)
        expected = (1.0 + 3.0 * p) / 4.0
        _require(abs(f - expected) <= WERNER_FIDELITY_TOL, f"Werner p={p}: fidelity {f}, expected {expected}")

    return check


def check_fringes(out: Path) -> None:
    fit = _read_json(out / "fringes_fit.json")
    _require(fit["visibility"] > 0.9, f"Bell fringe visibility {fit['visibility']}")


def check_chsh_expectation(out: Path) -> None:
    s = _read_json(out / "chsh.json")["s"]
    _require(abs(s - 2.0 * math.sqrt(2.0)) <= 1e-9, f"expectation-mode S = {s}")


def check_chsh_sampled(out: Path) -> None:
    s = _read_json(out / "chsh.json")["s"]
    _require(2.0 < s <= 2.0 * math.sqrt(2.0) + 0.3, f"sampled S = {s}")


def check_stats(inputs: dict):
    def check(out: Path) -> None:
        got = _read_json(out / "stats.json")
        rs, ri, rc, tau = (inputs[k] for k in ("rate_signal_hz", "rate_idler_hz", "rate_coincidence_hz", "tau_c_s"))
        _require(math.isclose(got["accidental_rate_hz"], rs * ri * tau, rel_tol=1e-12), "accidental rate")
        _require(math.isclose(got["alpha_2d"], rc / (rs * ri * tau), rel_tol=1e-12), "alpha_2d")
        _require(math.isclose(got["brightness_hz"], rs * ri / rc, rel_tol=1e-12), "brightness")

    return check


def _within(observed: float, expected: float, what: str) -> None:
    band = COUNT_SIGMAS * math.sqrt(max(expected, 1.0))
    _require(abs(observed - expected) <= band, f"{what}: {observed} vs expected {expected:.1f}")


def check_pair_stream(rec) -> None:
    c = PAIR_STREAM
    t = c["duration_s"]
    exp_s = (c["pair_rate_hz"] * c["eta_signal"] + c["background_rate_s_hz"]) * t
    exp_i = (c["pair_rate_hz"] * c["eta_idler"] + c["background_rate_i_hz"]) * t
    _within(rec.counts_signal, exp_s, "pair-stream signal singles")
    _within(rec.counts_idler, exp_i, "pair-stream idler singles")
    exp_c = c["pair_rate_hz"] * c["eta_signal"] * c["eta_idler"] * t + exp_s * exp_i * c["tau_c_s"] / t
    _within(rec.coincidences, exp_c, "pair-stream coincidences")


def check_heralded(rec) -> None:
    c = HERALDED
    pairs = c["pair_rate_hz"] * c["duration_s"]
    _within(rec.counts_herald, pairs * c["eta_herald"], "heralds")
    half_target = pairs * c["eta_herald"] * c["eta_target"] / 2.0
    _within(rec.counts_herald_t1, half_target, "herald + target 1")
    _within(rec.counts_herald_t2, half_target, "herald + target 2")
    _require(0 <= rec.counts_triple <= min(rec.counts_herald_t1, rec.counts_herald_t2), "triples")


# --- rounds -------------------------------------------------------------------------


def design_round(s: Session, x: dict) -> None:
    t, period = x["temperature_c"], x["period_mm"]
    lo, hi = PUMP_BRACKET_NM
    point = s.cli(
        "design",
        {"design": {"temperature_c": t, "fixed_period_mm": period, "pump_min_nm": lo, "pump_max_nm": hi}},
        check=check_design,
    )
    s.cli("dutycycle", {}, check=check_dutycycle)

    def jspd(process: str):
        def config():
            pump = _read_json(point / "design_point.json")["pump_nm"]
            c = {"process": process, "pump_nm": pump, "temperature_c": t}
            if process == "grating":
                c["period_mm"] = period
            return {"jspd": c}

        return config

    s.cli("jspd", jspd("birefringent"), check=check_jspd)
    s.cli("jspd", jspd("grating"), check=check_jspd)


def fabrication_round(s: Session, x: dict) -> None:
    s.cli("montecarlo", {}, seed=x["seed"], check=check_montecarlo)


def metrology_round(s: Session, x: dict) -> None:
    seed = x["seed"]
    bell = {"tomography": {"poisson": False, "pair_rate_hz": x["bell_pair_rate_hz"]}}
    s.cli("tomography", bell, seed=seed, check=check_bell_tomography)

    coexpm = s.coexpm
    counts_csv = s.workdir / "werner_counts.csv"

    def write_counts():
        s.workdir.mkdir(parents=True, exist_ok=True)
        records = coexpm.biphoton.simulate_tomography_counts(
            coexpm.biphoton.werner_state(x["werner_p"]),
            439.0,
            10.0,
            seed=seed,
            accidental_rate_hz=x["accidental_rate_hz"],
        )
        coexpm.io.write_tomography_counts(counts_csv, records)

    s.call("werner_counts", write_counts)
    s.cli(
        "tomography",
        {"tomography": {"counts_csv": str(counts_csv)}},
        seed=seed,
        check=check_werner_tomography(x["werner_p"]),
    )
    s.cli("fringes", {}, seed=seed, check=check_fringes)
    s.cli("chsh", {"chsh": {"mode": "sampled"}}, seed=seed, check=check_chsh_sampled)
    s.cli("chsh", {}, seed=seed, check=check_chsh_expectation)
    s.cli("stats", {"stats": x["stats"]}, check=check_stats(x["stats"]))
    cs = coexpm.countstats
    s.call("simulate_pair_stream", lambda: cs.simulate_pair_stream(seed=seed, **PAIR_STREAM), check_pair_stream)
    s.call("simulate_heralded", lambda: cs.simulate_heralded(seed=seed, **HERALDED), check_heralded)


ROUNDS = {"design": design_round, "fabrication": fabrication_round, "metrology": metrology_round}


def warm_call(coexpm, workload: str, out: Path) -> int:
    """The first call of a workload: the cheapest command that touches its
    main layers, so lazy set-up (imports, data files) is done before timing."""
    argv = {
        "design": ["design"],
        "fabrication": ["dutycycle"],
        "metrology": ["chsh"],
    }[workload] + ["--out", str(out)]
    with contextlib.redirect_stdout(_stdio.StringIO()):
        return coexpm.cli.main(argv)
