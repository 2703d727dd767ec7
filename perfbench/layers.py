"""Per-layer metrics of the traced pass.

Layers are named after the coexpm modules. Every value is per traced round
(a total over the traced rounds divided by their number), or a ratio of two
such totals. A layer the workload does not reach reads 0.

Each entry says which end-to-end metric the layer metric should move, and
on which workload; BENCHMARK.json lists the same names and units.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict

from tracer import self_times

CLI_COMMANDS = ("design", "dutycycle", "montecarlo", "jspd", "fringes", "chsh", "tomography", "stats")

# (name, unit, which end-to-end metric it should move on which workload)
LAYER_METRICS = [
    *[(f"cli.{c}.s", "s", "round_p50_s on the workloads that run it") for c in CLI_COMMANDS],
    ("cli.self_s", "s", "round_p50_s on every workload (argument parsing, row building, meta)"),
    ("dispersion.ktp_axes.calls", "count", "round_p50_s on design; fabrication unchanged"),
    ("dispersion.ktp_axes.s", "s", "round_p50_s on design; fabrication unchanged"),
    ("dispersion.refractive_index.calls", "count", "round_p50_s on design; fabrication unchanged"),
    ("dispersion.refractive_index.s", "s", "round_p50_s on design; fabrication unchanged"),
    ("dispersion.refractive_index.points", "count", "round_p50_s on design; fabrication unchanged"),
    ("dispersion.refractive_index.ns_per_point", "ns", "round_p50_s on design; fabrication unchanged"),
    ("phasematch.delta_k.calls", "count", "round_p50_s on design"),
    ("phasematch.delta_k.per_solve", "evals/solve", "round_p50_s on design"),
    *[
        (f"phasematch.{f}.{k}", u, "round_p50_s on design")
        for f in ("solve_nbpm", "solve_coexistence", "solve_pump_for_period", "degeneracy_pump_nm", "period_sweep")
        for k, u in (("calls", "count"), ("s", "s"))
    ],
    ("poling.efficiency_samples.n8.s", "s", "round_p50_s and peak_rss_mb on fabrication; metrology unchanged"),
    ("poling.efficiency_samples.n8.ns_per_sample_domain", "ns", "round_p50_s on fabrication"),
    ("poling.efficiency_samples.n1066.s", "s", "round_p50_s and peak_rss_mb on fabrication; metrology unchanged"),
    ("poling.efficiency_samples.n1066.ns_per_sample_domain", "ns", "round_p50_s on fabrication"),
    ("poling.efficiency_samples.bytes_computed", "B", "peak_rss_mb on fabrication (samples x domains x 16 B, computed)"),
    ("poling.solve_balanced_duty_cycle.s", "s", "round_p50_s on fabrication"),
    ("biphoton.entanglement_vs_fabrication.s", "s", "round_p50_s on fabrication"),
    ("biphoton.entanglement_vs_fabrication.us_per_sample", "us", "round_p50_s on fabrication"),
    ("biphoton.concurrence.calls", "count", "round_p50_s on fabrication"),
    ("biphoton.fidelity.calls", "count", "round_p50_s on fabrication"),
    ("biphoton.reconstruct_state.calls", "count", "round_p50_s on metrology"),
    ("biphoton.reconstruct_state.s", "s", "round_p50_s on metrology"),
    ("biphoton.simulate_tomography_counts.s", "s", "round_p50_s on metrology"),
    ("spectrum.joint_spectral_density.s", "s", "round_p50_s on design"),
    ("spectrum.joint_spectral_density.ns_per_cell", "ns", "round_p50_s on design"),
    ("spectrum.phase_matching_intensity.s", "s", "round_p50_s on design"),
    ("countstats.simulate_counts.calls", "count", "round_p50_s on metrology"),
    ("countstats.simulate_counts.s", "s", "round_p50_s on metrology"),
    ("countstats.simulate_pair_stream.s", "s", "round_p50_s on metrology"),
    ("countstats.simulate_pair_stream.ns_per_event", "ns", "round_p50_s on metrology"),
    ("countstats.simulate_heralded.s", "s", "round_p50_s on metrology"),
    ("countstats.fit_visibility.s", "s", "round_p50_s on metrology"),
    ("io.write_csv.calls", "count", "round_p50_s on design most, metrology somewhat; fabrication barely"),
    ("io.write_csv.s", "s", "round_p50_s on design most, metrology somewhat; fabrication barely"),
    ("io.write_csv.bytes", "B", "round_p50_s on design most, metrology somewhat; fabrication barely"),
    ("io.write_json.calls", "count", "round_p50_s on design most, metrology somewhat; fabrication barely"),
    ("io.write_json.s", "s", "round_p50_s on design most, metrology somewhat; fabrication barely"),
    ("io.write_json.bytes", "B", "round_p50_s on design most, metrology somewhat; fabrication barely"),
    ("io.format_float.calls", "count", "round_p50_s on design most, metrology somewhat; fabrication barely"),
    ("io.read_tomography_counts.s", "s", "round_p50_s on metrology"),
    ("trace.overhead_s", "s", "none: traced minus untraced round_p50_s"),
]

UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
FEEDS = {name: feeds for name, _, feeds in LAYER_METRICS}


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def measures(coexpm, extra) -> dict:
    """Work counters recorded beside the timings, into ``extra``:
    function name -> hook(args, kwargs, result, seconds)."""
    es = coexpm.poling.efficiency_samples
    evf = coexpm.biphoton.entanglement_vs_fabrication

    def refractive_index(args, kwargs, result, dt):
        extra["dispersion.refractive_index.points"] += getattr(result, "size", 1)

    def efficiency_samples(args, kwargs, result, dt):
        a = _arguments(es, args, kwargs)
        n = int(a["num_domains"])
        cells = int(a["samples"]) * n
        extra[f"poling.efficiency_samples.n{n}.s"] += dt
        extra[f"poling.efficiency_samples.n{n}.cells"] += cells
        extra["poling.efficiency_samples.bytes_computed"] += 16 * cells

    def entanglement(args, kwargs, result, dt):
        a = _arguments(evf, args, kwargs)
        extra["biphoton.entanglement_vs_fabrication.samples"] += len(a["sigma_z_grid_um"]) * int(a["samples"])

    def jsd(args, kwargs, result, dt):
        extra["spectrum.joint_spectral_density.cells"] += result.values.size

    def pair_stream(args, kwargs, result, dt):
        extra["countstats.simulate_pair_stream.events"] += result.counts_signal + result.counts_idler

    def written(key):
        def hook(args, kwargs, result, dt):
            extra[key] += os.path.getsize(args[0] if args else kwargs["path"])

        return hook

    return {
        "dispersion.refractive_index": refractive_index,
        "poling.efficiency_samples": efficiency_samples,
        "biphoton.entanglement_vs_fabrication": entanglement,
        "spectrum.joint_spectral_density": jsd,
        "countstats.simulate_pair_stream": pair_stream,
        "io.write_csv": written("io.write_csv.bytes"),
        "io.write_json": written("io.write_json.bytes"),
    }


def totals(tracer) -> tuple[dict, dict]:
    """(calls, inclusive seconds) by function name, over every traced round.

    A span nested in a span of the same name is already inside its
    ancestor's time, so only the outermost one adds seconds.
    """
    calls = defaultdict(int, tracer.calls)
    seconds = defaultdict(float, tracer.seconds)
    spans = tracer.spans
    for i, s in enumerate(spans):
        calls[s.name] += 1
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            seconds[s.name] += s.end - s.start
    return calls, seconds


def layer_metrics(tracer, rounds: int, overhead_s: float) -> dict:
    """Every metric of LAYER_METRICS, per traced round.

    ``<function>.calls`` and ``<function>.s`` come from the spans and counted
    calls, a name recorded by a measure hook comes from the tracer's work
    counters, and the ratios are formed from both.
    """
    calls, seconds = totals(tracer)
    extra = tracer.extra
    rounds = max(rounds, 1)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    ri, ent, jsd, ps = (
        "dispersion.refractive_index",
        "biphoton.entanglement_vs_fabrication",
        "spectrum.joint_spectral_density",
        "countstats.simulate_pair_stream",
    )
    cli_self = sum(t for s, t in zip(tracer.spans, self_times(tracer.spans)) if s.name.startswith("cli."))
    derived = {
        "cli.self_s": cli_self / rounds,
        f"{ri}.ns_per_point": ratio(seconds[ri], extra[f"{ri}.points"], 1e9),
        "phasematch.delta_k.per_solve": ratio(calls["phasematch.delta_k"], calls["phasematch.brentq"], 1.0),
        f"{ent}.us_per_sample": ratio(seconds[ent], extra[f"{ent}.samples"], 1e6),
        f"{jsd}.ns_per_cell": ratio(seconds[jsd], extra[f"{jsd}.cells"], 1e9),
        f"{ps}.ns_per_event": ratio(seconds[ps], extra[f"{ps}.events"], 1e9),
        "trace.overhead_s": overhead_s,
    }
    for domains in (8, 1066):
        key = f"poling.efficiency_samples.n{domains}"
        derived[f"{key}.ns_per_sample_domain"] = ratio(extra[f"{key}.s"], extra[f"{key}.cells"], 1e9)

    out = {}
    for name in UNITS:
        function, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif name in extra:
            out[name] = extra[name] / rounds
        elif field == "calls":
            out[name] = calls[function] / rounds
        elif field == "s":
            out[name] = seconds[function] / rounds
        elif field in ("points", "bytes", "bytes_computed"):
            out[name] = 0.0  # the measure hook never ran: the layer was idle
        else:
            raise RuntimeError(f"no rule for layer metric {name!r}")
    return out
