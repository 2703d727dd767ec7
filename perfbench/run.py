"""coexpm benchmark.

    python3 perfbench/run.py --workload design --seed 1 --seconds 36 --trace 0

Drives the package in-process in a closed loop: one client, one process,
each operation issued after the previous one returns (``cli.main`` with
stdout captured, or a direct library call). A workload repeats a fixed
round of operations (see workloads.py) for ``--seconds`` and checks every
output.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds on the same inputs and prints the per-layer metrics
(layers.py) with the tracing overhead. ``--workload all``
runs each workload in its own process and prints every metric.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. coexpm is imported from ``src/`` of the checkout this
file sits in. Artifacts go to ``.perfbench_tmp/`` (removed at exit) and
results and span dumps to ``.perfbench_out/``, both inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import FEEDS, UNITS, layer_metrics, measures
from measure import environment, tail
from tracer import Tracer
from workloads import ROUNDS, WORKLOADS, Session, round_inputs, warm_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "round_p50_s": "s",
    "round_tail_s": "s",
    "rounds_per_s": "1/s",
    "cpu_per_round_s": "s",
    "peak_rss_mb": "MB",
}


def _import_coexpm():
    # One client, one thread of linear algebra: an idle OpenBLAS worker spins
    # on the second core, which inflates CPU time and makes wall time depend
    # on whatever else runs on the machine. Set before numpy is first
    # imported; set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "coexpm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no coexpm source tree at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import coexpm.cli  # imports every module

    if Path(coexpm.__file__).resolve().parent != (SRC / "coexpm").resolve():
        sys.exit(f"perfbench: imported coexpm from {coexpm.__file__}, not from {SRC}")
    return coexpm


def setup_seconds(workload: str, workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that import coexpm and make the
    workload's first call."""
    times = []
    for k in range(SETUP_PROBES):
        out = workdir / f"probe{k}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(SRC), str(out)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return times


def run_rounds(coexpm, workload, seed, seconds, workdir, tracer=None, hooks=None):
    """Repeat rounds for ``seconds``; the last round runs to completion.

    With a tracer, rounds alternate untraced and traced, each pair on the same
    inputs, so both halves see the same machine state and their difference is
    the tracing overhead. Returns (session, untraced round times, traced round
    times, loop wall s, loop CPU s).
    """
    session = Session(coexpm, workdir)
    body = ROUNDS[workload]
    times = ([], [])
    step = 1 if tracer is None else 2
    t_start, cpu_start = time.perf_counter(), time.process_time()
    deadline = t_start + seconds
    r = 0
    while True:
        traced = r % step == 1
        x = round_inputs(workload, seed, r // step)
        session.workdir = workdir / f"round{r:05d}"
        if traced:
            tracer.round = r // step
            tracer.install(coexpm, hooks)
            session.tracer = tracer
        try:
            t0 = time.perf_counter()
            if traced:
                with tracer.span("round"):
                    body(session, x)
            else:
                body(session, x)
            times[traced].append(time.perf_counter() - t0)
        finally:
            if traced:
                tracer.uninstall()
                session.tracer = None
        shutil.rmtree(session.workdir, ignore_errors=True)
        r += 1
        if r % step == 0 and time.perf_counter() >= deadline:
            break
    return session, times[0], times[1], time.perf_counter() - t_start, time.process_time() - cpu_start


def _line(name, value, unit, note=""):
    print(f"{name:<55} {value:>14.6g} {unit:<11} {note}".rstrip())


def end_to_end(coexpm, args, workdir: Path):
    probes = setup_seconds(args.workload, workdir)
    warm_call(coexpm, args.workload, workdir / "warm")
    session, times, _, wall, cpu = run_rounds(coexpm, args.workload, args.seed, args.seconds, workdir)
    pct, tail_s = tail(times)
    metrics = {
        "setup_s": statistics.median(probes),
        "round_p50_s": statistics.median(times),
        "round_tail_s": tail_s,
        "rounds_per_s": len(times) / wall,
        "cpu_per_round_s": cpu / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(probes)} fresh interpreters",
        "round_p50_s": f"median of {len(times)} rounds",
        "round_tail_s": f"p{pct:.1f} of {len(times)} rounds",
        "rounds_per_s": f"{len(times)} rounds in {wall:.2f} s",
    }
    for name, value in metrics.items():
        _line(name, value, END_TO_END[name], notes.get(name, ""))
    extra = {"setup_probes_s": probes, "round_s": times, "round_tail_percentile": pct}
    return session, metrics, extra


def per_layer(coexpm, args, workdir: Path):
    warm_call(coexpm, args.workload, workdir / "warm")
    tracer = Tracer()
    session, plain_times, traced_times, _, _ = run_rounds(
        coexpm, args.workload, args.seed, args.seconds, workdir, tracer, measures(coexpm, tracer.extra)
    )
    overhead = statistics.median(traced_times) - statistics.median(plain_times)
    metrics = layer_metrics(tracer, len(traced_times), overhead)
    for name, value in metrics.items():
        _line(name, value, UNITS[name], FEEDS[name])
    print(
        f"# {len(traced_times)} traced rounds (p50 {statistics.median(traced_times):.6g} s) alternating with "
        f"{len(plain_times)} untraced (p50 {statistics.median(plain_times):.6g} s), {len(tracer.spans)} spans"
    )
    extra = {"untraced_round_s": plain_times, "traced_round_s": traced_times}
    return session, metrics, extra, tracer


def run_all(args) -> int:
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"## {w}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"## {w} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[w] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    coexpm = _import_coexpm()
    env = environment(coexpm)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_tmp"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            session, metrics, extra, tracer = per_layer(coexpm, args, workdir)
            tracer.dump(out_dir / f"{stem}-spans.jsonl")
            units = UNITS
        else:
            session, metrics, extra = end_to_end(coexpm, args, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    frac = session.failed / session.attempted
    print(f"{'ops_failed_frac':<55} {frac:>14.6g} {'fraction':<11} {session.failed} of {session.attempted} operations")
    for failure in session.failures:
        print(f"# failed: {failure}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, env=env, args=vars(args), ops_failed_frac=frac, **extra)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
