"""In-memory span tracer for the traced benchmark pass.

The tracer wraps the public functions of each coexpm module where they are
defined and wherever another module re-imports them (``phasematch.ktp_axes``
is the same function object as ``dispersion.ktp_axes``), so every call path
goes through one wrapper.

Two recording modes:

* span: one span per call, with name, start, end, parent span and round id.
  Used for functions called at most a few hundred times per round.
* counted: call count and aggregate inclusive time only. Used for functions
  called thousands of times per round (``io.format_float`` runs 40k times
  per ``jspd``), where a span per call would dominate the measurement. Their
  time is charged to the enclosing span as covered child time, so the self
  time of the caller excludes it.

Spans stay in memory until ``dump`` writes them as JSON lines at the end.
"""

from __future__ import annotations

import contextlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

# Called thousands of times per round; recorded as counts plus aggregate time.
# None of them may call a span-mode function: a counted call's time is charged
# to its parent span whole, so a span opened inside it would be subtracted
# twice. (scipy's brentq therefore stays a span: solve_pump_for_period's outer
# Brent solve calls solve_coexistence.)
COUNTED = frozenset(
    {
        "dispersion.load_dispersion",
        "dispersion.ktp_axes",
        "dispersion.refractive_index",
        "dispersion.wavevector",
        "phasematch.delta_k",
        "poling.fourier_coefficient",
        "poling.efficiency_ratio",
        "biphoton.state_from_efficiencies",
        "biphoton.bell_psi_plus",
        "biphoton.as_density_matrix",
        "biphoton.concurrence",
        "biphoton.fidelity",
        "biphoton.purity",
        "biphoton.coincidence_probability",
        "biphoton.correlation",
        "biphoton.setting_projector",
        "io.format_float",
    }
)

MODULES = ("dispersion", "phasematch", "poling", "spectrum", "biphoton", "countstats", "io")


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "counted_child_s")

    def __init__(self, name, start, parent, round_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.round = round_id
        self.counted_child_s = 0.0

    def as_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "round": self.round,
            "counted_child_s": self.counted_child_s,
        }


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans, minus time in counted calls made directly
    under it.

    ``spans`` is a sequence of objects with ``start``, ``end``, ``parent``
    (index into the sequence or None) and ``counted_child_s``.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered - s.counted_child_s)
    return out


class Tracer:
    """Span recorder plus the function wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._counted = defaultdict(lambda: [0, 0.0])  # counted function -> [calls, inclusive s]
        self.extra = defaultdict(float)  # derived work counters, e.g. points, bytes
        self.round = None
        self._stack: list[int] = []
        self._counted_depth = [0]
        self._patched: list[tuple[object, str, object]] = []

    # --- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.round))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span.end - span.start

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # --- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn, measure=None):
        """Traced stand-in for ``fn``. ``measure(args, kwargs, result, dt)``
        may add to ``self.extra``."""
        tracer = self

        if name in COUNTED:
            # Kept lean: io.format_float alone runs ~80k times per design round.
            stat = self._counted[name]
            depth, stack, spans = self._counted_depth, self._stack, self.spans

            def counted(*args, **kwargs):
                depth[0] += 1
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    depth[0] -= 1
                    stat[0] += 1
                    stat[1] += dt
                    if not depth[0] and stack:
                        spans[stack[-1]].counted_child_s += dt
                if measure is not None:
                    measure(args, kwargs, result, dt)
                return result

            counted.__wrapped__ = fn
            return counted

        def spanned(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = tracer.close(idx)
            if measure is not None:
                measure(args, kwargs, result, dt)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def install(self, package, measures: dict) -> None:
        """Wrap each module's public functions and every re-import of them."""
        modules = {m: getattr(package, m) for m in MODULES}
        originals = {}
        for mname, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = f"{mname}.{attr}"
        # scipy's brentq as phasematch sees it: one span per Brent solve.
        originals[id(modules["phasematch"].brentq)] = "phasematch.brentq"
        wrappers = {}
        for mod in list(modules.values()) + [package.cli]:
            for attr, obj in list(vars(mod).items()):
                name = originals.get(id(obj))
                if name is None or (attr == "brentq" and mod is not modules["phasematch"]):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(name, obj, measures.get(name))
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    @property
    def calls(self) -> dict:
        """Calls of each counted function."""
        return {name: stat[0] for name, stat in self._counted.items()}

    @property
    def seconds(self) -> dict:
        """Inclusive seconds in each counted function."""
        return {name: stat[1] for name, stat in self._counted.items()}

    # --- output ---------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(s.as_dict(i)) + "\n")
            fh.write(
                json.dumps(
                    {
                        "counted": {n: {"calls": c, "s": t} for n, (c, t) in sorted(self._counted.items())},
                        "extra": dict(sorted(self.extra.items())),
                    }
                )
                + "\n"
            )
