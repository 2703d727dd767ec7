"""Exit-code contract under fuzzed config documents.

For any config document a run exits 0, 2, 3 or 4, never with a traceback,
and every JSON artifact it leaves is strict JSON (no NaN or Infinity).
"""

import contextlib
import io as stdio
import json
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coexpm import biphoton, cli  # noqa: E402
from coexpm.io import write_tomography_counts  # noqa: E402

# Sizes that keep one run in milliseconds; the fuzzed keys are merged over them.
SMALL = {
    "montecarlo": {"samples": 4, "sigma_z_um": [0.0, 50.0], "comparison": {"num_domains": 16}},
    "jspd": {"points": 21},
}
COUNTS = "<valid counts file>"  # replaced by the path of a 16-setting counts table
BAD = st.sampled_from([None, math.nan, math.inf, -math.inf, -1, -0.5, 0, True, "x", [], {}])
OTHER_STRINGS = {
    "birefringent": ["grating"],
    "expectation": ["sampled"],
    "gaussian": ["box"],
    "allow": ["resample"],
    "bell": ["werner", "efficiencies"],
}


def _mostly(good, bad=BAD):
    """`good` three times in four, else `bad`."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else good)


def _numbers(default):
    """Valid-typed numbers near a float default (or plain ones for a null default)."""
    if default is None:
        return st.sampled_from([0.5, 1.0, 2.0, 538.4, 1075.0, 1080.0])
    return st.sampled_from([default, 0.5 * default, 1.5 * default, -default, 0.0, 1.0])


def _values(default, path):
    if path == "tomography.counts_csv":
        good = st.sampled_from([None, COUNTS, "missing.csv", ""])
    elif isinstance(default, dict) and "kind" in default:
        good = st.sampled_from(sorted(cli._STATE_DEFAULTS)).flatmap(lambda kind: _state(kind, path))
    elif isinstance(default, dict):
        good = _section(default, path)
    elif isinstance(default, bool):
        good = st.booleans()
    elif isinstance(default, int):
        good = st.integers(-2, 9)
    elif isinstance(default, str):
        good = st.sampled_from([default, *OTHER_STRINGS.get(default, []), "other"])
    elif isinstance(default, list):
        good = st.lists(_mostly(_numbers(default[0])), max_size=5)
    else:
        good = _numbers(default)
    return _mostly(good)


def _state(kind, path):
    """A state of one kind with fuzzed keys; a fuzzed kind may replace it."""
    return _section(cli._STATE_DEFAULTS[kind], path).map(lambda keys: {"kind": kind, **keys})


def _section(defaults, path=""):
    """Up to three keys of a section, now and then an unknown one, with fuzzed values."""

    def entry(key):
        return st.tuples(st.just(key), _values(defaults[key], f"{path}.{key}" if path else key))

    known = st.sampled_from(sorted(defaults)).flatmap(entry)
    return st.lists(_mostly(known, st.tuples(st.just("unknown_key"), BAD)), max_size=3).map(dict)


@st.composite
def documents(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    section = {**SMALL.get(command, {}), **draw(_section(cli.DEFAULT_CONFIG[command], command))}
    top = draw(_mostly(st.just({}), _section({"seed": 0})))  # a fuzzed seed or an unknown key
    doc = {"schema_version": 1, command: draw(_mostly(st.just(section))), **top}
    options = draw(st.sampled_from([[], [], ["--seed", "3"], ["--format", "json"], ["--seed", "-1"]]))
    return command, doc, options


def _strict(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


@settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(documents())
def test_any_config_document_keeps_the_exit_code_contract(case):
    command, doc, options = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        section = doc.get(command)
        if isinstance(section, dict) and section.get("counts_csv") == COUNTS:
            records = biphoton.simulate_tomography_counts(biphoton.bell_psi_plus(), 439.0, 10.0, seed=1)
            write_tomography_counts(tmp / "counts.csv", records)
            section["counts_csv"] = str(tmp / "counts.csv")
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(doc))  # NaN and Infinity are written as such
        out = tmp / "out"
        err = stdio.StringIO()
        with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg), "--out", str(out), *options])
        assert code in (0, 2, 3, 4), (code, doc, err.getvalue())
        assert "Traceback" not in err.getvalue()
        for artifact in out.glob("*.json") if out.exists() else []:
            json.loads(artifact.read_text(), parse_constant=_strict)
        if code != 0:
            assert not (out / f"{command}_meta.json").exists()
