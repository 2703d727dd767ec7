"""Exit-code contract, key by key.

Each leaf key of DEFAULT_CONFIG is set, on a small base config, to each of a
fixed list of hostile values, one run per (key, value). The fuzz in
test_config_fuzz.py draws whole documents and can miss a hole that needs one
key at one value; this sweep visits every such pair. Each run exits 0, 2, 3
or 4 within ALARM_S seconds, and never with a traceback.
"""

import contextlib
import copy
import io as stdio
import json
import math
import signal

import pytest

from coexpm import cli

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM to bound a hang")

# Sizes that keep one run in milliseconds; the swept key is set over them.
SMALL = {
    "montecarlo": {"samples": 4, "sigma_z_um": [0.0, 50.0], "comparison": {"num_domains": 16}},
    "jspd": {"points": 21},
}
# 10**400 is an integer past the float range, which float() refuses
HOSTILE = [
    math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 2**70, -(2**70), 10**400, -(10**400), 0, -1, 0.5, True,
    "", "x", None, [], {},
]
ALARM_S = 10


def _leaves(node, path=()):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


# schema_version is the one key whose every other value is a ConfigError by design
LEAVES = [path for path in _leaves(cli.DEFAULT_CONFIG) if path != ("schema_version",)]


def _document(path, value):
    """(command, config document) with the key at path set to value."""
    command = path[0] if len(path) > 1 else "montecarlo"  # the top-level seed: the command that draws most
    doc = {"schema_version": 1, command: copy.deepcopy(SMALL.get(command, {}))}
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return command, doc


class _Hang(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Hang


def test_the_sweep_covers_every_leaf_key():
    assert len(LEAVES) == 63


@pytest.mark.parametrize("path", LEAVES, ids=".".join)
def test_each_key_at_each_hostile_value_keeps_the_exit_code_contract(path, tmp_path):
    broken = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for i, value in enumerate(HOSTILE):
            command, doc = _document(path, value)
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps(doc))  # NaN and Infinity are written as such
            err = stdio.StringIO()
            signal.alarm(ALARM_S)
            try:
                with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / f"out{i}")])
            except _Hang:
                code = f"no exit within {ALARM_S} s"
            except Exception as exc:  # an escape past main's handlers
                code = f"raised {type(exc).__name__}: {exc}"
            finally:
                signal.alarm(0)
            if code not in (0, 2, 3, 4) or "Traceback" in err.getvalue():
                broken.append((value, code, err.getvalue()[-300:]))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert broken == []
