"""util._brentq, the package's Brent's method, against scipy.optimize.brentq.

The port claims every root bit for bit, so each check compares by ==: on
random smooth functions at several tolerances, and on the exact functions the
duty-cycle, cutoff and pump-for-period solvers hand it, caught by a twin that
solves each of them both ways.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from coexpm import phasematch as pm
from coexpm import poling, util
from coexpm.errors import SolverError


@pytest.fixture
def twin(monkeypatch):
    """Route a module's _brentq through both solvers; returns the
    (port root, scipy root) pairs of every solve."""
    solves = []

    def install(module):
        def both(f, a, b, xtol, maxiter):
            got = util._brentq(f, a, b, xtol, maxiter)
            solves.append((got, brentq(f, a, b, xtol=xtol, maxiter=maxiter)))
            return got

        monkeypatch.setattr(module, "_brentq", both)
        return solves

    return install


def _smooth(rng):
    """A random smooth function with a sign change inside a random bracket."""
    c, root, width = rng.normal(size=3), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 5.0)

    def f(x):
        u = x - root
        return math.tanh(width * u) + 0.1 * c[0] * u**3 + 0.3 * c[1] * u * math.sin(u) + c[2] * u**2 * 0.05

    return f, root - rng.uniform(0.01, 3.0), root + rng.uniform(0.01, 3.0)


@pytest.mark.parametrize("xtol", [1e-14, 1e-12, 1e-9, 1e-6, 1e-3])
def test_random_smooth_roots_equal_scipy_bit_for_bit(xtol):
    rng = np.random.default_rng(34)
    solved = 0
    for _ in range(400):
        f, a, b = _smooth(rng)
        if (f(a) < 0.0) == (f(b) < 0.0):
            continue
        for lo, hi in ((a, b), (b, a)):
            assert util._brentq(f, lo, hi, xtol, 200) == brentq(f, lo, hi, xtol=xtol, maxiter=200), (lo, hi)
        solved += 1
    assert solved > 300


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-120, 1.0, 1e150, 1e300])
def test_roots_of_tiny_and_huge_functions_equal_scipy_bit_for_bit(scale):
    # from |f| ~ 1e-120 on, the extrapolation step's denominator underflows
    # to 0: C's step is then inf and bisected, where a Python division raises
    for c in np.linspace(0.1, 1.1, 11):
        f = lambda x: scale * (x**3 - float(c))
        for xtol in (1e-14, 1e-9):
            assert util._brentq(f, 0.0, 1.5, xtol, 200) == brentq(f, 0.0, 1.5, xtol=xtol, maxiter=200), c


def test_a_zero_at_either_end_is_the_root():
    f = lambda x: x - 1.0
    assert util._brentq(f, 1.0, 3.0, 1e-12, 200) == brentq(f, 1.0, 3.0, xtol=1e-12) == 1.0
    assert util._brentq(f, -1.0, 1.0, 1e-12, 200) == brentq(f, -1.0, 1.0, xtol=1e-12) == 1.0


def test_duty_cycle_roots_equal_scipy_bit_for_bit(twin):
    solves = twin(poling)
    for m in [*range(1, 400, 2), 1001, 25001, 99999]:
        poling.solve_balanced_duty_cycle(m)
    assert len(solves) == 203
    assert all(got == want for got, want in solves)


def test_degeneracy_cutoffs_equal_scipy_bit_for_bit(twin):
    solves = twin(pm)
    for t_c in np.arange(15.0, 80.0 + 1e-9, 2.5):
        pm.degeneracy_pump_nm(float(t_c))
    assert len(solves) == 27
    assert all(got == want for got, want in solves)


def test_pumps_for_period_equal_scipy_bit_for_bit(twin):
    # each solve_pump_for_period runs two Brent solves: the cutoff, then the pump
    solves = twin(pm)
    for t_c in (15.0, 25.0, 40.0, 60.0, 80.0):
        for period_mm in (0.5, 2.0, 10.0, 100.0, 1000.0):
            pm.solve_pump_for_period(period_mm, t_c)
    assert len(solves) == 50
    assert all(got == want for got, want in solves)


@pytest.mark.parametrize(
    "f, a, b, maxiter, scipy_raises, match",
    [
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 200, ValueError, "is NaN"),
        (lambda x: math.exp(x) - 2.0, 0.0, 1.0, 3, RuntimeError, "did not converge in 3 iterations"),
        (lambda x: x * x + 1.0, -1.0, 2.0, 200, ValueError, "different signs"),
    ],
    ids=["nan-value", "maxiter", "same-sign"],
)
def test_where_scipy_raises_the_port_raises_a_solver_error(f, a, b, maxiter, scipy_raises, match):
    with pytest.raises(scipy_raises):
        brentq(f, a, b, xtol=1e-15, maxiter=maxiter)
    with pytest.raises(SolverError, match=match):
        util._brentq(f, a, b, 1e-15, maxiter)
