"""Polytope slice integrals against closed forms, mpmath and QUADPACK."""

import logging
import math
import random
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normform
from normform import integrals
from normform.integrals import (
    REL_TOL,
    PolytopeSpec,
    closed_form_l2,
    polytope_integral,
)


def test_l1_point_value():
    spec = PolytopeSpec.make([(2.5, 3.5)])
    assert polytope_integral(spec, 3.0) == pytest.approx(1 / 3, abs=1e-15)
    assert polytope_integral(spec, 4.0) == 0.0


def test_l2_closed_form():
    for a, b in ((0.2, 0.4), (0.1, 0.45), (0.3, 0.6)):
        spec = PolytopeSpec.make([(a, b), (1e-6, 1.0)])
        got = polytope_integral(spec, 1.0)
        want = closed_form_l2(a, b, 1.0)
        assert abs(got - want) / want < 1e-8


def test_l2_both_constrained():
    # e1 in [0.3, 0.5], e2 in [0.4, 0.6], slice s = 1: effective e1 range
    # is [0.4, 0.5] by the e2 window
    spec = PolytopeSpec.make([(0.3, 0.5), (0.4, 0.6)])
    got = polytope_integral(spec, 1.0)
    want = closed_form_l2(0.4, 0.5, 1.0)
    assert abs(got - want) / want < 1e-8


def test_permutation_symmetry():
    ivs = [(0.2, 0.5), (0.3, 0.8), (0.1, 0.4)]
    vals = []
    for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        spec = PolytopeSpec.make([ivs[i] for i in perm])
        vals.append(polytope_integral(spec, 1.2))
    assert max(vals) - min(vals) < 1e-9 * max(vals)


def test_empty_slice():
    spec = PolytopeSpec.make([(0.9, 1.0), (0.9, 1.0)])
    assert polytope_integral(spec, 1.0) == 0.0
    assert polytope_integral(spec, 5.0) == 0.0


def test_l3_against_monte_carlo():
    rng = random.Random(6)
    spec = PolytopeSpec.make([(0.2, 0.5), (0.2, 0.6), (0.1, 0.5)])
    s = 1.0
    N = 200_000
    acc = 0.0
    for _ in range(N):
        e1 = rng.uniform(0.2, 0.5)
        e2 = rng.uniform(0.2, 0.6)
        e3 = s - e1 - e2
        if 0.1 <= e3 <= 0.5:
            acc += 1 / (e1 * e2 * e3)
    mc = acc / N * (0.3 * 0.4)
    assert polytope_integral(spec, s) == pytest.approx(mc, rel=0.02)


def test_interval_validation():
    with pytest.raises(ValueError):
        PolytopeSpec.make([(0.0, 0.5)])
    with pytest.raises(ValueError):
        PolytopeSpec.make([(0.5, 0.4)])


def test_scipy_is_never_imported():
    src = Path(normform.__file__).resolve().parent.parent
    config = Path(__file__).resolve().parent.parent / "configs" / "typeii_integral.json"
    code = f"""if True:
        import json, sys
        sys.path.insert(0, {str(src)!r})
        import normform.cli
        assert "scipy" not in sys.modules, "import normform.cli loaded scipy"
        assert "mpmath" not in sys.modules, "import normform.cli loaded mpmath"
        from normform.fields import make_context
        from normform.integrals import PolytopeSpec, polytope_integral
        from normform.series import singular_series
        cfg = json.loads(open({str(config)!r}).read())
        value = polytope_integral(PolytopeSpec.make(cfg["intervals"]), cfg["target_sum"])
        singular_series(make_context([-2, 0, 0], 1), 200)
        loaded = {{m.split(".")[0] for m in sys.modules}}
        print(repr(value), "scipy" in loaded, "mpmath" in loaded)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # the pinned value of configs/typeii_integral.json, bit for bit
    assert out.stdout.split() == ["0.40546510810816433", "False", "False"]


# random boxes: ell intervals (lo, hi) and a target sum inside their range
def _boxes(ell):
    bound = st.floats(0.01, 1.0)
    interval = st.tuples(bound, bound).map(sorted).filter(lambda iv: iv[1] - iv[0] > 1e-3)
    return st.tuples(st.lists(interval, min_size=ell, max_size=ell), st.floats(0.05, 0.95))


def _target(ivs, frac):
    lo = sum(a for a, _ in ivs)
    hi = sum(b for _, b in ivs)
    return lo + frac * (hi - lo)


def _mp_slice(ivs, s):
    """30-digit oracle: mpmath.quad over e1; an l = 3 inner slice in closed form."""
    (a1, b1), rest = ivs[0], ivs[1:]
    lo = max(a1, s - sum(b for _, b in rest))
    hi = min(b1, s - sum(a for a, _ in rest))
    if lo >= hi:
        return mpmath.mpf(0)
    if len(rest) == 1:
        return mpmath.quad(lambda e: 1 / (e * (s - e)), [lo, hi])
    (a2, b2), (a3, b3) = rest

    def inner(t):
        lo2, hi2 = max(a2, t - b3), min(b2, t - a3)
        if lo2 >= hi2:
            return 0
        return (mpmath.log(hi2 / (t - hi2)) - mpmath.log(lo2 / (t - lo2))) / t

    # break where the inner range changes which end binds
    kinks = (c for c in (s - a2 - b3, s - b2 - a3) if lo < c < hi)
    return mpmath.quad(lambda e: inner(s - e) / e, sorted({lo, hi, *kinks}))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(box=st.one_of(_boxes(2), _boxes(3)))
def test_random_boxes_against_mpmath(box):
    ivs, frac = box
    s = _target(ivs, frac)
    got = polytope_integral(PolytopeSpec.make(ivs), s)
    with mpmath.workdps(30):
        want = _mp_slice([tuple(map(mpmath.mpf, iv)) for iv in ivs], mpmath.mpf(s))
        if want == 0:
            assert got == 0.0
        else:
            assert abs(got - want) <= REL_TOL * abs(want)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(box=_boxes(2))
def test_l2_boxes_against_closed_form(box):
    ivs, frac = box
    s = _target(ivs, frac)
    (a1, b1), (a2, b2) = ivs
    lo, hi = max(a1, s - b2), min(b1, s - a2)
    got = polytope_integral(PolytopeSpec.make(ivs), s)
    if hi - lo < 1e-15:
        assert got == 0.0
    else:
        want = closed_form_l2(lo, hi, s)
        assert abs(got - want) <= 1e-9 * want


def _scipy_slice(monkeypatch, ivs, s):
    """The slice integral with every piece handed to scipy's quad.

    Returns (value, whether every quad call stopped after its first pass).
    A quad call that sets an error flag appends a message to its full output.
    """
    quad = pytest.importorskip("scipy.integrate").quad
    first_pass = []

    def adaptive(f, a, b, rel_tol, limit=200):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, _err, info, *_ = quad(f, a, b, epsrel=rel_tol, epsabs=0, limit=limit,
                                       full_output=1)
        first_pass.append(info["neval"] == 21)
        return val

    with monkeypatch.context() as m:
        m.setattr(integrals, "_adaptive", adaptive)
        value = integrals._slice_integral(ivs, s, REL_TOL)
    return value, all(first_pass)


def test_bit_identical_to_scipy_quad(monkeypatch):
    rng = random.Random(15)
    compared = 0
    for ell, count in ((2, 300), (3, 40)):
        for _ in range(count):
            ivs = [tuple(sorted((rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0))))
                   for _ in range(ell)]
            s = _target(ivs, rng.random())
            want, first_pass = _scipy_slice(monkeypatch, ivs, s)
            got = integrals._slice_integral(ivs, s, REL_TOL)
            if first_pass:
                assert got == want, (ivs, s)
                compared += 1
            else:
                assert abs(got - want) <= 1e-14 * abs(want), (ivs, s)
    assert compared > 250


@pytest.mark.parametrize("ivs", [[(0.01, 0.99), (1e-9, 1.0)], [(1e-6, 0.5), (0.3, 1.0)]])
def test_endpoint_singular_boxes_match_scipy_quad(monkeypatch, ivs):
    # both pieces fail the first pass and bisect
    want, first_pass = _scipy_slice(monkeypatch, ivs, 1.0)
    assert not first_pass
    got = integrals._slice_integral(ivs, 1.0, REL_TOL)
    assert abs(got - want) <= 1e-14 * abs(want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.floats(0.001, 0.9), width=st.floats(1e-6, 0.5), frac=st.floats(0.01, 0.99))
def test_qk21_first_pass_matches_quadpack(a, width, frac):
    # quad with limit=1 returns dqk21's result and error on the whole interval
    quad = pytest.importorskip("scipy.integrate").quad
    b = a + width
    s = b / frac

    def f(e):
        return 1.0 / (e * (s - e))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = quad(f, a, b, epsabs=0, epsrel=REL_TOL, limit=1)
    assert integrals._qk21(f, a, b)[:2] == want


@pytest.mark.parametrize("f, a, b, neval", [
    # abserr == resasc <= tolerance: dqagse rejects the first pass and bisects
    (lambda x: 1 + 1e-12 * abs(x - 0.3), -1.0, 1.0, 63),
    # abserr <= 100*eps*resabs, above the tolerance: the round-off exit
    (lambda x: x, -1.0, 1.0 + 1e-6, 21),
])
def test_dqagse_exit_rules_match_quad(f, a, b, neval):
    quad = pytest.importorskip("scipy.integrate").quad
    want, _err, info, *_ = quad(f, a, b, epsabs=0, epsrel=REL_TOL, full_output=1)
    assert info["neval"] == neval
    assert integrals._adaptive(f, a, b, REL_TOL) == want


def test_exhausted_limit_logs_a_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="normform"):
        val = integrals._adaptive(lambda e: 1 / math.sqrt(e), 0.0, 1.0, 1e-12, limit=5)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "normform" and r.levelno == logging.WARNING]
    assert len(lines) == 1 and "5 subintervals used" in lines[0]
    assert val == pytest.approx(2.0, rel=1e-2)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="normform"):
        integrals._adaptive(lambda e: 1 / math.sqrt(e), 0.0, 1.0, 1e-12)
    assert not caplog.records
