"""Polytope slice integrals against closed forms."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import normform
from normform.errors import EmptySlice
from normform.integrals import (
    PolytopeSpec,
    closed_form_l2,
    polytope_integral,
    polytope_integral_strict,
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
    with pytest.raises(EmptySlice):
        polytope_integral_strict(spec, 5.0)


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


def test_scipy_loads_only_with_the_first_slice_integral():
    src = Path(normform.__file__).resolve().parent.parent
    config = Path(__file__).resolve().parent.parent / "configs" / "typeii_integral.json"
    code = f"""if True:
        import json, sys
        sys.path.insert(0, {str(src)!r})
        import normform.cli
        assert "scipy" not in sys.modules, "import normform.cli loaded scipy"
        from normform.integrals import PolytopeSpec, polytope_integral
        cfg = json.loads(open({str(config)!r}).read())
        value = polytope_integral(PolytopeSpec.make(cfg["intervals"]), cfg["target_sum"])
        print(repr(value), "scipy.integrate" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # the pinned value of configs/typeii_integral.json, bit for bit
    assert out.stdout.split() == ["0.40546510810816433", "True"]
