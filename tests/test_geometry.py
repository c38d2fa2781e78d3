"""Point counting, Davenport estimates, volumes, censuses."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normform.census import (
    constraint_row_tensors,
    fp_wedge_census,
    fp_wedge_census_report,
    skew_census,
)
from normform.errors import BudgetExceeded, DependentRows, Unbounded
from normform.fields import make_context
from normform.geometry import (
    AxisBox,
    LinearRegion,
    davenport_estimate,
    points_in_region,
    polytope_volume_exact,
    region_volume,
)
from normform.intlinalg import rank_mod_p, rank_rational
from normform.lattices import IntLattice
from normform.primes import primes_in
from normform.splitting import degree_pattern_mod_p


class TestPointsInRegion:
    def test_z2_box(self):
        lat = IntLattice(2, ((1, 0), (0, 1)))
        assert points_in_region(lat, LinearRegion.from_box(AxisBox.cube(2, 0, 10))) == 121

    def test_scaled_lattice(self):
        lat = IntLattice(2, ((2, 0), (0, 1)))
        assert points_in_region(lat, LinearRegion.from_box(AxisBox.cube(2, 0, 10))) == 66

    def test_sublattice_of_z4_vs_brute_force(self):
        rng = random.Random(12)
        done = 0
        while done < 8:
            b1 = [rng.randint(-3, 3) for _ in range(4)]
            b2 = [rng.randint(-3, 3) for _ in range(4)]
            if rank_rational([b1, b2]) < 2:
                continue
            lat = IntLattice(4, (tuple(b1), tuple(b2)))
            lo, hi = -7, 7
            box = AxisBox.cube(4, lo, hi)
            got = points_in_region(lat, LinearRegion.from_box(box))
            oracle = 0
            for a in range(-30, 31):
                for c in range(-30, 31):
                    v = [a * x + c * y for x, y in zip(b1, b2)]
                    if all(lo <= t <= hi for t in v):
                        oracle += 1
            assert got == oracle
            done += 1

    def test_unbounded_rejected(self):
        lat = IntLattice(2, ((1, 0), (0, 1)))
        with pytest.raises(Unbounded):
            points_in_region(lat, LinearRegion.make(None, [((1, 0), 0, 5)]))

    def test_budget(self):
        lat = IntLattice(2, ((1, 0), (0, 1)))
        with pytest.raises(BudgetExceeded):
            points_in_region(lat, LinearRegion.from_box(AxisBox.cube(2, 0, 10**6)),
                             budget=10**4)

    def test_halfspace_filtering(self):
        lat = IntLattice(2, ((1, 0), (0, 1)))
        reg = LinearRegion.make(AxisBox.cube(2, 0, 10),
                                [((1, 1), Fraction(0), Fraction(10))])
        got = points_in_region(lat, reg)
        oracle = sum(1 for x in range(11) for y in range(11) if x + y <= 10)
        assert got == oracle

    def test_dependent_rows_rejected(self):
        lat = IntLattice(2, ((1, 2), (2, 4)))
        with pytest.raises(DependentRows):
            points_in_region(lat, LinearRegion.from_box(AxisBox.cube(2, -3, 3)))


# integers, halves, thirds and quarters, negative ones included
ends = st.builds(lambda t, f: t + f, st.integers(-5, 4),
                 st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3),
                                  Fraction(2, 3), Fraction(1, 4)]))
widths = st.fractions(0, 7, max_denominator=3)


@st.composite
def lattices_in_regions(draw):
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, n))
    rows = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    basis = draw(st.lists(rows, min_size=r, max_size=r)
                 .filter(lambda B: rank_rational(B) == r))
    lo = [draw(ends) for _ in range(n)]
    hi = [a + draw(widths) for a in lo]
    cons = []
    for _ in range(draw(st.integers(0, 2))):
        c_lo = draw(ends)
        cons.append((draw(rows), c_lo, c_lo + draw(widths)))
    return (IntLattice(n, tuple(map(tuple, basis))),
            LinearRegion.make(AxisBox.make(lo, hi), cons))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lattices_in_regions())
def test_points_in_region_matches_brute_force(case):
    lat, region = case
    box = region.box
    axes = [range(math.ceil(a), math.floor(b) + 1) for a, b in zip(box.lo, box.hi)]
    oracle = sum(1 for x in itertools.product(*axes)
                 if region.contains(x) and lat.contains(x))
    assert points_in_region(lat, region) == oracle


class TestDavenport:
    def test_z2_box_error_shape(self):
        lat = IntLattice(2, ((1, 0), (0, 1)))
        for N in (10, 25, 50):
            reg = LinearRegion.from_box(AxisBox.cube(2, 0, N))
            est = davenport_estimate(lat, reg)
            exact = (N + 1) ** 2
            assert est.main_term == pytest.approx(N**2)
            assert abs(exact - est.main_term) <= 3 * (1 + N)

    def test_det_scaling(self):
        reg = LinearRegion.from_box(AxisBox.cube(2, 0, 40))
        m1 = davenport_estimate(IntLattice(2, ((1, 0), (0, 1))), reg).main_term
        m2 = davenport_estimate(IntLattice(2, ((2, 0), (0, 1))), reg).main_term
        assert m1 == pytest.approx(2 * m2)

    def test_unimodular_and_translation_invariance(self):
        lat1 = IntLattice(2, ((2, 1), (1, 1)))
        lat2 = IntLattice(2, ((3, 2), (1, 1)))  # row op applied
        reg = LinearRegion.from_box(AxisBox.cube(2, 0, 30))
        reg2 = LinearRegion.from_box(AxisBox.make([5, -3], [35, 27]))  # moved by (5, -3)
        a = davenport_estimate(lat1, reg)
        b = davenport_estimate(lat2, reg)
        c = davenport_estimate(lat1, reg2)
        assert a.main_term == pytest.approx(b.main_term)
        assert a.main_term == pytest.approx(c.main_term)

    def test_fitted_constant_random(self):
        rng = random.Random(101)
        worst = 0.0
        done = 0
        while done < 50:
            b1 = [rng.randint(-3, 3), rng.randint(-3, 3)]
            b2 = [rng.randint(-3, 3), rng.randint(-3, 3)]
            if rank_rational([b1, b2]) < 2:
                continue
            lat = IntLattice(2, (tuple(b1), tuple(b2)))
            N = rng.randint(10, 40)
            reg = LinearRegion.from_box(AxisBox.cube(2, -N, N))
            est = davenport_estimate(lat, reg)
            exact = points_in_region(lat, reg)
            dev = abs(exact - est.main_term) / est.error_bound
            worst = max(worst, dev)
            done += 1
        # fitted constant: deviations stay within a uniform multiple
        print(f"davenport fitted constant over 50 pairs: {worst:.3f}")
        assert worst < 10.0


class TestVolumes:
    def test_box(self):
        reg = LinearRegion.from_box(AxisBox.make([0, 0, 0], [2, 3, 4]))
        v, se = region_volume(reg)
        assert v == 24 and se == 0

    def test_simplex_3d(self):
        reg = LinearRegion.make(AxisBox.cube(3, 0, 1),
                                [((1, 1, 1), Fraction(0), Fraction(1))])
        assert polytope_volume_exact(reg) == Fraction(1, 6)

    def test_simplex_4d(self):
        reg = LinearRegion.make(AxisBox.cube(4, 0, 1),
                                [((1, 1, 1, 1), Fraction(0), Fraction(1))])
        assert polytope_volume_exact(reg) == Fraction(1, 24)

    def test_slab_of_cube(self):
        reg = LinearRegion.make(AxisBox.cube(2, 0, 2),
                                [((1, -1), Fraction(-1), Fraction(1))])
        # area between the diagonals y = x -/+ 1 inside [0,2]^2: 4 - 2*(1/2) = 3
        assert polytope_volume_exact(reg) == 3

    def test_monte_carlo_matches_exact(self):
        box = AxisBox.cube(5, 0, 1)
        reg = LinearRegion.make(box, [((1, 1, 1, 1, 1), Fraction(0), Fraction(2))])
        v, se = region_volume(reg, mc_samples=200_000, seed=5)
        # exact: P(sum of 5 uniforms <= 2) = 1 - comb: Irwin-Hall CDF
        exact = (2**5 - 5 * 1**5) / math.factorial(5)
        assert abs(v - exact) < 5 * se + 1e-3

    def test_mc_deterministic(self):
        box = AxisBox.cube(5, 0, 1)
        reg = LinearRegion.make(box, [((1, 1, 1, 1, 1), Fraction(0), Fraction(2))])
        v1, _ = region_volume(reg, mc_samples=50_000, seed=9)
        v2, _ = region_volume(reg, mc_samples=50_000, seed=9)
        assert v1 == v2


class TestFpWedgeCensus:
    def test_k1_always_one(self):
        ctx = make_context([-2, 0, 0], 1)
        for p in (3, 5, 7):
            assert fp_wedge_census(p, ctx) == 1

    def test_pure_n7_k2_ratio(self):
        ctx = make_context([-2, 0, 0, 0, 0, 0, 0], 2)
        rep = fp_wedge_census_report(ctx, [3, 5, 7])
        ratios = [r["ratio"] for r in rep.rows]
        assert all(r <= 4 * ratios[0] for r in ratios)

    def test_general_n7_k2_reference(self):
        ctx = make_context([-1, -1, 0, 0, 0, 0, 0], 2)
        rep = fp_wedge_census_report(ctx, [3, 5])
        assert rep.params[0]["reference_exponent"] == 2
        assert all(r["count"] >= 1 for r in rep.rows)

    def test_census_matches_pointwise_oracle(self):
        for f, k, p in [([-1, -1, 0, 0, 0], 2, 3), ([-2, 0, 0, 0, 0, 0, 0], 2, 3),
                        ([-1, -1, 0, 0], 1, 5), ([-2, 0, 0, 0, 0, 0], 3, 3)]:
            ctx = make_context(f, k)
            assert fp_wedge_census(p, ctx) == pointwise_census(p, ctx)

    def test_budget(self):
        ctx = make_context([-2, 0, 0, 0, 0, 0, 0], 2)
        with pytest.raises(BudgetExceeded):
            fp_wedge_census(101, ctx)

    def test_budget_boundary(self):
        ctx = make_context([-2, 0, 0, 0, 0, 0, 0], 2)
        assert fp_wedge_census(7, ctx, budget=7**7) == 7
        with pytest.raises(BudgetExceeded):
            fp_wedge_census(7, ctx, budget=7**7 - 1)


def pointwise_census(p, ctx):
    """The census by one rank mod p at every point of F_p^n (the oracle)."""
    tensors = constraint_row_tensors(ctx)
    count = 0
    for b in itertools.product(range(p), repeat=ctx.n):
        vec = np.array(b, dtype=np.int64)
        if rank_mod_p(np.stack([(R @ vec) % p for R in tensors]), p) < ctx.k:
            count += 1
    return count


def irreducible_mod_some_prime(f):
    """f monic is irreducible over Q when it is irreducible mod some prime."""
    return any(degree_pattern_mod_p(f, q) == ([len(f) - 1], True) for q in primes_in(2, 47))


@st.composite
def census_cases(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(max(2, k + 1), 6))
    p = draw(st.sampled_from((2, 3, 5)))
    # coefficients often divisible by p, so that f mod p degenerates and
    # counts above the lone point b = 0 occur
    coeff = st.builds(lambda t, r: p * t + r, st.integers(-2, 2), st.sampled_from((0, 0, 1, -1, 2)))
    low = draw(st.lists(coeff, min_size=n, max_size=n)
               .filter(lambda c: irreducible_mod_some_prime(c + [1])))
    return make_context(low, k), p


@settings(max_examples=60, deadline=None, derandomize=True)
@given(census_cases())
def test_census_matches_pointwise_oracle_random(case):
    ctx, p = case
    assert fp_wedge_census(p, ctx) == pointwise_census(p, ctx)


class TestSkewCensus:
    def test_kappa_extremes_and_monotone(self):
        ctx = make_context([-2, 0, 0, 0, 0, 0, 0], 2)
        kappas = [0.0, 2**-10, 2**-6, 2**-2, 1.0, 1e9]
        rep = skew_census(ctx, B=20, samples=300, kappas=kappas, seed=5)
        freqs = [r["frequency"] for r in rep.rows]
        incl = [r["frequency_incl_degenerate"] for r in rep.rows]
        # at kappa = 0 only wedge = 0 qualifies: the degenerate-pair fraction
        assert incl[0] == rep.notes["degenerate_frequency"]
        assert freqs[0] == 0.0
        assert freqs == sorted(freqs)  # monotone in kappa
        assert incl[-1] == 1.0  # kappa beyond the maximum captures everything

    def test_deterministic_given_seed(self):
        ctx = make_context([-2, 0, 0, 0], 1)
        r1 = skew_census(ctx, B=10, samples=100, kappas=[0.5], seed=3)
        r2 = skew_census(ctx, B=10, samples=100, kappas=[0.5], seed=3)
        assert r1.rows == r2.rows
