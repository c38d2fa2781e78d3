"""Exact lattice point counts and F_p wedge censuses."""

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
from normform.errors import BudgetExceeded, DependentRows, ValidationError
from normform.fields import make_context
from normform.geometry import AxisBox, LinearRegion, points_in_region
from normform.intlinalg import gram_det, lll_reduce, rank_mod_p, rank_rational
from normform.lattices import IntLattice, lambda_v
from normform.primes import primes_in
from normform.splitting import degree_pattern_mod_p
from test_lattices import coefficient_bounds, depth_first_reference


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
        # the box certifies boundedness: no region is built without one
        for box in (None, ((0, 0), (5, 5)), [AxisBox.cube(2, 0, 5)]):
            with pytest.raises(ValidationError, match="axis box"):
                LinearRegion.make(box, [((1, 0), 0, 5)])
            with pytest.raises(ValidationError, match="axis box"):
                LinearRegion.from_box(box)

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

    # a region must have the lattice's ambient dimension, or zip would cut
    # the longer of a point and a box or functional short
    @pytest.mark.parametrize("region", [
        LinearRegion.from_box(AxisBox.cube(2, -2, 2)),
        LinearRegion.from_box(AxisBox.cube(4, -2, 2)),
        LinearRegion.make(AxisBox.cube(3, -2, 2), [((0, 0), 0, 0)]),
    ], ids=["box-2d", "box-4d", "constraint-length-2"])
    def test_region_of_another_dimension_rejected(self, region):
        lat = IntLattice(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(ValidationError, match="ambient dimension 3"):
            points_in_region(lat, region)

    @pytest.mark.parametrize("v", [(1, 0, 0, 0), (1, 2, 0, -1)])
    def test_rank3_lambda_v_in_a_4_box(self, v):
        # the shape the benchmark counts: Lambda_v of x^4 - 2, k = 1, in [-h, h]^4
        lat = lambda_v(v, make_context([-2, 0, 0, 0], 1))
        assert (lat.rank, lat.ambient_dim) == (3, 4)
        region = LinearRegion.from_box(AxisBox.cube(4, -3, 3))
        assert points_in_region(lat, region) == brute_force_count(lat, region)


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



def brute_force_count(lat, region):
    """Lattice points of the region, one integer point of its box at a time."""
    box = region.box
    axes = [range(math.ceil(a), math.floor(b) + 1) for a, b in zip(box.lo, box.hi)]
    return sum(1 for x in itertools.product(*axes)
               if region.contains(x) and lat.contains(x))


def coefficient_scan_count(lat, region):
    """Lattice points of the region from every coefficient vector within the
    exact coefficient bounds of the region's bounding ball."""
    B = [list(b) for b in lat.basis]
    bounds = coefficient_bounds(B, region.box.radius_sq())
    return sum(1 for c in itertools.product(*(range(-b, b + 1) for b in bounds))
               if region.contains([sum(ci * b[j] for ci, b in zip(c, B))
                                   for j in range(lat.ambient_dim)]))


@st.composite
def lattices_in_z4_regions(draw):
    r = draw(st.integers(1, 4))
    rows = st.lists(st.integers(-3, 3), min_size=4, max_size=4)
    basis = draw(st.lists(rows, min_size=r, max_size=r)
                 .filter(lambda B: rank_rational(B) == r))
    lo = [draw(ends) for _ in range(4)]
    hi = [a + draw(st.fractions(0, 4, max_denominator=3)) for a in lo]
    cons = []
    for _ in range(draw(st.integers(0, 2))):
        c_lo = draw(ends)
        cons.append((draw(rows), c_lo, c_lo + draw(widths)))
    return (IntLattice(4, tuple(map(tuple, basis))),
            LinearRegion.make(AxisBox.make(lo, hi), cons))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lattices_in_z4_regions())
def test_leaf_interval_clipping_matches_brute_force_in_z4(case):
    lat, region = case
    assert points_in_region(lat, region) == brute_force_count(lat, region)


class TestLeafIntervalClipping:
    """points_in_region clips each Fincke-Pohst leaf interval v + t*b0 against
    every box coordinate and constraint; these cases pin the edges of that."""

    @pytest.mark.parametrize("b0", [(2, 0, -3, 0), (0, -1, 0, 0), (-1, -2, 0, 1),
                                    (0, 0, 0, 5)])
    def test_b0_with_zero_and_negative_entries(self, b0):
        # a rank-1 lattice is its own reduced basis, so b0 is exactly this row
        lat = IntLattice(4, (b0,))
        region = LinearRegion.from_box(AxisBox.make([-7, -3, -9, -10], [5, 4, 8, 10]))
        assert points_in_region(lat, region) == coefficient_scan_count(lat, region)

    def test_zero_and_negative_entries_in_a_rank3_basis(self):
        lat = IntLattice(4, ((0, -2, 1, 0), (3, 0, 0, -1), (-1, 1, -1, 2)))
        region = LinearRegion.from_box(AxisBox.make([-4, -5, -3, -6], [6, 2, 4, 3]))
        assert points_in_region(lat, region) == coefficient_scan_count(lat, region)

    def test_box_ends_on_lattice_coordinates(self):
        # 3Z x 2Z: every end is a coordinate of a lattice point, and inclusive
        lat = IntLattice(2, ((3, 0), (0, 2)))
        region = LinearRegion.from_box(AxisBox.make([-6, -4], [9, 8]))
        assert points_in_region(lat, region) == 6 * 7 == brute_force_count(lat, region)
        # moving each end inwards by 1/2 drops the points on it
        region = LinearRegion.from_box(AxisBox.make(
            [Fraction(-11, 2), Fraction(-7, 2)], [Fraction(17, 2), Fraction(15, 2)]))
        assert points_in_region(lat, region) == 4 * 5 == brute_force_count(lat, region)

    def test_box_ends_on_a_line_of_lattice_points(self):
        # t (1, 2, -3) lies in the box for t in [-2, 3] in every coordinate
        lat = IntLattice(3, ((1, 2, -3),))
        region = LinearRegion.from_box(AxisBox.make([-2, -4, -9], [3, 6, 6]))
        assert points_in_region(lat, region) == 6 == brute_force_count(lat, region)

    @pytest.mark.parametrize("a, lo, hi", [((3, 1, -1, 0), -3, 4), ((3, 1, -1, 0), 1, 4),
                                           ((0, 0, 0, 0), 0, 0), ((0, 0, 0, 0), 1, 2)])
    def test_constraint_orthogonal_to_b0(self, a, lo, hi):
        # a.b0 == 0: the constraint keeps a whole leaf interval or empties it
        basis = [[1, 2, 0, -1], [0, 1, 1, 1]]
        assert sum(x * y for x, y in zip(a, lll_reduce(basis)[0])) == 0
        lat = IntLattice(4, tuple(map(tuple, basis)))
        region = LinearRegion.make(AxisBox.cube(4, -5, 5), [(a, lo, hi)])
        assert points_in_region(lat, region) == coefficient_scan_count(lat, region)

    def test_box_holding_v_but_not_minus_v(self):
        lat = IntLattice(2, ((1, 1),))
        region = LinearRegion.from_box(AxisBox.make([0, 0], [5, 5]))
        assert points_in_region(lat, region) == 6  # (t, t) for t = 0..5, no -v
        lat = IntLattice(2, ((2, 1), (-1, 3)))
        region = LinearRegion.make(AxisBox.make([1, -2], [9, 7]),
                                   [((1, -1), Fraction(-3, 2), 6)])
        assert points_in_region(lat, region) == brute_force_count(lat, region)

    def test_budget_counts_coefficient_choices(self):
        # BudgetExceeded exactly when the Fincke-Pohst tree of the reduced
        # basis in the bounding ball has more nodes than the budget
        basis = [[1, 2, 0, -1], [0, 1, 1, 1], [3, 0, -1, 1]]
        region = LinearRegion.from_box(AxisBox.make([-3, -2, -4, -1], [4, 3, 2, 5]))
        lat = IntLattice(4, tuple(map(tuple, basis)))
        red, r2 = lll_reduce(basis), region.box.radius_sq()
        nodes = len(depth_first_reference(red, r2, coefficient_bounds(red, r2)))
        # the ball-volume estimate passes at both budgets
        est = float(r2) ** 1.5 * 4 / 3 * math.pi / math.sqrt(gram_det(red))
        assert est <= nodes - 1
        assert (points_in_region(lat, region, budget=nodes)
                == coefficient_scan_count(lat, region))
        with pytest.raises(BudgetExceeded):
            points_in_region(lat, region, budget=nodes - 1)


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
        # p + 1 lines at 7^3 rank steps and one plane at 2 * 7^3 make
        # 343 (p + 3) steps, over the default 10^8 from p = 291,543 on
        ctx = make_context([-2, 0, 0, 0, 0, 0, 0], 2)
        with pytest.raises(BudgetExceeded):
            fp_wedge_census(1_000_003, ctx)

    def test_budget_boundary(self):
        # 8 lines at 1 * 7^3 rank steps each, one plane at 2 * 7^3
        ctx = make_context([-2, 0, 0, 0, 0, 0, 0], 2)
        work = 8 * 343 + 2 * 343
        assert fp_wedge_census(7, ctx, budget=work) == 7
        with pytest.raises(BudgetExceeded):
            fp_wedge_census(7, ctx, budget=work - 1)

    def test_budget_gates_rank_work_not_p_to_the_n(self):
        # x^5 - 2, k = 2 at p = 5: 6 lines at 125 and one plane at 250 make
        # 1000 rank steps, while p^n = 3125 would have refused this budget
        ctx = make_context([-2, 0, 0, 0, 0], 2)
        assert fp_wedge_census(5, ctx, budget=1000) == pointwise_census(5, ctx)
        with pytest.raises(BudgetExceeded):
            fp_wedge_census(5, ctx, budget=999)
        # the septic at p = 17: 18 lines and one plane, well inside 10^8
        assert fp_wedge_census(17, make_context([-2, 0, 0, 0, 0, 0, 0], 2)) >= 1


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
