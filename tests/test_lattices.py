"""Constraint lattices, wedge vectors and the determinant formula."""

import itertools
import math
import random
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normform.errors import BudgetExceeded, DegeneratePair, DependentRows, ZeroWedge
from normform.fields import constraint_rows, diamond, make_context
from normform.intlinalg import (
    det_bareiss,
    enumerate_short_vectors,
    gram_det,
    gram_matrix,
    kernel_oracle,
    kernel_sequential,
    lll_reduce,
    rank_mod_p,
    rank_rational,
    solve_rational,
    successive_minima,
)
from normform.primes import is_prime
from normform.lattices import (
    IntLattice,
    WedgeVec,
    det_squared_formula,
    lambda_pair,
    lambda_v,
    lattice_det_sq,
    reduced_basis,
    wedge,
    wedge_pair,
)

FIELDS = [
    ([-2, 0, 0, 0], 1),
    ([-1, -1, 0, 0, 0], 1),
    ([-1, -1, 0, 0, 0], 2),
    ([-3, 0, 0, 0, 0, 0], 1),
    ([-3, 0, 0, 0, 0, 0], 2),
    ([-2, 0, 0, 0, 0, 0, 0], 2),
    ([-3, 0, 0, 0, 0, 0, 0, 0], 2),
]


def rand_vec(rng, n):
    v = [rng.randint(-9, 9) for _ in range(n)]
    if all(t == 0 for t in v):
        v[0] = 1
    return v


class TestLambdaV:
    def test_pure_unit_k1(self):
        ctx = make_context([-2, 0, 0, 0], 1)
        lat = lambda_v((1, 0, 0, 0), ctx)
        assert lat.rank == 3
        assert lattice_det_sq(lat) == 1
        assert all(b[3] == 0 for b in lat.basis)  # {x : x_n = 0}

    def test_membership_random(self):
        rng = random.Random(8)
        for fc, k in FIELDS[:4]:
            ctx = make_context(fc, k)
            v = rand_vec(rng, ctx.n)
            lat = lambda_v(v, ctx)
            assert lat.rank == ctx.n - ctx.k
            for _ in range(40):
                coeffs = [rng.randint(-5, 5) for _ in range(lat.rank)]
                x = [sum(c * b[j] for c, b in zip(coeffs, lat.basis))
                     for j in range(ctx.n)]
                prod = diamond(x, v, ctx)
                assert all(prod[j] == 0 for j in range(ctx.m, ctx.n))

    def test_scaling_invariance(self):
        ctx = make_context([-2, 0, 0, 0], 1)
        rng = random.Random(3)
        for _ in range(20):
            v = rand_vec(rng, 4)
            l1 = lambda_v(v, ctx)
            l2 = lambda_v([7 * t for t in v], ctx)
            assert all(l1.contains(b) for b in l2.basis)
            assert all(l2.contains(b) for b in l1.basis)
            assert lattice_det_sq(l1) == lattice_det_sq(l2)

    def test_saturation(self):
        # any integer vector in the rational span of the basis is in the lattice
        rng = random.Random(14)
        ctx = make_context([-1, -1, 0, 0, 0], 2)
        for _ in range(20):
            v = rand_vec(rng, 5)
            lat = lambda_v(v, ctx)
            for _ in range(10):
                # random rational combination cleared to integers
                num = [rng.randint(-6, 6) for _ in range(lat.rank)]
                den = rng.randint(1, 4)
                x = [Fraction(sum(c * b[j] for c, b in zip(num, lat.basis)), den)
                     for j in range(ctx.n)]
                if all(t.denominator == 1 for t in x):
                    assert lat.contains([int(t) for t in x])


class TestLambdaPair:
    def test_identical_vectors_degenerate(self):
        ctx = make_context([-2, 0, 0, 0], 1)
        with pytest.raises(DegeneratePair):
            lambda_pair((1, 2, 3, 4), (1, 2, 3, 4), ctx)

    def test_rank_and_intersection(self):
        rng = random.Random(21)
        ctx = make_context([-2, 0, 0, 0], 1)
        done = 0
        while done < 25:
            v1, v2 = rand_vec(rng, 4), rand_vec(rng, 4)
            if wedge_pair(v1, v2, ctx).is_zero():
                continue
            lat = lambda_pair(v1, v2, ctx)
            assert lat.rank == 2
            l1, l2 = lambda_v(v1, ctx), lambda_v(v2, ctx)
            for b in lat.basis:
                assert l1.contains(b) and l2.contains(b)
            done += 1

    def test_equals_intersection(self):
        # every vector in both lambda_v's lies in lambda_pair
        rng = random.Random(2)
        ctx = make_context([-2, 0, 0, 0, 0, 0, 0], 2)
        v1, v2 = rand_vec(rng, 7), rand_vec(rng, 7)
        assert not wedge_pair(v1, v2, ctx).is_zero()
        lat = lambda_pair(v1, v2, ctx)
        l1, l2 = lambda_v(v1, ctx), lambda_v(v2, ctx)
        # brute: solve for joint kernel via kernel_oracle on stacked rows
        from normform.fields import constraint_rows

        stacked = constraint_rows(v1, ctx) + constraint_rows(v2, ctx)
        K = kernel_oracle(stacked)
        for b in K:
            assert lat.contains(b)
        for b in lat.basis:
            assert l1.contains(b) and l2.contains(b)


class TestWedge:
    def test_k1_wedge_is_constraint_row(self):
        ctx = make_context([-2, 0, 0, 0], 1)
        from normform.fields import constraint_rows

        v = (3, 1, -2, 5)
        assert list(wedge(v, ctx).entries) == constraint_rows(v, ctx)[0]

    def test_pure_unit_colex(self):
        ctx = make_context([-2, 0, 0, 0], 1)
        assert wedge((1, 0, 0, 0), ctx).entries == (0, 0, 0, 1)

    def test_scaling(self):
        ctx = make_context([-2, 0, 0, 0, 0, 0, 0], 2)
        rng = random.Random(6)
        for _ in range(10):
            v = rand_vec(rng, 7)
            w1 = wedge(v, ctx)
            w2 = wedge([3 * t for t in v], ctx)
            assert w2.entries == tuple(3**ctx.k * e for e in w1.entries)

    def test_content_and_norm(self):
        w = WedgeVec(1, (2, 4, 6))
        assert w.content == 2
        assert det_squared_formula(w) == Fraction(56, 4) == 14

    def test_zero_wedge_raises(self):
        with pytest.raises(ZeroWedge):
            det_squared_formula(WedgeVec(2, (0, 0, 0)))


class TestDeterminantFormula:
    def test_formula_vs_gram_all_fields(self):
        rng = random.Random(42)
        for fc, k in FIELDS:
            ctx = make_context(fc, k)
            for _ in range(60):
                v = rand_vec(rng, ctx.n)
                assert det_squared_formula(wedge(v, ctx)) == \
                    lattice_det_sq(lambda_v(v, ctx))

    def test_pair_formula_vs_gram(self):
        rng = random.Random(43)
        for fc, k in FIELDS:
            ctx = make_context(fc, k)
            done = 0
            while done < 30:
                v1, v2 = rand_vec(rng, ctx.n), rand_vec(rng, ctx.n)
                wp = wedge_pair(v1, v2, ctx)
                if wp.is_zero():
                    continue
                assert det_squared_formula(wp) == \
                    lattice_det_sq(lambda_pair(v1, v2, ctx))
                done += 1


class TestKernelOracle:
    def test_single_constraint(self):
        K = kernel_oracle([[0, 0, 0, 1]])
        assert len(K) == 3
        assert all(b[3] == 0 for b in K)
        assert gram_det(K) == 1

    def test_matches_lambda_v_as_sets(self):
        rng = random.Random(77)
        from normform.fields import constraint_rows

        for fc, k in FIELDS[:4]:
            ctx = make_context(fc, k)
            for _ in range(15):
                v = rand_vec(rng, ctx.n)
                K = IntLattice(ctx.n, tuple(tuple(r) for r in
                                            kernel_oracle(constraint_rows(v, ctx))))
                L = lambda_v(v, ctx)
                assert all(K.contains(b) for b in L.basis)
                assert all(L.contains(b) for b in K.basis)

    def test_hand_2x2(self):
        # kernel of (2, 0; 0, 3) inside Z^3 padded with a zero column:
        # constraints 2x1 = 0 and 3x2 = 0 leave exactly the x3 axis
        K = kernel_oracle([[2, 0, 0], [0, 3, 0]])
        assert len(K) == 1 and sorted(map(abs, K[0])) == [0, 0, 1]
        assert gram_det(K) == 1


class TestGramDet:
    def test_standard_basis(self):
        assert gram_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_hand_case(self):
        assert gram_det([[1, 1], [0, 2]]) == 4

    def test_unimodular_invariance(self):
        rng = random.Random(9)
        for _ in range(100):
            B = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
            if rank_rational(B) < 2:
                continue
            g = gram_det(B)
            c = rng.randint(-3, 3)  # one unimodular row operation
            B2 = [B[0][:], [b + c * a for a, b in zip(B[0], B[1])]]
            assert gram_det(B2) == g


class TestReducedBasis:
    def test_standard_lattice(self):
        lat = IntLattice(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        rb = reduced_basis(lat)
        assert rb.minima_sq == (1, 1, 1)

    def test_skewed_2d(self):
        lat = IntLattice(2, ((1, 0), (100, 1)))
        rb = reduced_basis(lat)
        assert rb.minima_sq[0] == 1
        assert rb.minima_sq[1] <= 4  # second minimum at most 2 in length

    def test_product_bound(self):
        rng = random.Random(31)
        ctx = make_context([-2, 0, 0, 0, 0, 0, 0], 2)
        for _ in range(10):
            v = [rng.randint(-9, 9) for _ in range(7)]
            if all(t == 0 for t in v):
                v[0] = 1
            lat = lambda_v(v, ctx)
            rb = reduced_basis(lat)
            r = lat.rank
            prod_sq = math.prod(sum(x * x for x in b) for b in rb.basis)
            assert prod_sq <= 2 ** (2 * r * r) * lattice_det_sq(lat)

    def test_lengths_vs_minima(self):
        # reduced lengths within the LLL dimension factor of the exact minima
        rng = random.Random(13)
        ctx = make_context([-1, -1, 0, 0, 0], 2)
        for _ in range(8):
            v = [rng.randint(-9, 9) for _ in range(5)]
            if all(t == 0 for t in v):
                v[0] = 1
            rb = reduced_basis(lambda_v(v, ctx))
            r = len(rb.basis)
            for b, m in zip(rb.basis, rb.minima_sq):
                assert sum(x * x for x in b) <= 2 ** (r - 1) * m


def degenerate_directions(v, ctx):
    # the reversed constraint rows of v span the subspace of the tightness
    # remark: x in their span has constraint rows dependent on those of v
    return [row[::-1] for row in constraint_rows(v, ctx)]


class TestSubspaceBoundTightness:
    def test_degenerate_directions_vanish(self):
        # wedge_pair(x, v) = 0 exactly on the reversed-constraint-row span
        rng = random.Random(70)
        for fc, k in [([-2, 0, 0, 0], 1), ([-2, 0, 0, 0, 0, 0, 0], 2)]:
            ctx = make_context(fc, k)
            for _ in range(12):
                v = rand_vec(rng, ctx.n)
                dirs = degenerate_directions(v, ctx)
                assert len(dirs) == ctx.k
                coeffs = [rng.randint(-4, 4) for _ in range(ctx.k)]
                x = [sum(c * d[j] for c, d in zip(coeffs, dirs))
                     for j in range(ctx.n)]
                if all(t == 0 for t in x):
                    continue
                assert wedge_pair(x, v, ctx).is_zero()

    def test_dimension_is_exactly_k(self):
        ctx = make_context([-2, 0, 0, 0, 0, 0, 0], 2)
        v = [2, -1, 3, 0, 1, 4, -2]
        assert rank_rational(degenerate_directions(v, ctx)) == ctx.k


# --- property tests of the exact kernels ------------------------------------------


def int_matrices(rows, cols, bound=6):
    return st.lists(st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


square_systems = st.integers(1, 5).flatmap(
    lambda n: st.tuples(int_matrices(n, n), st.lists(st.integers(-20, 20),
                                                     min_size=n, max_size=n)))
matrices = st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(
    lambda rc: int_matrices(*rc))


def hadamard_bound(A) -> int:
    """An integer at least |M| for every minor M of A."""
    return math.prod(max(1, math.isqrt(sum(a * a for a in row)) + 1) for row in A)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(square_systems)
def test_solve_rational_recovers_x(system):
    A, x = system
    b = [sum(a * t for a, t in zip(row, x)) for row in A]
    sol = solve_rational(A, b)
    if det_bareiss(A) != 0:
        assert sol == x
    else:
        assert sol is None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: int_matrices(n, n, bound=2)))
def test_full_rank_iff_nonzero_det(A):
    assert (rank_rational(A) == len(A)) == (det_bareiss(A) != 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices, st.sampled_from([2, 3, 5, 7]))
def test_rank_mod_p_bounded_by_rational_rank(A, p):
    r = rank_rational(A)
    assert rank_mod_p(A, p) <= r
    big = hadamard_bound(A) + 1
    while not is_prime(big):
        big += 1
    assert rank_mod_p(A, big) == r


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.tuples(st.integers(1, 3), st.integers(4, 6)).flatmap(
    lambda rc: int_matrices(*rc)))
def test_kernel_oracles_span_the_same_lattice(C):
    n = len(C[0])
    if rank_rational(C) < len(C):
        with pytest.raises(DependentRows):
            kernel_oracle(C)
        with pytest.raises(DependentRows):
            kernel_sequential(C, n)
        return
    K1 = kernel_oracle(C)
    K2 = kernel_sequential(C, n)
    assert gram_det(K1) == gram_det(K2)
    L1 = IntLattice(n, tuple(map(tuple, K1)))
    L2 = IntLattice(n, tuple(map(tuple, K2)))
    assert all(L1.contains(v) for v in K2)
    assert all(L2.contains(v) for v in K1)


# --- exact lattice kernels against independent references --------------------------


full_rank_bases = st.integers(1, 5).flatmap(
    lambda r: st.integers(r, 6).flatmap(lambda n: int_matrices(r, n, bound=3))
).filter(lambda B: rank_rational(B) == len(B))


def coefficient_bounds(B, radius2) -> list[int] | None:
    """|c_i| <= sqrt(radius2 * (G^-1)_ii) for every lattice vector c.B of
    squared length <= radius2; None when the box holds too many points."""
    G = gram_matrix(B)
    det = det_bareiss(G)
    bounds = []
    for i in range(len(B)):
        minor = [[g for j, g in enumerate(row) if j != i]
                 for t, row in enumerate(G) if t != i]
        inv_ii = Fraction(det_bareiss(minor), det)
        bounds.append(math.isqrt(math.floor(Fraction(radius2) * inv_ii)))
    return bounds if math.prod(2 * b + 1 for b in bounds) <= 20_000 else None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(full_rank_bases, st.integers(0, 40), st.integers(1, 4), st.booleans(),
       st.lists(st.integers(-2, 2), min_size=5, max_size=5))
def test_enumeration_matches_coefficient_box_scan(B, num, den, attained, c):
    r = len(B)
    if attained and any(c[:r]):
        # radius exactly the squared length of a lattice vector
        radius2 = Fraction(sum(sum(ci * b[j] for ci, b in zip(c, B)) ** 2
                               for j in range(len(B[0]))))
    else:
        radius2 = Fraction(num, den)
    bounds = coefficient_bounds(B, radius2)
    assume(bounds is not None)
    expected = []
    for cs in itertools.product(*(range(-b, b + 1) for b in bounds)):
        nonzero = [x for x in cs if x]
        if not nonzero or nonzero[-1] < 0:
            continue
        v = [sum(ci * b[j] for ci, b in zip(cs, B)) for j in range(len(B[0]))]
        if sum(x * x for x in v) <= radius2:
            expected.append((list(cs), v))
    got = list(enumerate_short_vectors(B, radius2))
    assert sorted(got) == sorted(expected)
    assert len({tuple(cs) for cs, _ in got}) == len(got)


def projection_forms(B):
    """(Q, q) per level l: y.Q.y / q is the squared length of the projection
    of y orthogonal to rows 0..l-1 of B."""
    n = len(B[0])
    forms = []
    for l in range(len(B)):
        head = B[:l]
        G = [[sum(a * b for a, b in zip(u, v)) for v in head] for u in head]
        Q = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(l and n):
            z = solve_rational(G, [row[i] for row in head])
            for j in range(n):
                Q[j][i] -= sum(zt * row[j] for zt, row in zip(z, head))
        q = math.lcm(*(x.denominator for row in Q for x in row))
        forms.append(([[int(x * q) for x in row] for row in Q], q))
    return forms


def depth_first_reference(B, radius2, bounds):
    """Every coefficient choice (level, coefficients) in Fincke-Pohst order:
    levels from the last row down, candidates in ascending order, a prefix
    kept when its projection orthogonal to the earlier rows is short enough."""
    r, n = len(B), len(B[0])
    forms = projection_forms(B)
    nodes = []

    def visit(level, cs):
        Q, q = forms[level]
        for x in range(-bounds[level], bounds[level] + 1):
            c = [0] * level + [x] + cs
            y = [sum(ci * b[j] for ci, b in zip(c, B)) for j in range(n)]
            if sum(yi * Q[i][j] * yj for i, yi in enumerate(y)
                   for j, yj in enumerate(y)) <= radius2 * q:
                nodes.append((level, c))
                if level:
                    visit(level - 1, [x] + cs)

    visit(r - 1, [])
    return nodes


@settings(max_examples=100, deadline=None, derandomize=True)
@given(full_rank_bases, st.integers(0, 30), st.integers(1, 3), st.data())
def test_enumeration_order_and_budget_match_depth_first_reference(B, num, den, data):
    radius2 = Fraction(num, den)
    bounds = coefficient_bounds(B, radius2)
    assume(bounds is not None)
    nodes = depth_first_reference(B, radius2, bounds)

    def leaves(prefix):
        return [(c, [sum(ci * b[j] for ci, b in zip(c, B)) for j in range(len(B[0]))])
                for level, c in prefix
                if level == 0 and [x for x in c if x][-1:] > [0]]

    assert list(enumerate_short_vectors(B, radius2)) == leaves(nodes)
    # limit coefficient choices: the leaves among the first limit nodes, then
    # BudgetExceeded exactly when the search tree has more nodes than that
    for limit in {0, len(nodes) - 1, len(nodes), data.draw(st.integers(0, len(nodes)))}:
        got = []
        with pytest.raises(BudgetExceeded) if len(nodes) > limit else nullcontext():
            for item in enumerate_short_vectors(B, radius2, limit=limit):
                got.append(item)
        assert got == leaves(nodes[:limit])


def test_enumeration_of_a_negative_radius_is_empty():
    assert list(enumerate_short_vectors([[1, 0], [0, 1]], Fraction(-1))) == []


def lll_reference(basis, delta=Fraction(99, 100)):
    """LLL that recomputes Gram-Schmidt from scratch after every step."""

    def gram_schmidt(b):
        r = len(b)
        mu = [[Fraction(0)] * r for _ in range(r)]
        norms = []
        for i in range(r):
            for j in range(i):
                s = (sum(x * y for x, y in zip(b[i], b[j]))
                     - sum(mu[j][t] * mu[i][t] * norms[t] for t in range(j)))
                mu[i][j] = s / norms[j]
            norms.append(sum(x * x for x in b[i])
                         - sum(mu[i][t] ** 2 * norms[t] for t in range(i)))
        return mu, norms

    b = [list(row) for row in basis]
    mu, norms = gram_schmidt(b)
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = math.floor(mu[k][j] + Fraction(1, 2))
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = gram_schmidt(b)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt(b)
            k = max(k - 1, 1)
    return b


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(
    lambda r: st.integers(r, 7).flatmap(lambda n: int_matrices(r, n, bound=40))))
def test_lll_matches_full_recompute_reference(B):
    if rank_rational(B) < len(B):
        with pytest.raises(DependentRows):
            lll_reduce(B)
        return
    assert lll_reduce(B) == lll_reference(B)


def test_dependent_rows_rejected_by_lll():
    with pytest.raises(DependentRows):
        lll_reduce([[1, 2], [2, 4]])


def minima_reference(basis):
    """Greedy selection among the sorted candidates by rational rank."""
    red = lll_reference(basis)
    radius2 = max(sum(x * x for x in row) for row in red)
    cands = sorted((sum(x * x for x in v), v)
                   for _, v in enumerate_short_vectors(red, Fraction(radius2)))
    minima, chosen = [], []
    for norm2, v in cands:
        if rank_rational(chosen + [v]) > len(chosen):
            minima.append(norm2)
            chosen.append(v)
    return minima, chosen


@settings(max_examples=100, deadline=None, derandomize=True)
@given(full_rank_bases)
def test_successive_minima_match_rank_greedy(B):
    assert successive_minima(B) == minima_reference(B)


def test_successive_minima_of_a_skewed_rank7_lattice():
    lat = lambda_v([-3, -3, 3, 3, 0, 3, 5, 3], make_context([-2] + [0] * 7, 1))
    basis = [list(b) for b in lat.basis]
    minima, vecs = successive_minima(basis)
    assert minima == [1, 2, 2, 2, 2, 2, 14]
    assert (minima, vecs) == minima_reference(basis)
    assert reduced_basis(lat).minima_sq == (1, 2, 2, 2, 2, 2, 14)
