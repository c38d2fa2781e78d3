"""Order arithmetic: multiplication, norms, constraint rows."""

import itertools
import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from normform import fields
from normform.errors import (
    BudgetExceeded,
    DegenerateDegree,
    FactorizationBudget,
    ReducibleDetected,
    ValidationError,
    ZeroVector,
)
from normform.fields import (
    FieldSpec,
    _homogeneous_exponents,
    _iroot,
    constraint_rows,
    diamond,
    eval_norm_poly_grid,
    make_context,
    mul_matrix,
    norm,
    norm_form,
    norm_form_polynomial,
)
from normform.intlinalg import solve_rational
from normform.localdata import resultant
from normform.primes import is_prime, primes_in

FIELDS = [
    ([-2, 0, 0], 1),          # X^3 - 2, pure
    ([-2, 0, 0, 0], 1),       # X^4 - 2, pure
    ([1, 1, 0, 0], 1),        # X^4 + X + 1, general
    ([-1, -1, 0, 0, 0], 1),   # X^5 - X - 1, general
    ([-2, 0, 0, 0, 0, 0, 0], 2),  # X^7 - 2, pure, k=2
]


def ctx_of(fc, k):
    return make_context(fc, k)


def poly_mulmod_oracle(a, b, f):
    """Schoolbook product then long division by monic f."""
    n = len(f) - 1
    prod = [0] * (2 * n)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for d in range(2 * n - 1, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(n):
                prod[d - n + j] -= c * f[j]
    return tuple(prod[:n])


def sylvester_norm_oracle(v, ctx):
    """Res(f, sum v_i X^(i-1)): the norm, computed without mul_matrix."""
    return resultant(list(ctx.f_coeffs), list(v))


class TestMakeContext:
    def test_cube2(self):
        ctx = make_context([-2, 0, 0], 1)
        assert (ctx.n, ctx.k, ctx.pure_theta) == (3, 1, 2)

    def test_rational_root_rejected(self):
        # X^2 - X has root 0
        with pytest.raises(ReducibleDetected):
            make_context([0, -1], 0)

    def test_quartic_pure(self):
        ctx = make_context([-2, 0, 0, 0], 1)
        assert (ctx.n, ctx.k, ctx.pure_theta) == (4, 1, 2)

    def test_repeated_factor_rejected(self):
        # (X - 1)^2 = X^2 - 2X + 1
        with pytest.raises(ReducibleDetected):
            make_context([1, -2], 0)

    @pytest.mark.parametrize("fc", [[4, 0, -4, 0], [1, 0, 2, 0], [4, 0, 0, -4, 0, 0]],
                             ids=["(x2-2)^2", "(x2+1)^2", "(x3-2)^2"])
    def test_repeated_factor_without_rational_root_rejected(self, fc):
        with pytest.raises(ReducibleDetected, match="repeated factor"):
            make_context(fc, 0)

    def test_rational_root_rejected_nonzero(self):
        # X^2 - 3X + 2 = (X-1)(X-2)
        with pytest.raises(ReducibleDetected):
            make_context([2, -3], 0)

    def test_no_good_prime_in_small_range(self):
        # x^2 + bx + 1 = (x + 1)^2 mod every prime in [101, 399], yet
        # irreducible over Q: make_context must not look for good primes
        b = 2 + math.prod(primes_in(101, 399))
        got = []
        worker = threading.Thread(target=lambda: got.append(make_context([1, b], 0)),
                                  daemon=True)
        worker.start()
        worker.join(timeout=20)
        assert got and got[0].f_coeffs == (1, b, 1)

    @staticmethod
    def timed_make_context(fc, k, seconds):
        """make_context(fc, k) in a worker thread: (result or exception, returned in time)."""
        got = []

        def work():
            try:
                got.append(make_context(fc, k))
            except Exception as exc:  # noqa: BLE001 - handed back to the test
                got.append(exc)
        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        worker.join(timeout=seconds)
        return (got[0] if got else None), bool(got)

    def test_large_constant_term_is_factored_not_trial_divided(self):
        # the rational root candidates come from factorize(f(0)): x^3 - 10^20
        # (sqrt |f(0)| = 10^10) and x^3 + x + q, q the next prime above 10^18,
        # return at once
        q = next(c for c in itertools.count(10**18 + 1) if is_prime(c))
        for fc in ([-10**20, 0, 0], [q, 1, 0]):
            ctx, in_time = self.timed_make_context(fc, 1, 2.0)
            assert in_time and ctx.f_coeffs == (*fc, 1), fc

    def test_rational_root_named_from_the_factorization(self):
        with pytest.raises(ReducibleDetected, match="rational root 10000$"):
            make_context([-10**12, 0, 0], 1)

    def test_unsplittable_constant_term_is_a_budget(self):
        # two prime factors above factorize's trial limit, their product
        # above its 2^64 size limit: FactorizationBudget (exit 3), not hours
        # of trial division
        p1, p2 = (next(c for c in itertools.count(lo) if is_prime(c)) for lo in (2**40, 2**41))
        got, in_time = self.timed_make_context([-p1 * p2, 0, 0], 1, 20.0)
        assert in_time and isinstance(got, FactorizationBudget)

    def test_degree_guards(self):
        with pytest.raises(DegenerateDegree):
            make_context([5], 0)
        with pytest.raises(DegenerateDegree):
            make_context([-2, 0, 0], 3)

    @pytest.mark.parametrize("n, theta", [(4, 4), (4, -4), (6, 8), (6, -1), (4, 9)],
                             ids=["x4-4", "x4+4", "x6-8", "x6+1", "x4-9"])
    def test_reducible_pure_rejected(self, n, theta):
        # Capelli: theta a q-th power for a prime q | n, or 4 | n, theta = -4c^4
        with pytest.raises(ReducibleDetected, match="factors"):
            make_context([-theta] + [0] * (n - 1), 1)

    @pytest.mark.parametrize("n, theta", [(2, -1), (4, -1), (8, -1), (3, 2), (6, -3)],
                             ids=["x2+1", "x4+1", "x8+1", "x3-2", "x6+3"])
    def test_irreducible_pure_accepted(self, n, theta):
        assert make_context([-theta] + [0] * (n - 1), 1).pure_theta == theta

    def test_pure_irreducibility_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        for n in range(2, 10):
            for theta in range(-100, 101):
                if theta == 0:
                    continue
                try:
                    make_context([-theta] + [0] * (n - 1), 1)
                    accepted = True
                except ReducibleDetected:
                    accepted = False
                assert accepted == sympy.Poly(x**n - theta, x).is_irreducible, (n, theta)

    def test_integer_root_is_exact(self):
        for q in range(2, 12):
            for a in [*range(300), 10**40, 3**200 - 1, 3**200, 2**521]:
                r = _iroot(a, q)
                assert r**q <= a < (r + 1) ** q, (a, q)

    def test_json_roundtrip(self):
        ctx = make_context([-2, 0, 0], 1)
        assert FieldSpec.from_json_dict(ctx.to_json_dict()) == ctx


class TestDiamond:
    def test_identity(self):
        ctx = ctx_of([-2, 0, 0], 1)
        assert diamond((1, 0, 0), (5, -3, 7), ctx) == (5, -3, 7)

    def test_omega_squared(self):
        ctx = ctx_of([-2, 0, 0], 1)
        assert diamond((0, 1, 0), (0, 1, 0), ctx) == (0, 0, 1)

    def test_matches_poly_oracle(self):
        rng = random.Random(11)
        ctx = ctx_of([-1, -1, 0, 0, 0], 1)
        f = list(ctx.f_coeffs)
        for _ in range(300):
            a = [rng.randint(-50, 50) for _ in range(5)]
            b = [rng.randint(-50, 50) for _ in range(5)]
            assert diamond(a, b, ctx) == poly_mulmod_oracle(a, b, f)

    def test_algebra_laws(self):
        rng = random.Random(5)
        for fc, k in FIELDS:
            ctx = ctx_of(fc, k)
            one = (1,) + (0,) * (ctx.n - 1)
            for _ in range(50):
                a, b, c = ([rng.randint(-20, 20) for _ in range(ctx.n)]
                           for _ in range(3))
                ab = diamond(a, b, ctx)
                assert ab == diamond(b, a, ctx)
                assert diamond(ab, c, ctx) == diamond(a, diamond(b, c, ctx), ctx)
                assert diamond(one, a, ctx) == tuple(a)
                # bilinearity in the first slot
                s = [x + y for x, y in zip(a, c)]
                lhs = diamond(s, b, ctx)
                rhs = tuple(x + y for x, y in zip(ab, diamond(c, b, ctx)))
                assert lhs == rhs


class TestMulMatrixAndNorm:
    def test_identity_matrix(self):
        ctx = ctx_of([-2, 0, 0, 0], 1)
        M = mul_matrix((1, 0, 0, 0), ctx)
        assert M == [[1 if i == j else 0 for j in range(4)] for i in range(4)]

    def test_omega_matrix_by_hand(self):
        # f = X^3 - 2: omega * (x1 + x2 w + x3 w^2) = 2 x3 + x1 w + x2 w^2
        ctx = ctx_of([-2, 0, 0], 1)
        M = mul_matrix((0, 1, 0), ctx)
        assert M == [[0, 0, 2], [1, 0, 0], [0, 1, 0]]

    def test_det_is_norm_resultant(self):
        rng = random.Random(23)
        for fc, k in FIELDS:
            ctx = ctx_of(fc, k)
            for _ in range(100):
                v = [rng.randint(-9, 9) for _ in range(ctx.n)]
                assert norm(v, ctx) == sylvester_norm_oracle(v, ctx)

    def test_norm_one(self):
        for fc, k in FIELDS:
            ctx = ctx_of(fc, k)
            assert norm((1,) + (0,) * (ctx.n - 1), ctx) == 1

    def test_norm_examples(self):
        ctx = ctx_of([-2, 0, 0], 1)
        assert norm((1, 1, 0), ctx) == 3  # x1^3 + 2 x2^3 at (1, 1)
        ctx4 = ctx_of([-2, 0, 0, 0], 1)
        assert norm((0, 1, 0, 0), ctx4) == -2  # N(omega) = (-1)^n f(0)

    def test_norm_multiplicative_and_scaling(self):
        rng = random.Random(37)
        for fc, k in FIELDS[:3]:
            ctx = ctx_of(fc, k)
            for _ in range(40):
                a = [rng.randint(-9, 9) for _ in range(ctx.n)]
                b = [rng.randint(-9, 9) for _ in range(ctx.n)]
                assert norm(diamond(a, b, ctx), ctx) == norm(a, ctx) * norm(b, ctx)
                c = rng.randint(1, 5)
                assert norm([c * t for t in a], ctx) == c**ctx.n * norm(a, ctx)


class TestNormForm:
    def test_cube2(self):
        ctx = ctx_of([-2, 0, 0], 1)
        assert norm_form((1, 1), ctx) == 3
        for x1 in range(-4, 5):
            for x2 in range(-4, 5):
                assert norm_form((x1, x2), ctx) == x1**3 + 2 * x2**3

    def test_unit_vector(self):
        for fc, k in FIELDS:
            ctx = ctx_of(fc, k)
            assert norm_form((1,) + (0,) * (ctx.m - 1), ctx) == 1

    def test_matches_full_norm_padded(self):
        rng = random.Random(99)
        ctx = ctx_of([-2, 0, 0, 0], 1)
        for _ in range(1000):
            x = [rng.randint(-30, 30) for _ in range(3)]
            assert norm_form(x, ctx) == norm(x + [0], ctx)

    def test_polynomial_interpolation(self):
        ctx = ctx_of([-2, 0, 0], 1)
        assert norm_form_polynomial(ctx) == {(3, 0): 1, (0, 3): 2}
        assert norm_form_polynomial(ctx_of([-2, 0, 0, 0], 3)) == {(4,): 1}  # m = 1


def dense_solve_oracle(ctx: FieldSpec) -> dict:
    """The norm form by a dense Fraction solve at seeded random points.

    An interpolation independent of the Newton differences, feasible for
    n <= 6 and m <= 4; it inserts the nonzero coefficients in
    _homogeneous_exponents order, the order log_norm_integral sums in.
    """
    exps = _homogeneous_exponents(ctx.n, ctx.m)
    rng = random.Random(17)
    for _attempt in range(10):
        pts = []
        while len(pts) < len(exps):
            pt = tuple(rng.randint(-ctx.n - 4, ctx.n + 4) for _ in range(ctx.m))
            if pt not in pts:
                pts.append(pt)
        rows = [[Fraction(math.prod(x**e for x, e in zip(pt, ex))) for ex in exps]
                for pt in pts]
        sol = solve_rational(rows, [Fraction(norm_form(pt, ctx)) for pt in pts])
        if sol is not None:
            assert all(c.denominator == 1 for c in sol)
            return {ex: int(c) for ex, c in zip(exps, sol) if c}
    raise AssertionError("singular sample points ten times")


def poly_value(poly, pt) -> int:
    return sum(c * math.prod(x**e for x, e in zip(pt, ex)) for ex, c in poly.items())


@st.composite
def norm_form_cases(draw):
    """A field with n <= 8 and m = n - k in [2, 6], and a few points."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(2, min(n, 6)))
    f = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    try:
        ctx = make_context(f, n - m)
    except ValidationError:
        assume(False)
    pts = draw(st.lists(st.tuples(*[st.integers(-12, 12)] * m), min_size=1, max_size=6))
    return ctx, pts


class TestNormFormPolynomial:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(norm_form_cases())
    @example((make_context([-2, 0, 0, 0, 0, 0], 1), [(3, -1, 4, -1, 5)]))
    @example((make_context([-2, 0, 0, 0, 0, 0, 0], 2), [(2, -7, 1, 8, -2)]))
    @example((make_context([3, -3, 0, 0, 0, 0, 0, 0], 2), [(1, -4, 1, 4, -2, 1)]))
    @example((make_context([-1, 1, 0, 2, 0, 0, 0, -1], 2), [(-12, 12, 5, 0, 7, -3)]))
    def test_matches_norm_form(self, case):
        ctx, pts = case
        poly = norm_form_polynomial(ctx)
        exps = _homogeneous_exponents(ctx.n, ctx.m)
        assert list(poly) == [ex for ex in exps if ex in poly]
        assert 0 not in poly.values()
        for pt in pts:
            assert poly_value(poly, pt) == norm_form(pt, ctx)

    @pytest.mark.parametrize("fc, k", [
        ([-2, 0, 0], 1),             # m = 2
        ([-1, -1, 0], 0),            # m = 3
        ([1, 1, 0, 0], 1),           # m = 3
        ([-2, 0, 0, 0], 0),          # m = 4
        ([-1, -1, 0, 0, 0], 1),      # m = 4
        ([3, -3, 0, 0, 0, 0], 3),    # n = 6, m = 3
        ([-2, 0, 0, 0, 0, 0], 2),    # n = 6, m = 4
    ])
    def test_key_order_matches_dense_solve_oracle(self, fc, k):
        ctx = make_context(fc, k)
        assert list(norm_form_polynomial(ctx).items()) == list(
            dense_solve_oracle(ctx).items())

    def test_failed_spot_check_is_an_internal_error(self, monkeypatch):
        # every simplex point is >= 0, and the spot check draws from [-9, 9]
        exact = fields.norm_form
        monkeypatch.setattr(fields, "norm_form",
                            lambda x, ctx: exact(x, ctx) + (min(x) < 0))
        norm_form_polynomial.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="interpolation failed"):
                norm_form_polynomial(ctx_of([-2, 0, 0], 1))
        finally:
            norm_form_polynomial.cache_clear()


# pure and general f, m = n - k from 2 to 4
EVAL_CTXS = [make_context(fc, k) for fc, k in [
    ([-2, 0, 0], 1),          # X^3 - 2, m = 2
    ([-1, -1, 0], 0),         # X^3 - X - 1, m = 3
    ([-2, 0, 0, 0], 1),       # X^4 - 2, m = 3
    ([1, 1, 0, 0], 1),        # X^4 + X + 1, m = 3
    ([-2, 0, 0, 0], 0),       # X^4 - 2, m = 4
    ([-1, -1, 0, 0, 0], 1),   # X^5 - X - 1, m = 4
]]
EVAL_MODULI = [2, 3, 7, 101, 65537, 2**31 - 1]
coords = st.integers(-60, 60)


@st.composite
def open_grids(draw):
    ctx = draw(st.sampled_from(EVAL_CTXS))
    axes = [draw(st.lists(coords, min_size=1, max_size=5)) for _ in range(ctx.m)]
    return ctx, axes


@st.composite
def point_clouds(draw):
    ctx = draw(st.sampled_from(EVAL_CTXS))
    pts = draw(st.lists(st.tuples(*[coords] * ctx.m), min_size=1, max_size=30))
    return ctx, pts


class TestEvalNormPolyGrid:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(open_grids(), st.sampled_from(EVAL_MODULI))
    def test_open_grid_matches_norm_form(self, case, p):
        ctx, axes = case
        grids = np.ix_(*[np.array(a, dtype=np.int64) for a in axes])
        poly = norm_form_polynomial(ctx)
        exact = np.array([norm_form(x, ctx) for x in itertools.product(*axes)],
                         dtype=object).reshape([len(a) for a in axes])
        assert (eval_norm_poly_grid(poly, grids) == exact).all()
        assert (eval_norm_poly_grid(poly, grids, p) == exact % p).all()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(point_clouds(), st.sampled_from(EVAL_MODULI))
    def test_point_cloud_matches_norm_form(self, case, p):
        ctx, pts = case
        cols = [np.array(c, dtype=np.int64) for c in zip(*pts)]
        poly = norm_form_polynomial(ctx)
        exact = [norm_form(x, ctx) for x in pts]
        assert eval_norm_poly_grid(poly, cols).tolist() == exact
        assert eval_norm_poly_grid(poly, cols, p).tolist() == [v % p for v in exact]

    def test_int64_guard_boundary(self):
        # x^6 - 2, k = 4: sum |c| = 3, and 3 X^6 reaches 2^62 between 1074 and 1075
        ctx = make_context([-2, 0, 0, 0, 0, 0], 4)
        poly = norm_form_polynomial(ctx)
        assert sum(abs(c) for c in poly.values()) == 3
        assert 3 * 1074**6 < 2**62 <= 3 * 1075**6
        x1, x2 = np.array([1074, -1074, 3]), np.array([-1074, 1, 1074])
        vals = eval_norm_poly_grid(poly, np.ix_(x1, x2))
        assert vals.tolist() == [[norm_form((a, b), ctx) for b in x2] for a in x1]
        with pytest.raises(BudgetExceeded):
            eval_norm_poly_grid(poly, np.ix_(np.array([1, 1075]), np.array([1, 2])))
        with pytest.raises(BudgetExceeded):  # only the lower end is large
            eval_norm_poly_grid(poly, np.ix_(np.array([1, 2]), np.array([-1075, 9])))
        # an all-zero grid still needs every coefficient inside the guard:
        # x^3 + 10^30 x + 2 has coefficients beyond int64
        big = norm_form_polynomial(make_context([2, 10**30, 0], 1))
        with pytest.raises(BudgetExceeded):
            eval_norm_poly_grid(big, ([0], [0]))

    def test_modulus_range(self):
        ctx = make_context([-2, 0, 0], 1)
        poly = norm_form_polynomial(ctx)
        big = np.array([2**40, -(2**40)], dtype=np.int64)
        p = 2**31 - 1
        assert eval_norm_poly_grid(poly, [big, big[::-1]], p).tolist() == [
            norm_form((2**40, -(2**40)), ctx) % p,
            norm_form((-(2**40), 2**40), ctx) % p]
        for bad in (2**31 + 11, 1, 0, -7):
            with pytest.raises(ValueError):
                eval_norm_poly_grid(poly, [big, big], bad)

    def test_polynomial_is_cached_and_read_only(self):
        ctx = make_context([-2, 0, 0, 0], 1)
        again = make_context([-2, 0, 0, 0], 1)
        assert norm_form_polynomial(ctx) is norm_form_polynomial(again)
        with pytest.raises(TypeError):
            norm_form_polynomial(ctx)[(4, 0, 0)] = 0


class TestConstraintRows:
    def test_k1_pure_unit(self):
        ctx = ctx_of([-2, 0, 0, 0], 1)
        rows = constraint_rows((1, 0, 0, 0), ctx)
        assert rows == [[0, 0, 0, 1]]  # rev(e1) = e_n, T^0

    def test_zero_vector_rejected(self):
        ctx = ctx_of([-2, 0, 0], 1)
        with pytest.raises(ZeroVector):
            constraint_rows((0, 0, 0), ctx)

    def test_rows_recover_trailing_coords(self):
        rng = random.Random(4)
        for fc, k in FIELDS:
            ctx = ctx_of(fc, k)
            for _ in range(30):
                v = [rng.randint(-9, 9) for _ in range(ctx.n)]
                if all(t == 0 for t in v):
                    v[0] = 1
                x = [rng.randint(-9, 9) for _ in range(ctx.n)]
                rows = constraint_rows(v, ctx)
                prod = diamond(x, v, ctx)
                # row i is the functional for coordinate n - i (1-indexed)
                for i, row in enumerate(rows):
                    assert sum(r * t for r, t in zip(row, x)) == prod[ctx.n - 1 - i]

    def test_general_field_matches_mul_matrix(self):
        ctx = ctx_of([1, 1, 0, 0], 1)
        v = (3, -1, 2, 5)
        assert constraint_rows(v, ctx) == [mul_matrix(v, ctx)[3]]

    def test_pure_T_structure(self):
        # row i equals T^i(rev v) with T(v)_j = v_{j+1} (j<n), theta v_1 (j=n)
        rng = random.Random(17)
        for fc, k in [([-2, 0, 0, 0], 1), ([-2, 0, 0, 0, 0, 0, 0], 2)]:
            ctx = ctx_of(fc, k)
            theta = ctx.pure_theta
            for _ in range(25):
                v = [rng.randint(-9, 9) for _ in range(ctx.n)]
                if all(t == 0 for t in v):
                    v[0] = 1
                rows = constraint_rows(v, ctx)
                expect = v[::-1]
                for i in range(ctx.k):
                    assert rows[i] == expect
                    expect = expect[1:] + [theta * expect[0]]
