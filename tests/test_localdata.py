"""Local densities, rho, ideal enumeration, Weber counting."""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normform import localdata, series
from normform.errors import BadPrime, NotSquarefree
from normform.fields import embed, make_context, norm_form
from normform.localdata import (
    IdealSym,
    _prime_ideal_norm_table,
    bad_primes,
    degree1_prime_ideals,
    discriminant,
    gamma_estimate,
    ideal_count,
    ideal_tau,
    ideal_valuations,
    nu2_from_degrees,
    nu2_polynomial,
    nu_brute,
    nu_fast,
    nu_from_degrees,
    nu_polynomial,
    prime_ideals_above,
    resultant,
    rho,
    rho_brute,
    squarefree_ideal_symbols,
)
from normform.primes import factorize, primes_in, sieve_primes
from normform.series import per_prime_factor_table, singular_series, singular_series_tilde
from normform.splitting import (
    batch_degree_patterns,
    degree_pattern_mod_p,
    hensel_lift_factor,
    monic_factors_mod_p,
)

CTX3 = make_context([-2, 0, 0], 1)       # X^3 - 2, k=1, disc -108
CTX4 = make_context([-2, 0, 0, 0], 1)    # X^4 - 2, k=1
CTXQ = make_context([1, 1, 0, 0], 1)     # X^4 + X + 1, k=1
CTXG = make_context([1, 0], 0)           # X^2 + 1, k=0 (Gaussian)


def nu2_brute(p, ctx):
    """Oracle for nu_2: #{a in [0,p)^n : N(a) = 0 mod p} by exhaustive
    evaluation, no factoring.  That is nu_brute on the full norm form
    (k = 0): N(a) point by point up to 4096 points, on the norm-form
    polynomial over a numpy grid beyond."""
    return nu_brute(p, make_context(list(ctx.f_coeffs[:-1]), 0))


def local_rows(ctx, p_cut):
    """{p: (p, nu, nu2, degs, nu_p)} for p <= p_cut: the rows the Euler
    products and the sseries CSV read, from series._local_factor_data."""
    return {row[0]: row for row in series._local_factor_data(ctx, p_cut)}


def materialize_symbol(factors, ctx):
    """The IdealSym of squarefree_ideal_symbols' (q, p, degree, label) factors."""
    out = []
    for (q, p, d, label) in factors:
        pis = sorted((pi for pi in prime_ideals_above(p, ctx) if pi.degree == d),
                     key=lambda pi: pi.label)
        out.append((pis[label], 1))
    return IdealSym(factors=tuple(out))


class TestLocalData:
    def test_disc_and_bad(self):
        assert discriminant(CTX3) == -108
        assert bad_primes(CTX3) == [2, 3]

    def test_composite_rejected(self):
        # the bad-prime rows factor f mod p in full, for prime p only
        with pytest.raises(ValueError, match="not prime"):
            degree_pattern_mod_p(list(CTX3.f_coeffs), 10)

    def test_nu5_is_5(self):
        _, nu, _, _, nu_p = local_rows(CTX3, 5)[5]
        assert nu == 5 and nu_p == 1 and 5 not in bad_primes(CTX3)
        assert nu_brute(5, CTX3) == 5  # cubing is a bijection mod 5

    def test_nu31_cubic_residue(self):
        _, _, _, degs, nu_p = local_rows(CTX3, 31)[31]
        assert nu_p in (0, 3)
        assert nu_p == 3  # 2 = 4^3 mod 31
        assert sum(degs) == 3

    def test_nu_is_brute_force(self):
        rows = local_rows(CTX3, 60)
        for p in primes_in(5, 60):
            assert rows[p][1] == nu_brute(p, CTX3)

    def test_nu2_formula_vs_brute(self):
        for ctx, ps in ((CTX3, (5, 7, 11)), (CTX4, (3, 5, 7))):
            rows = local_rows(ctx, max(ps))
            for p in ps:
                assert rows[p][2] == nu2_brute(p, ctx)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 6), max_size=5), st.sampled_from((2, 3, 5, 7, 101)),
           st.integers(0, 3))
    def test_nu2_from_degrees_matches_fraction_formula(self, degs, p, extra):
        n = sum(degs) + extra
        frac = Fraction(1)
        for d in degs:
            frac *= 1 - Fraction(1, p**d)
        assert nu2_from_degrees(degs, p, n) == (1 - frac) * p**n

    def test_nu_brute_polynomial_path_at_m5(self, monkeypatch):
        # x^6 - 2, k = 1 (m = 5): 5^5 = 3125 <= 4096 is counted point by
        # point, 7^5 = 16807 on the norm-form polynomial
        ctx = make_context([-2, 0, 0, 0, 0, 0], 1)
        want = {p: sum(norm_form(a, ctx) % p == 0
                       for a in itertools.product(range(p), repeat=5)) for p in (5, 7)}
        assert nu_brute(5, ctx) == want[5] == nu_fast(5, ctx)

        def per_point(*args):
            raise AssertionError("per-point count above 4096 points")
        monkeypatch.setattr(localdata, "norm_form", per_point)
        assert nu_brute(7, ctx) == want[7] == nu_fast(7, ctx)

    def test_bad_prime_brute_forced(self):
        _, nu, nu2, _, _ = local_rows(CTX3, 2)[2]
        assert 2 in bad_primes(CTX3)
        assert nu == nu_brute(2, CTX3) == 2
        assert nu2 == nu2_brute(2, CTX3) == 4


# --- the closed form at bad primes against the brute-force oracles ----------

BAD_PRIME_GRID = 2 * 10**5  # largest p^n counted by the oracles


@st.composite
def irreducible_monic(draw, max_degree=5):
    """Low coefficients of a monic f of degree 3 to max_degree that is
    irreducible mod some prime q < 50, hence irreducible (and squarefree)
    over Q."""
    n = draw(st.integers(3, max_degree))
    low = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    f = low + [1]
    assume(any(degree_pattern_mod_p(f, q) == ([n], True) for q in primes_in(2, 50)))
    return low


def csv_pattern(ctx, p):
    """The sseries CSV's degree_pattern at p <= 100, multiplicities kept."""
    return next(row["degree_pattern"] for row in per_prime_factor_table(ctx, 100)
                if row["p"] == p)


class TestBadPrimeClosedForm:
    """The Euler-product rows read nu and nu_2 off the distinct factor
    degrees of f mod p at bad p too, from the one batched call; the oracles
    count the zeros on the whole grid."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(irreducible_monic())
    def test_matches_brute_oracles(self, low):
        n = len(low)
        full = make_context(low, 0)
        ps = [p for p in bad_primes(full) if p**n <= BAD_PRIME_GRID]
        if not ps:
            return
        for k in range(n):
            ctx = make_context(low, k)
            rows = local_rows(ctx, max(ps))
            for p in ps:
                _, nu, nu2, _, _ = rows[p]
                assert (nu, nu2) == (nu_brute(p, ctx), nu2_brute(p, full)), (low, k, p)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(irreducible_monic(max_degree=7))
    def test_batch_patterns_at_bad_primes(self, low):
        # f mod p has repeated factors here; batch_degree_patterns counts
        # each distinct irreducible factor once
        f = low + [1]
        ps = [p for p in bad_primes(make_context(low, 0)) if p <= 10**6]
        if not ps:
            return
        pats = batch_degree_patterns(f, ps)
        for p, row in zip(ps, pats.tolist()):
            want = [0] * len(low)
            for g, _mult in monic_factors_mod_p(f, p):
                want[len(g) - 2] += 1
            assert row == want, (low, p)

    def test_repeated_quadratic_factor(self):
        # x^4 + 2x^2 + 4 = (x^2 + 1)^2 mod 3
        ctx = make_context([4, 0, 2, 0], 1)
        _, nu, nu2, degs, nu_p = local_rows(ctx, 3)[3]
        assert 3 in bad_primes(ctx) and degs == (2, 2) and nu_p == 0
        assert csv_pattern(ctx, 3) == "2+2"
        assert nu == nu_brute(3, ctx) == 3
        assert nu2 == nu2_brute(3, ctx) == 9

    def test_pure_septic_at_7(self):
        # x^7 - 2 = (x - 2)^7 mod 7, so N(A) = A(2)^7 mod 7: one linear
        # condition on the n - k = 5 or n = 7 coordinates
        ctx = make_context([-2, 0, 0, 0, 0, 0, 0], 2)
        _, nu, nu2, degs, nu_p = local_rows(ctx, 7)[7]
        assert 7 in bad_primes(ctx) and degs == (1,) * 7 and nu_p == 1
        assert csv_pattern(ctx, 7) == "+".join("1" * 7)
        assert nu == nu_brute(7, ctx) == 7**4
        assert nu2 == 7**6

    def test_large_bad_prime(self):
        # disc(x^4 + x + 1) = 229, where f has a double root
        _, nu, nu2, degs, nu_p = local_rows(CTXQ, 229)[229]
        assert 229 in bad_primes(CTXQ) and degs == (1, 1, 2) and nu_p == 1
        assert nu == nu_brute(229, CTXQ) == 52_669
        assert nu2 == 12_061_201


def per_prime_local_factor_data(ctx, p_cut):
    """Oracle for series._local_factor_data: the per-prime loop, nu and nu_2
    from the distinct factor degrees at each prime in turn."""
    f = list(ctx.f_coeffs)
    bad = set(bad_primes(ctx))
    ps = sieve_primes(p_cut)
    out = []
    for p, row in zip(ps.tolist(), batch_degree_patterns(f, ps).tolist()):
        distinct = tuple(d for d, c in enumerate(row, 1) for _ in range(c))
        degs = tuple(degree_pattern_mod_p(f, p)[0]) if p in bad else distinct
        out.append((p, nu_from_degrees(distinct, p, ctx.m),
                    nu2_from_degrees(distinct, p, ctx.n), degs, row[0]))
    return tuple(out)


# (low coefficients, k) of irreducible monic f: every shipped field first,
# then Eisenstein polynomials, x^4 + 1 and x^4 - 10x^2 + 1 (split or
# degree-2 factors mod every p), and polynomials irreducible mod 2 or 3
EULER_FIELDS = [
    ([-2, 0, 0], 1), ([-2, 0, 0, 0, 0, 0, 0], 2), ([1, 0], 0), ([-2, 0, 0, 0], 1),
    ([-2, 0, 0], 0), ([-2, 0, 0], 2), ([-2, 0, 0, 0], 0), ([-2, 0, 0, 0], 2),
    ([3, 3, 0], 1), ([-6, 0, 0, 0], 1), ([5, 0, 5, 0, 0], 1), ([3, -3, 0, 0, 0, 0, 0, 0], 2),
    ([1, 0, 0, 0], 1), ([1, 0, -10, 0], 1), ([1, 1, 0, 0], 1), ([-1, -1, 0], 1),
    ([1, 1, 0], 1), ([-1, -1, 0, 0, 0], 1), ([1, 1], 0), ([-2, 0, 0, 0, 0, 0], 1),
    ([7, 0, 0, 0, 14, 0], 3), ([-3, 0, 0, 0, 0, 0, 0, 0], 3),
]


class TestPerPatternEulerFactors:
    """The Euler-product rows evaluate one nu and nu_2 polynomial per degree
    pattern; the per-prime loop is their oracle, to the last bit of every
    product and CSV row."""

    @pytest.mark.parametrize("low, k", EULER_FIELDS)
    def test_matches_per_prime_loop(self, low, k, monkeypatch):
        ctx = make_context(low, k)
        assert min(bad_primes(ctx)) < 1000  # the bad-prime rows are compared too

        def products(p_cut):
            series._local_factors.cache_clear()
            return ([float.hex(S(ctx, p_cut).value)
                     for S in (singular_series, singular_series_tilde)],
                    per_prime_factor_table(ctx, p_cut))

        for p_cut in (100, 1000, 10_000):
            got = products(p_cut)
            with monkeypatch.context() as m:
                m.setattr(series, "_local_factor_data", per_prime_local_factor_data)
                assert products(p_cut) == got, (low, k, p_cut)
        series._local_factors.cache_clear()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 4), max_size=6), st.integers(0, 4),
           st.sampled_from((2, 3, 101, 10**6 + 3)))
    def test_polynomials_match_per_prime_formulas(self, degs, extra, p):
        n = sum(degs) + extra
        for m in range(1, n + 1):
            assert sum(c * p**e for e, c in nu_polynomial(degs, m)) == \
                nu_from_degrees(degs, p, m)
        assert sum(c * p**e for e, c in nu2_polynomial(degs, n)) == \
            nu2_from_degrees(degs, p, n)


class TestNuFast:
    def test_bad_prime_raises(self):
        with pytest.raises(BadPrime):
            nu_fast(3, CTX3)

    def test_matches_brute_small(self):
        for ctx in (CTX3, CTX4, CTXQ):
            bad = set(bad_primes(ctx))
            for p in primes_in(2, 50):
                if p in bad:
                    continue
                assert nu_fast(p, ctx) == nu_brute(p, ctx), (ctx.f_coeffs, p)

    def test_second_order_shape(self):
        # |nu(p)/p^(n-k) - nu_p/p| <= C/p^2.  The constant is a property of
        # the splitting type (e.g. totally split quartics approach 6), so it
        # is fitted per degree pattern at p <= 50; types first occurring
        # later fall back to the a-priori subset-count bound 2^n.  All
        # observed values must also respect that a-priori bound.
        for ctx in (CTX3, CTX4, CTXQ):
            bad = set(bad_primes(ctx))
            rows = local_rows(ctx, 200)
            fit: dict[tuple, float] = {}
            for p in primes_in(2, 50):
                if p in bad:
                    continue
                _, nu, _, key, nu_p = rows[p]
                val = abs(nu / p**ctx.m - nu_p / p) * p * p
                fit[key] = max(fit.get(key, 0.0), val)
            apriori = float(2**ctx.n)
            for p in primes_in(50, 200):
                if p in bad:
                    continue
                _, nu, _, key, nu_p = rows[p]
                val = abs(nu / p**ctx.m - nu_p / p) * p * p
                cap = fit.get(key, apriori)
                # 10% headroom for the O(1/p) approach to the per-type limit
                assert val <= 1.1 * cap + 1e-9, (ctx.f_coeffs, p, val, cap)
                assert val <= apriori

    def test_inert_prime_counts_only_zero(self):
        # an inert prime (single degree-n factor with n > n-k) forces a = 0
        rows = local_rows(CTX4, 80)
        for p in primes_in(5, 80):
            _, nu, _, degs, _ = rows[p]
            if degs == (4,):
                assert nu == 1
                break
        else:
            pytest.skip("no inert prime below 80")


class TestRho:
    def test_degree_one_is_one_brute(self):
        # rho(p) = 1 via the literal count p^(n-k-1)
        for ctx in (CTX3, CTX4):
            bad = set(bad_primes(ctx))
            checked = 0
            for p in primes_in(2, 40):
                if p in bad:
                    continue
                for pi in degree1_prime_ideals(p, ctx):
                    d = IdealSym(((pi, 1),))
                    assert rho(d, ctx) == 1
                    if p**ctx.m <= 10**5:
                        assert rho_brute(d, ctx) == 1
                        checked += 1
            assert checked > 0

    def test_multiplicative(self):
        pis5 = degree1_prime_ideals(5, CTX3)
        pis11 = degree1_prime_ideals(11, CTX3)
        a = IdealSym(((pis5[0], 1),))
        b = IdealSym(((pis11[0], 1),))
        ab = IdealSym(((pis5[0], 1), (pis11[0], 1)))
        assert rho(ab, CTX3) == rho(a, CTX3) * rho(b, CTX3)

    def test_degree2_brute(self):
        # degree-2 prime with d <= n-k: rho = 1, against the raw count
        pi2 = next(pi for pi in prime_ideals_above(5, CTX3) if pi.degree == 2)
        d = IdealSym(((pi2, 1),))
        assert rho(d, CTX3) == rho_brute(d, CTX3) == 1

    def test_degree2_n7k2_brute(self):
        # pure septics have no degree-2 primes above 3 (factor degrees of
        # X^7 - theta mod 3 are 1 or 6), so this runs on X^7 - X - 1
        ctx7 = make_context([-1, -1, 0, 0, 0, 0, 0], 2)
        p = 3
        assert p not in bad_primes(ctx7)
        pis = [pi for pi in prime_ideals_above(p, ctx7) if pi.degree == 2]
        assert pis, "X^7 - X - 1 splits as 2+5 above 3"
        d = IdealSym(((pis[0], 1),))
        assert rho(d, ctx7) == rho_brute(d, ctx7) == 1

    def test_degree_exceeding_m(self):
        # inert degree-3 prime with n-k = 2: count forces x = 0 mod p,
        # so rho = p^(d - (n-k)) by the literal definition
        for p in primes_in(5, 60):
            if p in (2, 3):
                continue
            pis = [pi for pi in prime_ideals_above(p, CTX3) if pi.degree == 3]
            if pis:
                d = IdealSym(((pis[0], 1),))
                assert rho(d, CTX3) == Fraction(p)
                assert rho_brute(d, CTX3, budget=10**8) == Fraction(p)
                break
        else:
            pytest.skip("no inert prime found")

    def test_not_squarefree_rejected(self):
        pi = degree1_prime_ideals(5, CTX3)[0]
        with pytest.raises(NotSquarefree):
            rho(IdealSym(((pi, 2),)), CTX3)


def full_dfs_ideal_count(Y, ctx):
    """Oracle of ideal_count's leaf collapse: the DFS descends to every leaf."""
    slots = _prime_ideal_norm_table(ctx, Y)

    def count_from(i, cap):
        cnt = 1
        for j in range(i, len(slots)):
            q, c = slots[j][0], slots[j][3]
            if q > cap:
                break
            t, qt = 1, q
            while qt <= cap:
                cnt += math.comb(t + c - 1, c - 1) * count_from(j + 1, cap // qt)
                t, qt = t + 1, qt * q
        return cnt

    return count_from(0, Y)


class TestIdealCount:
    def test_unit_only(self):
        assert ideal_count(1, CTX3) == 1

    def test_gaussian_oracle(self):
        # Z[i]: ideals of norm m with good support <-> sum of chi_4 divisor
        # counts; bad prime 2 excluded on both sides
        def oracle(Y):
            tot = 0
            for m in range(1, Y + 1):
                fac = factorize(m)
                if 2 in fac:
                    continue
                ways = 1
                for p, e in fac.items():
                    if p % 4 == 1:
                        ways *= e + 1
                    elif p % 4 == 3 and e % 2 == 1:
                        ways = 0
                tot += ways
            return tot

        for Y in (10, 50, 200):
            assert ideal_count(Y, CTXG) == oracle(Y)

    @pytest.mark.parametrize("ctx", [CTX3, CTX4, CTXQ])
    def test_leaf_collapse_matches_full_dfs(self, ctx):
        # Y = 25, 121, 169 put cap = q^2, the collapse boundary, where q is a norm
        for Y in (1, 2, 3, 17, 25, 121, 169, 360, 5000, 20000):
            assert ideal_count(Y, ctx) == full_dfs_ideal_count(Y, ctx)

    def test_norm_table_skips_bad_primes(self):
        ps = {p for (_q, p, _d, _c) in _prime_ideal_norm_table(CTX3, 1000)}
        assert not ps & set(bad_primes(CTX3))
        assert {5, 7, 11} <= ps  # x^3 - 2 has a root mod 5 and 11; 7 is inert

    def test_benchmark_reference(self):
        # the ideal_count the x^4 - 2 ideal-density benchmark pins at Y = 1e6
        assert ideal_count(10**6, CTX4) == 299654

    def test_gamma_stability_small(self):
        g1 = gamma_estimate(10**5, CTX3)
        g2 = gamma_estimate(2 * 10**5, CTX3)
        assert abs(g1 - g2) / g1 < 0.05

    def test_recursion_limit_untouched(self):
        # a sentinel limit shows whether ideal_count rewrites it
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 1)
        try:
            ideal_count(10**5, CTX4)
            assert sys.getrecursionlimit() == limit + 1
        finally:
            sys.setrecursionlimit(limit)


class TestSqufreeEnumeration:
    def test_unit_first(self):
        syms = list(squarefree_ideal_symbols(CTX3, 30))
        assert syms[0] == ((), 1, 1, Fraction(1))

    def test_norms_below_limit_and_squarefree_distinct(self):
        for factors, nrm, mu, r in squarefree_ideal_symbols(CTX3, 200):
            assert nrm < 200
            assert len(set(factors)) == len(factors)
            assert mu == (-1) ** len(factors)

    def test_rho_consistent_with_honest_rank(self):
        for factors, nrm, mu, r in squarefree_ideal_symbols(CTX3, 300):
            if not factors:
                continue
            sym = materialize_symbol(factors, CTX3)
            assert rho(sym, CTX3) == r

    def test_counts_match_direct_enumeration(self):
        # against an independent count: squarefree good-support ideals of
        # norm < L built by brute force over prime ideals of norm < L
        L = 120
        prime_norms = []
        for p in primes_in(2, L):
            if p in bad_primes(CTX3):
                continue
            for pi in prime_ideals_above(p, CTX3):
                if pi.norm < L:
                    prime_norms.append(pi.norm)
        direct = set()
        for r in range(0, 4):
            for combo in itertools.combinations(range(len(prime_norms)), r):
                nrm = math.prod(prime_norms[i] for i in combo)
                if nrm < L:
                    direct.add((combo, nrm))
        assert len(list(squarefree_ideal_symbols(CTX3, L))) == len(direct)


class TestIdealTau:
    def test_prime_norm(self):
        assert norm_form((1, 2), CTX3) == 17
        assert ideal_tau((1, 2), CTX3, factorize(17)) == 2

    def test_bad_support_none(self):
        assert norm_form((2, 1), CTX3) == 10
        assert ideal_tau((2, 1), CTX3, factorize(10)) is None

    def test_split_square_norm(self):
        # find x with norm p*q or p^2 at good primes and cross check
        # tau against valuation consistency
        for x1 in range(1, 12):
            for x2 in range(1, 12):
                n = norm_form((x1, x2), CTX3)
                fac = factorize(abs(n))
                if not fac or any(p in (2, 3) for p in fac):
                    continue
                t = ideal_tau((x1, x2), CTX3, fac)
                assert t is not None
                assert t >= math.prod(1 + 1 for _ in fac) // 1 or t >= 2


# --- ideal valuations against the lift-and-resultant oracle --------------------

# degree 3 to 5, n - k = 2: the fields the divisor sum runs on
VALUATION_FIELDS = [
    make_context([-2, 0, 0], 1),        # X^3 - 2
    make_context([-1, -1, 0], 1),       # X^3 - X - 1
    make_context([3, 1, 0], 1),         # X^3 + X + 3
    make_context([-2, 0, 0, 0], 2),     # X^4 - 2
    make_context([-2, 0, 0, 0, 0], 3),  # X^5 - 2
]


def oracle_valuations(x, ctx, fac):
    """Oracle: every v_P(alpha) from v_p(Res(g_lift, A)) = deg(P) v_P, with
    g_lift the Hensel lift of P's factor mod p^(v_p + 1), whatever the degree."""
    A = list(embed(x, ctx))
    out = {}
    for p, vp in fac.items():
        if discriminant(ctx) % p == 0:
            return None
        prec = vp + 1
        q = p**prec
        assigned = 0
        for pi in prime_ideals_above(p, ctx):
            gl = hensel_lift_factor(list(ctx.f_coeffs), list(pi.factor_coeffs), p, prec)
            r = resultant([c % q for c in gl], A) % q
            v = 0
            while v < prec and r % p == 0 and r != 0:
                r //= p
                v += 1
            if r == 0:
                v = prec
            if v % pi.degree:
                return None
            if v:
                out[pi] = v // pi.degree
                assigned += v
        if assigned != vp:
            return None
    return out


def assert_matches_oracle(x, ctx):
    N = norm_form(x, ctx)
    if N == 0:
        return
    fac = factorize(N)
    got = ideal_valuations(x, ctx, fac)
    assert got == oracle_valuations(x, ctx, fac)
    bad = set(bad_primes(ctx))
    assert (got is None) == any(p in bad for p in fac)
    if got is not None:
        for p, vp in fac.items():
            assert sum(pi.degree * v for pi, v in got.items() if pi.p == p) == vp


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(VALUATION_FIELDS), st.integers(-60, 60), st.integers(-60, 60))
def test_ideal_valuations_match_oracle(ctx, x1, x2):
    assert_matches_oracle((x1, x2), ctx)


# n - k = 3: A has degree 2, so it is linear mod p only when p | x3
CTX4_K1 = make_context([-2, 0, 0, 0], 1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 200), st.sampled_from(VALUATION_FIELDS),
       st.integers(-30, 30), st.integers(-30, 30))
def test_ideal_valuations_match_oracle_scaled(g, ctx, x1, x2):
    # p | g divides the content of x, where every prime above p is tested
    assert_matches_oracle((g * x1, g * x2), ctx)


@pytest.mark.parametrize("ctx", VALUATION_FIELDS + [CTX4_K1])
def test_ideal_valuations_content_primes_of_every_splitting_type(ctx):
    # every prime g <= 200 once, so each splitting type of f mod p turns up
    # as a prime dividing the content
    base = (1, 2) if ctx.m == 2 else (1, 0, 3)
    for g in primes_in(2, 200):
        assert_matches_oracle(tuple(g * c for c in base), ctx)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(VALUATION_FIELDS),
       st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_ideal_valuations_match_oracle_large(ctx, x1, x2):
    # norm primes far beyond the coordinates
    assert_matches_oracle((x1, x2), ctx)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-40, 40))
def test_ideal_valuations_match_oracle_cubic_box(g, x1, x2, x3):
    assert_matches_oracle((x1, x2, g * x3), CTX4_K1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(VALUATION_FIELDS + [CTX4_K1]), st.data())
def test_ideal_valuations_wrong_factorization(ctx, data):
    x = tuple(data.draw(st.integers(-50, 50)) for _ in range(ctx.m))
    N = norm_form(x, ctx)
    if N == 0:
        return
    fac = factorize(N)
    good = [p for p in fac if discriminant(ctx) % p]
    if good:
        # a wrong exponent at a good prime (a prime left out of fac is not
        # checked, so the exponent stays positive)
        p = data.draw(st.sampled_from(good))
        delta = data.draw(st.sampled_from([-1, 1] if fac[p] > 1 else [1]))
        wrong = {**fac, p: fac[p] + delta}
        assert ideal_valuations(x, ctx, wrong) is None
        assert oracle_valuations(x, ctx, wrong) is None
    # a good prime that does not divide N
    ell = data.draw(st.sampled_from(
        [q for q in primes_in(2, 400) if N % q and discriminant(ctx) % q]))
    wrong = {**fac, ell: 1}
    assert ideal_valuations(x, ctx, wrong) is None
    assert oracle_valuations(x, ctx, wrong) is None
