"""Polynomial splitting mod p: patterns, roots, batch routines, Hensel."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normform import splitting
from normform.primes import is_prime_certified, sieve_primes
from normform.splitting import (
    _batch_modinv,
    batch_degree_patterns,
    batch_root_counts,
    degree_pattern_mod_p,
    hensel_lift_factor,
    lift_root,
    monic_factors_mod_p,
    roots_mod_p,
)

F_CUBE2 = [-2, 0, 0, 1]
F_QUINT = [-1, -1, 0, 0, 0, 1]


def poly_eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


class TestSinglePrime:
    def test_pattern_sums_to_degree(self):
        for f in (F_CUBE2, F_QUINT, [1, 1, 0, 0, 1]):
            for p in (2, 3, 5, 7, 11, 31, 101):
                degs, _ = degree_pattern_mod_p(f, p)
                assert sum(degs) == len(f) - 1

    def test_known_patterns(self):
        assert degree_pattern_mod_p(F_CUBE2, 5) == ([1, 2], True)
        assert degree_pattern_mod_p(F_CUBE2, 31) == ([1, 1, 1], True)
        # bad prime: X^3 - 2 = X^3 mod 2
        degs, sqfree = degree_pattern_mod_p(F_CUBE2, 2)
        assert degs == [1, 1, 1] and not sqfree

    def test_roots_are_roots(self):
        rng = random.Random(1)
        for f in (F_CUBE2, F_QUINT):
            for p in (3, 5, 7, 101, 4099, 10007):
                rs = roots_mod_p(f, p)
                assert all(poly_eval(f, r, p) == 0 for r in rs)
                assert len(set(rs)) == len(rs)
                # spot check some non-roots
                for _ in range(20):
                    x = rng.randrange(p)
                    if x not in rs:
                        assert poly_eval(f, x, p) != 0

    @pytest.mark.parametrize("p", [2, 3, 5, 4093, 4099])
    def test_roots_match_brute_force_scan(self, p):
        for f in (F_CUBE2, F_QUINT, [1, 0, 1], [0, 0, 1], [-2, 0, 0, 0, 1]):
            assert roots_mod_p(f, p) == [x for x in range(p) if poly_eval(f, x, p) == 0]

    def test_factors_multiply_back(self):
        for f in (F_CUBE2, F_QUINT):
            for p in (2, 3, 5, 13, 101):
                facs = monic_factors_mod_p(f, p)
                prod = [1]
                for g, m in facs:
                    for _ in range(m):
                        new = [0] * (len(prod) + len(g) - 1)
                        for i, a in enumerate(prod):
                            for j, b in enumerate(g):
                                new[i + j] = (new[i + j] + a * b) % p
                        prod = new
                assert prod == [c % p for c in f]


class TestBatch:
    def test_root_counts_match_singles(self):
        ps = np.array([p for p in sieve_primes(500).tolist() if p > 3],
                      dtype=np.int64)
        for f in (F_CUBE2, F_QUINT):
            batch = batch_root_counts(f, ps)
            for p, c in zip(ps.tolist(), batch.tolist()):
                assert c == len(roots_mod_p(f, p))

    def test_patterns_match_singles(self):
        ps = np.array([p for p in sieve_primes(300).tolist() if p > 5],
                      dtype=np.int64)
        for f in (F_CUBE2, F_QUINT, [1, 1, 0, 0, 1]):
            n = len(f) - 1
            pats = batch_degree_patterns(f, ps)
            for i, p in enumerate(ps.tolist()):
                degs, sqfree = degree_pattern_mod_p(f, p)
                if not sqfree:
                    continue  # repeated factors count once, checked below
                expect = [degs.count(d) for d in range(1, n + 1)]
                assert pats[i].tolist() == expect

    @pytest.mark.parametrize("f, p, want", [
        ([4, 0, 2, 0, 1], 3, [0, 1, 0, 0]),  # (x^2 + 1)^2
        ([-2, 0, 0, 0, 0, 0, 0, 1], 7, [1, 0, 0, 0, 0, 0, 0]),  # (x - 2)^7
        ([1, 1, 0, 0, 1], 229, [1, 1, 0, 0]),  # a double root and a quadratic
    ])
    def test_patterns_at_bad_primes_count_distinct_factors(self, f, p, want):
        assert batch_degree_patterns(f, [p]).tolist() == [want]
        assert not degree_pattern_mod_p(f, p)[1]

    def test_linear_f_rejected(self):
        ps = np.array([5, 7], dtype=np.int64)
        for batch in (batch_root_counts, batch_degree_patterns):
            with pytest.raises(ValueError, match="deg f must be >= 2"):
                batch([-3, 1], ps)

    def test_large_prime_batch(self):
        ps = np.array([999983, 1000003, 1999993], dtype=np.int64)
        got = batch_root_counts(F_CUBE2, ps)
        for p, c in zip(ps.tolist(), got.tolist()):
            assert c == len(roots_mod_p(F_CUBE2, p))


# small primes beside primes around 2^20: the powering loop runs 21 bits,
# and 3 spends all but two of them on leading zeros
MIXED_PRIMES = [*sieve_primes(47).tolist(), 1048559, 1048571, 1048573, 1048583, 1048589]
SPARSE_POLYS = [[-theta] + [0] * (n - 1) + [1] for n in range(2, 9) for theta in (2, 5)]
SPARSE_POLYS += [[7, 0, 0, -3, 0, 0, 0, 1]]  # x^7 - 3x^3 + 7: zero interior coefficients
DENSE_POLYS = [[3, -1, 4, 1], [2, 7, -1, 8, 2, 1], [-5, 9, 2, -6, 5, 3, -5, 1]]


@pytest.mark.parametrize("f", SPARSE_POLYS + DENSE_POLYS)
def test_batch_powering_matches_scalar(f):
    # both batch routines start from X^p mod (f, p)
    n = len(f) - 1
    counts = batch_root_counts(f, np.array(MIXED_PRIMES, dtype=np.int64))
    assert counts.tolist() == [len(roots_mod_p(f, p)) for p in MIXED_PRIMES]
    good = [p for p in MIXED_PRIMES if degree_pattern_mod_p(f, p)[1]]
    pats = batch_degree_patterns(f, np.array(good, dtype=np.int64))
    for i, p in enumerate(good):
        degs, _ = degree_pattern_mod_p(f, p)
        assert pats[i].tolist() == [degs.count(d) for d in range(1, n + 1)]


# the largest primes with n p^2 < 2^63, and the first prime above them
GUARD_PRIMES = {
    2: ([2147483647, 2147483629, 2147483587], 2147483659),
    4: ([1518500213, 1518500183, 1518500173], 1518500279),
}
GUARD_POLYS = {2: ([1, 0, 1], [-1, -1, 1]), 4: ([-2, 0, 0, 0, 1], [1, 1, 0, 0, 1])}


class TestBatchInt64Guard:
    @pytest.mark.parametrize("n", sorted(GUARD_PRIMES))
    def test_primes_bracket_the_bound(self, n):
        below, above = GUARD_PRIMES[n]
        assert all(n * p * p < 2**63 for p in below) and n * above**2 >= 2**63
        assert all(is_prime_certified(p)[0] for p in [*below, above])
        assert not any(is_prime_certified(q)[0] for q in range(below[0] + 1, above))

    @pytest.mark.parametrize("n", sorted(GUARD_PRIMES))
    def test_exact_below_the_bound(self, n):
        below, _ = GUARD_PRIMES[n]
        ps = np.array(below, dtype=np.int64)
        for f in GUARD_POLYS[n]:
            counts = batch_root_counts(f, ps)
            pats = batch_degree_patterns(f, ps)
            for i, p in enumerate(below):
                degs, sqfree = degree_pattern_mod_p(f, p)
                assert sqfree
                assert counts[i] == len(roots_mod_p(f, p))
                assert pats[i].tolist() == [degs.count(d) for d in range(1, n + 1)]

    @pytest.mark.parametrize("n", sorted(GUARD_PRIMES))
    def test_rejected_above_the_bound(self, n):
        below, above = GUARD_PRIMES[n]
        ps = np.array([*below, above], dtype=np.int64)
        for f in GUARD_POLYS[n]:
            for batch in (batch_root_counts, batch_degree_patterns):
                with pytest.raises(ValueError, match=r"p\^2 < 2\^63"):
                    batch(f, ps)


    def test_modinv_matches_pow(self):
        # the guard primes of every degree, and the small primes
        rng = random.Random(17)
        small = sieve_primes(50).tolist()
        ps = small + [p for below, _ in GUARD_PRIMES.values() for p in below]
        ps = [p for p in ps for _ in range(8)]
        xs = [rng.randrange(1, p) for p in ps]
        inv = _batch_modinv(np.array(xs, dtype=np.int64), np.array(ps, dtype=np.int64))
        assert inv.tolist() == [pow(x, -1, p) for x, p in zip(xs, ps)]
        assert all(x * i % p == 1 for x, i, p in zip(xs, inv.tolist(), ps))


BINOMIAL_THETAS = (1, -1, 2, -2, 3, 4, -4, 8, -27, 64)


def binomial(n, theta):
    """X^n - theta, constant term first."""
    return [-theta] + [0] * (n - 1) + [1]


class TestBinomialRootCounts:
    """batch_root_counts on X^n - theta: the closed-form power-residue count.

    Reducible and bad-prime cases included: the batch function takes any f.
    """

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_prime_below_5000(self, n):
        # oracle: count the x mod p with x^n == theta by scanning all of F_p
        # (test_roots_match_brute_force_scan ties the scan to roots_mod_p)
        ps = sieve_primes(5000)
        got = {t: batch_root_counts(binomial(n, t), ps).tolist() for t in BINOMIAL_THETAS}
        for i, p in enumerate(ps.tolist()):
            x = np.arange(p, dtype=np.int64)
            xn = np.ones(p, dtype=np.int64)
            for _ in range(n):
                xn = xn * x % p
            scan = np.bincount(xn, minlength=p)
            assert [got[t][i] for t in BINOMIAL_THETAS] == [
                scan[t % p] for t in BINOMIAL_THETAS], (n, p)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_roots_mod_p(self, n):
        ps = sieve_primes(128)
        for t in BINOMIAL_THETAS:
            f = binomial(n, t)
            assert batch_root_counts(f, ps).tolist() == [
                len(roots_mod_p(f, p)) for p in ps.tolist()], (n, t)

    @pytest.mark.parametrize("n", sorted(GUARD_PRIMES))
    def test_guard_primes(self, n):
        below, above = GUARD_PRIMES[n]
        ps = np.array(below, dtype=np.int64)
        for t in (-1, 2, -2, 3, 5, -7):
            f = binomial(n, t)
            assert batch_root_counts(f, ps).tolist() == [
                len(roots_mod_p(f, p)) for p in below], (n, t)
            with pytest.raises(ValueError, match=r"p\^2 < 2\^63"):
                batch_root_counts(f, np.array([*below, above], dtype=np.int64))

    def test_general_path_skipped_only_for_binomials(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("X^p powering ran")
        monkeypatch.setattr(splitting, "_batch_x_pow_p", refuse)
        ps = sieve_primes(100)
        for f in ([-2, 0, 0, 0, 1], [1, 0, 1], [-2, 0, 0, 0, 0, 0, 0, 1]):
            batch_root_counts(f, ps)
        with pytest.raises(AssertionError, match="powering ran"):
            batch_root_counts([7, 0, 0, -3, 0, 0, 0, 1], ps)


class TestBinomialScalarBase:
    """_binomial_root_counts passes theta = -c as one scalar base when
    0 < theta < every prime, and an array of residues otherwise."""

    @pytest.mark.parametrize("c", [-2, -3, 5])
    @pytest.mark.parametrize("lo", [2, 3, 5])
    def test_both_bases_match_degree_patterns(self, c, lo, monkeypatch):
        bases = []
        powmod = splitting._powmod_batch

        def spy(a, d, n):
            bases.append(np.ndim(a) == 0)
            return powmod(a, d, n)
        monkeypatch.setattr(splitting, "_powmod_batch", spy)
        ps = sieve_primes(3000)
        ps = ps[ps >= lo]
        for n in range(2, 9):
            f = [c] + [0] * (n - 1) + [1]  # X^n + c
            bases.clear()
            got = batch_root_counts(f, ps)
            assert bases == [0 < -c < lo]
            good = (n * c) % ps != 0
            assert got[good].tolist() == batch_degree_patterns(f, ps[good])[:, 0].tolist()
            assert got[~good].tolist() == [len(roots_mod_p(f, p)) for p in ps[~good].tolist()]

    def test_scalar_base_up_to_2_to_the_32(self):
        # the largest prime below 2^32 takes the scalar base in uint64 (the
        # int64 array path stops at 3,037,000,499); above 2^32 uint64
        # products would wrap, and _powmod_batch refuses
        below, above = 4294967291, 4294967311
        for n in (2, 3, 4, 5):
            g = math.gcd(n, below - 1)
            want = g if pow(2, (below - 1) // g, below) == 1 else 0
            ps = np.array([3, below], dtype=np.int64)
            assert splitting._binomial_root_counts(n, -2, ps).tolist() == [
                len(roots_mod_p([-2] + [0] * (n - 1) + [1], 3)), want]
            with pytest.raises(ValueError, match="_powmod_batch needs"):
                splitting._binomial_root_counts(n, -2, np.array([3, above], dtype=np.int64))


class TestHensel:
    def test_lift_root(self):
        # root 3 of X^3 - 2 mod 5, lifted to mod 5^6
        g = [2, 1]  # X - 3 = X + 2 mod 5
        G = hensel_lift_factor(F_CUBE2, g, 5, 6)
        r = (-G[0]) % 5**6
        assert (r**3 - 2) % 5**6 == 0

    def test_lift_root_rejects_non_simple_roots(self):
        with pytest.raises(ValueError, match="not a root"):
            lift_root(F_CUBE2, 1, 5, 3)
        with pytest.raises(ValueError, match="multiple root"):
            lift_root(F_CUBE2, 0, 2, 3)  # X^3 - 2 = X^3 mod 2

    def test_lift_quadratic_factor(self):
        # the degree-2 cofactor of X^3 - 2 mod 5
        facs = monic_factors_mod_p(F_CUBE2, 5)
        quad = next(g for g, m in facs if len(g) == 3)
        G = hensel_lift_factor(F_CUBE2, quad, 5, 4)
        # check G divides f mod 5^4: remainder of f by monic G vanishes
        q = 5**4
        rem = [c % q for c in F_CUBE2]
        while len(rem) - 1 >= len(G) - 1 and any(rem):
            while rem and rem[-1] % q == 0:
                rem.pop()
            if len(rem) - 1 < len(G) - 1:
                break
            c = rem[-1] % q
            shift = len(rem) - 1 - (len(G) - 1)
            for i, gc in enumerate(G):
                rem[shift + i] = (rem[shift + i] - c * gc) % q
            rem.pop()
        assert all(c % q == 0 for c in rem)


# --- property tests ------------------------------------------------------------

# 2 and 3 stress the small-field branches of the factorization
PROPERTY_PRIMES = [2, 3, 5, 7, 11, 13, 31, 101, 4099, 4111, 10007, 65537]

monic_polys = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.integers(-30, 30), min_size=n, max_size=n).map(
        lambda low: low + [1]))


def is_good(f, p):
    return degree_pattern_mod_p(f, p)[1]


def poly_mul_mod(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def monic_remainder(a, g, q):
    """a mod monic g over Z/q, by schoolbook long division."""
    rem = [c % q for c in a]
    while len(rem) >= len(g):
        c = rem[-1]
        shift = len(rem) - len(g)
        for i, gc in enumerate(g):
            rem[shift + i] = (rem[shift + i] - c * gc) % q
        rem.pop()
    return rem


@settings(max_examples=40, deadline=None, derandomize=True)
@given(monic_polys)
def test_batch_patterns_match_single_prime(f):
    good = [p for p in PROPERTY_PRIMES if is_good(f, p)]
    if not good:
        return
    n = len(f) - 1
    pats = batch_degree_patterns(f, np.array(good, dtype=np.int64))
    for i, p in enumerate(good):
        degs, _ = degree_pattern_mod_p(f, p)
        assert pats[i].tolist() == [degs.count(d) for d in range(1, n + 1)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(monic_polys)
def test_batch_root_counts_match_roots(f):
    good = [p for p in PROPERTY_PRIMES if is_good(f, p)]
    if not good:
        return
    counts = batch_root_counts(f, np.array(good, dtype=np.int64))
    assert counts.tolist() == [len(roots_mod_p(f, p)) for p in good]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(monic_polys, st.sampled_from(PROPERTY_PRIMES))
def test_factors_with_multiplicity_multiply_back(f, p):
    prod = [1]
    for g, mult in monic_factors_mod_p(f, p):
        assert g[-1] == 1
        for _ in range(mult):
            prod = poly_mul_mod(prod, g, p)
    assert prod == [c % p for c in f]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(monic_polys, st.sampled_from(PROPERTY_PRIMES), st.integers(1, 4))
def test_hensel_lift_divides_f(f, p, prec):
    if not is_good(f, p):
        return
    q = p**prec
    for g, _ in monic_factors_mod_p(f, p):
        G = hensel_lift_factor(f, g, p, prec)
        assert len(G) == len(g) and G[-1] == 1
        assert [c % p for c in G] == g
        assert not any(monic_remainder(f, G, q))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(monic_polys, st.sampled_from(PROPERTY_PRIMES), st.integers(1, 6))
def test_lift_root_is_the_root_above_r(f, p, prec):
    q = p**prec
    df = [i * c for i, c in enumerate(f)][1:]
    for r in roots_mod_p(f, p):
        if poly_eval(df, r, p) == 0:
            continue  # not a simple root
        lifted = lift_root(f, r, p, prec)
        assert 0 <= lifted < q and lifted % p == r
        assert poly_eval(f, lifted, q) == 0
        if is_good(f, p):
            # the Hensel lift of the linear factor X - r is X - lifted
            assert hensel_lift_factor(f, [(-r) % p, 1], p, prec) == [(-lifted) % q, 1]
