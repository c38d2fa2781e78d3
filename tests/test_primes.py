"""Primality and factorization plumbing."""

import importlib
import math
import pkgutil
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normform
from normform import primes
from normform.errors import FactorizationBudget
from normform.primes import (
    _mr_witness,
    _powmod_batch,
    factorize,
    is_prime,
    is_prime_batch,
    is_prime_certified,
    prime_mask,
    primes_in,
    sieve_primes,
    tau,
    window_factorizations,
)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_small_range_against_trial_division():
    for n in range(-3, 2000):
        assert is_prime(n) == trial_division_is_prime(n)


def test_random_64bit_against_trial_division_products():
    rng = random.Random(1)
    for _ in range(50):
        p = int(sieve_primes(10**5)[rng.randrange(1000, 9000)])
        q = int(sieve_primes(10**5)[rng.randrange(1000, 9000)])
        assert not is_prime(p * q)
        assert is_prime(p) and is_prime(q)


def test_certified_flag_below_bound():
    ok, cert = is_prime_certified(2**61 - 1)
    assert ok and cert


def _witnessed(n: int, bases) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    return any(_mr_witness(n, a, d >> s, s) for a in bases)


def test_jaeschke_regime_boundary():
    # strong pseudoprime to 2, 3, 5, 7 inside the {2, 7, 61} regime
    assert is_prime_certified(3215031751) == (False, True)
    # the smallest strong pseudoprime to 2, 7 and 61 is the regime's bound,
    # so it must be sent on to the next regime
    assert not _witnessed(4759123141, (2, 7, 61))
    assert is_prime_certified(4759123141) == (False, True)
    assert is_prime_certified(4759123129) == (True, True)
    assert is_prime_certified(4759123151) == (True, True)


def test_sinclair_regime_boundary():
    assert is_prime_certified(3825123056546413051) == (False, True)  # spsp to 2..23
    assert is_prime_certified(2**64 - 59) == (True, True)  # largest prime < 2^64
    assert is_prime_certified(2**64 + 13) == (True, True)  # smallest prime > 2^64


def test_sorenson_webster_regime_boundary():
    # psi_12: a strong pseudoprime to the first 12 prime bases, so the
    # 3.3e24 regime needs base 41 as well
    psi12 = 318665857834031151167461
    assert not _witnessed(psi12, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert is_prime_certified(psi12) == (False, True)
    # psi_13 is the bound: past it the probabilistic regime applies
    assert is_prime_certified(3317044064679887385961981) == (False, False)
    assert is_prime_certified(2**89 - 1) == (True, False)


def test_batch_domain_guard():
    assert is_prime_batch(np.array([63, 2**32 - 5, 2**32 - 1])).tolist() == [
        False, True, False]
    assert is_prime_batch(np.zeros((0,), dtype=np.uint64)).shape == (0,)
    for bad in ([61], [64], [2**32 + 15]):
        with pytest.raises(ValueError):
            is_prime_batch(np.array(bad))


def test_batch_on_strong_pseudoprimes():
    spsp = [2047, 3277, 4033, 4681, 8321, 1373653, 25326001, 3215031751]
    assert not is_prime_batch(np.array(spsp)).any()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(31, 2**31 - 1), min_size=1, max_size=64))
def test_batch_agrees_with_scalar(halves):
    n = np.array([2 * h + 1 for h in halves], dtype=np.uint64)  # odd, in (61, 2^32)
    got = is_prime_batch(n).tolist()
    assert got == [is_prime_certified(int(v))[0] for v in n]


# 3*2^30 + 1 (prime, s = 30), 65537 (prime, s = 16), 2^32 - 5 (prime, s = 1)
# and 3215031751, a strong pseudoprime to 2 and 7 that only base 61 rejects
MIXED_S = [3 * 2**30 + 1, 65537, 2**32 - 5, 3215031751]


def test_batch_mixed_s_alone_and_together():
    assert not _witnessed(3215031751, (2, 7)) and _witnessed(3215031751, (61,))
    want = [is_prime_certified(v)[0] for v in MIXED_S]
    assert want == [True, True, True, False]
    assert [is_prime_batch(np.array([v]))[0] for v in MIXED_S] == want
    assert is_prime_batch(np.array(MIXED_S)).tolist() == want


# The largest n whose residue products are exact, per dtype
POWMOD_NMAX = {np.uint64: 2**32 - 1, np.int64: 3_037_000_499}


@pytest.mark.parametrize("dtype", [np.uint64, np.int64], ids=["uint64", "int64"])
def test_powmod_guard_boundary(dtype):
    top = POWMOD_NMAX[dtype]
    n = np.array([top - 2, top - 1, top], dtype=dtype)
    d = np.array([top - 1, 2**40 + 3, 0], dtype=dtype)
    for a in (2, top - 3, np.array([top - 3, top - 2, top - 1], dtype=dtype)):
        got = _powmod_batch(a, d, n).tolist()
        base = np.broadcast_to(a, n.shape).tolist()
        assert got == [pow(b, e, m) for b, e, m in zip(base, d.tolist(), n.tolist())]
    with pytest.raises(ValueError, match="_powmod_batch needs n <="):
        _powmod_batch(2, d, np.array([5, top + 1, 7], dtype=dtype))


@st.composite
def powmod_cases(draw):
    """(dtype, a, d, n): mixed moduli and exponent bit lengths, d = 0 and
    the bases 0, 1, 2 and n - 1 among them."""
    dtype = draw(st.sampled_from([np.uint64, np.int64]))
    top = POWMOD_NMAX[dtype]
    size = draw(st.integers(1, 24))
    moduli = st.one_of(st.integers(2, 200), st.integers(2, top), st.integers(top - 50, top))
    ns = draw(st.lists(moduli, min_size=size, max_size=size))
    exps = st.integers(0, 62).flatmap(lambda b: st.integers(0, 2**b - 1))
    ds = draw(st.lists(exps, min_size=size, max_size=size))
    if draw(st.booleans()):
        lim = min(ns)
        a = draw(st.one_of(st.sampled_from([0, 1, min(2, lim - 1), lim - 1]),
                           st.integers(0, lim - 1)))
    else:
        a = [draw(st.one_of(st.sampled_from([0, 1, n - 1]), st.integers(0, n - 1)))
             for n in ns]
    return dtype, a, ds, ns


@settings(max_examples=200, deadline=None, derandomize=True)
@given(powmod_cases())
def test_powmod_batch_matches_pow(case):
    dtype, a, ds, ns = case
    base = np.array(a, dtype=dtype) if isinstance(a, list) else a
    got = _powmod_batch(base, np.array(ds, dtype=dtype), np.array(ns, dtype=dtype))
    bases = a if isinstance(a, list) else [a] * len(ns)
    assert got.dtype == dtype
    assert got.tolist() == [pow(b, e, m) for b, e, m in zip(bases, ds, ns)]


# primes above the trial-division bound 61 whose squares straddle 2^32
SQUARE_ROOTS = [67, 71, 65519, 65521, 65537, 65539, 3037000493]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(0, 130),
                          st.integers(2**32 - 3000, 2**32 + 3000),
                          st.sampled_from(SQUARE_ROOTS).map(lambda q: q * q),
                          st.sampled_from([2047, 3215031751])),
                max_size=80))
def test_prime_mask_agrees_with_scalar(vals):
    mask, (trial, batch, scalar) = prime_mask(np.array(vals, dtype=np.int64))
    assert mask.tolist() == [is_prime_certified(v)[0] for v in vals]
    assert trial + batch + scalar == sum(v > 61 for v in vals)


TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.one_of(
    st.integers(0, 10**6),
    st.integers(0, 2**62),
    # on and next to the multiples of each trial-division modulus
    st.tuples(st.integers(0, 10**12), st.sampled_from([30030, 7429, 33263, 82861, 53, 59, 61]),
              st.integers(-2, 2)).map(lambda t: max(t[0] * t[1] + t[2], 0)),
    st.tuples(st.sampled_from(TRIAL_PRIMES), st.sampled_from([67, 65537, 4294967311])
              ).map(lambda t: t[0] * t[1])),
    max_size=80))
def test_prime_mask_trial_division_matches_per_prime_loop(vals):
    survivors = np.array([v for v in vals if v > 61], dtype=np.int64)
    for p in TRIAL_PRIMES:
        survivors = survivors[survivors % p != 0]
    low = [v for v in survivors.tolist() if v < 2**32]
    tested = []

    def batch(v):
        tested.extend(v.tolist())
        return is_prime_batch(v)

    with mock.patch.object(primes, "is_prime_batch", batch):
        mask, tally = prime_mask(np.array(vals, dtype=np.int64))
    assert tested == low
    assert tally == (sum(v > 61 for v in vals) - survivors.size, len(low),
                     survivors.size - len(low))
    assert mask.tolist() == [is_prime_certified(v)[0] for v in vals]


def test_mersenne_and_carmichael():
    assert is_prime(2**31 - 1)
    assert not is_prime(561)      # Carmichael
    assert not is_prime(341550071728321)  # strong pseudoprime to few bases


def test_factorize_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 10**12)
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac.items()) == n
        assert all(is_prime(p) for p in fac)


def test_factorize_semiprime_beyond_trial():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q, trial_limit=10**4) == {p: 1, q: 1}


def test_factorization_budget():
    # composite with two ~80-bit prime factors, beyond the size limit
    a = 2**89 - 1  # Mersenne prime
    b = 2**107 - 1  # Mersenne prime
    with pytest.raises(FactorizationBudget):
        factorize(a * b, size_limit=2**64)


def test_tau_and_lpf():
    assert tau(12) == 6
    assert tau(1) == 1


def test_primes_in():
    assert primes_in(10, 30) == [11, 13, 17, 19, 23, 29]


def test_window_factorizations():
    lo, hi = 10**6, 10**6 + 500
    facs = window_factorizations(lo, hi)
    for i, fac in enumerate(facs):
        assert math.prod(p**e for p, e in fac.items()) == lo + i
        assert all(is_prime(p) for p in fac)


def test_window_factorizations_small_window():
    # the window starts at 1: 1 has the empty factorization
    assert window_factorizations(1, 11) == [
        {}, {2: 1}, {3: 1}, {2: 2}, {5: 1}, {2: 1, 3: 1}, {7: 1}, {2: 3},
        {3: 2}, {2: 1, 5: 1}]


@st.composite
def windows(draw):
    """(lo, hi) windows, some ending at a prime square p^2 = isqrt(hi - 1)^2."""
    width = draw(st.integers(0, 300))
    if draw(st.booleans()):
        p = draw(st.sampled_from(primes_in(2, 1200)))
        hi = p * p + 1
        return max(1, hi - width), hi
    lo = draw(st.integers(1, 10**6))
    return lo, lo + width


@settings(max_examples=60, deadline=None, derandomize=True)
@given(windows())
@example((1, 1))  # empty window at the first integer
@example((1, 300))
@example((97, 97))  # empty window
@example((1, 2))  # one integer: 1
@example((10**6, 10**6 + 1))  # one integer
@example((1009**2, 1009**2 + 1))  # one integer: a prime square
@example((994_000, 997**2 + 1))  # hi - 1 = 997^2
def test_window_items_match_factorize(window):
    lo, hi = window
    facs = window_factorizations(lo, hi)
    assert len(facs) == hi - lo
    items = list(facs)
    assert items == [factorize(m) for m in range(lo, hi)]
    assert all(list(fac) == sorted(fac) for fac in items)  # ascending primes
    omega = facs.omega()
    assert omega.dtype == np.int64
    assert omega.tolist() == [sum(fac.values()) for fac in items]
    assert facs == items


# the primes either side of the split between strided and batched sieving
LAST_STRIDED, FIRST_BATCHED = 251, 257


def test_window_split_lies_between_the_fixed_cases():
    assert primes_in(LAST_STRIDED, FIRST_BATCHED) == [LAST_STRIDED, FIRST_BATCHED]
    assert LAST_STRIDED <= primes._STRIDED_MAX < FIRST_BATCHED


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 10**8), st.integers(1, 3000))
@example(1, 3000)  # lo = 1
@example(1, 1)
@example(LAST_STRIDED**2 - 1500, 3000)
@example(FIRST_BATCHED**2 - 1500, 3000)
@example(LAST_STRIDED**3 - 1500, 3000)
@example(FIRST_BATCHED**3 - 1500, 3000)
@example(LAST_STRIDED**2 - 2999, 3000)  # hi - 1 is a prime square ...
@example(FIRST_BATCHED**2 - 2999, 3000)  # ... of the one batched prime
@example(9973**2 - 2999, 3000)
@example(2**20 - 1000, 2000)
@example(3**13 - 1000, 2000)
@example(2**20, 1)  # windows shorter than the gap between odd primes
@example(FIRST_BATCHED**3, 1)
@example(99_999_989, 1)  # a prime
@example(1_000_002, 2)
def test_window_matches_factorize_random_lo(lo, length):
    facs = window_factorizations(lo, lo + length)
    assert [facs.pos.dtype, facs.primes.dtype, facs.exps.dtype] == [np.int64] * 3
    keys = list(zip(facs.pos.tolist(), facs.primes.tolist()))
    assert keys == sorted(set(keys))  # strictly by position, then by prime
    assert list(facs) == [factorize(m) for m in range(lo, lo + length)]


def test_window_and_grid_share_the_exponent_pass(monkeypatch):
    # the Type II window and the divisor grid read every exponent from the
    # one no-division routine, and no module divides a prime out
    from normform import experiments
    from test_experiments import CTX3, sieve_box

    real, calls = primes._exponents, []
    assert experiments._exponents is real

    def spy(v, p, vmax):
        calls.append(vmax)
        return real(v, p, vmax)
    monkeypatch.setattr(primes, "_exponents", spy)
    monkeypatch.setattr(experiments, "_exponents", spy)
    assert window_factorizations(10**6, 10**6 + 300) == [
        factorize(m) for m in range(10**6, 10**6 + 300)]
    assert calls == [10**6 + 299]
    vals, _ = sieve_box(12, CTX3)
    nprimes = experiments._tau_sieve(vals, list(CTX3.f_coeffs), set(), None)[4]
    assert calls[1:] == [int(vals.max())] * nprimes
    modules = [importlib.import_module(f"normform.{m.name}")
               for m in pkgutil.iter_modules(normform.__path__)]
    assert len(modules) > 10 and not any(hasattr(m, "_divide_out") for m in modules)


@pytest.mark.parametrize("p, e", [(2, 61), (2, 62), (3, 39), (5, 27), (7, 22), (11, 18)])
def test_exponents_at_int64_edge(p, e):
    # p^(e+1) is tested only while it is <= vmax, which may be 2^63 - 1
    v = np.array([p**e, (p - 1) * p ** (e - 1), p], dtype=np.int64)
    for vmax in (p**e, min(p ** (e + 1) - 1, 2**63 - 1)):
        got = primes._exponents(v, p, vmax).tolist()
        assert got == [factorize(int(m))[p] for m in v] == [e, e - 1, 1]
    # the guard, not v, ends the count: no power above vmax is formed
    assert primes._exponents(v[:1], p, p ** (e - 1)).tolist() == [e - 1]


def test_exponents_per_value_primes():
    # the window's call: one prime per value, the largest powers below 2^63
    v = np.array([2**62, 3**39, 11**18, 3 * 11**17], dtype=np.int64)
    got = primes._exponents(v, np.array([2, 3, 11, 11]), 2**63 - 1)
    assert got.tolist() == [62, 39, 18, 17]


def test_window_negative_index_and_index_error():
    facs = window_factorizations(10, 20)  # 10, ..., 19
    assert facs[-1] == {19: 1} == facs[9]
    assert facs[-10] == {2: 1, 5: 1} == facs[0]
    assert facs[np.int64(2)] == {2: 2, 3: 1}
    for i in (10, -11, 100):
        with pytest.raises(IndexError):
            facs[i]
    with pytest.raises(IndexError):
        window_factorizations(5, 5)[0]


@pytest.mark.parametrize("lo", [0, -10])
def test_window_factorizations_rejects_zero_and_negatives(lo):
    # 0 = 0 mod p for every p: the window must not contain it
    with pytest.raises(ValueError):
        window_factorizations(lo, 10)
