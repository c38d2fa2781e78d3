"""Primality testing, sieving and integer factorization at desk scale."""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Sequence
from functools import cached_property, lru_cache

import numpy as np

from .errors import FactorizationBudget

# Deterministic Miller-Rabin regimes as (bound, bases): the bases decide
# primality for every n below the bound.  Jaeschke (1993) for {2, 7, 61};
# Sinclair (2011) for the 7-base set, where a base that is 0 mod n is
# skipped; Sorenson-Webster (2015) for the first 13 primes, whose first 12
# alone are fooled by 318665857834031151167461.  Above the last bound a
# seeded probabilistic test runs.
_MR_REGIMES = (
    (4_759_123_141, (2, 7, 61)),
    (2**64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (3_317_044_064_679_887_385_961_981,
     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
# The probabilistic regime: random bases drawn from Random(_MR_SEED ^ low
# 32 bits of n), so every verdict is reproducible.
_MR_ROUNDS = 64
_MR_SEED = 0

# Domain of is_prime_batch: above its largest base, and small enough that
# a product of two residues is exact in uint64.
BATCH_LO = max(_MR_REGIMES[0][1])
BATCH_HI = 2**32

# The primes <= BATCH_LO: trial division by them leaves odd n > BATCH_LO.
# prime_mask takes one pass per group, a lookup of v mod the group's product.
_TRIAL_GROUPS = ((2, 3, 5, 7, 11, 13), (17, 19, 23), (29, 31, 37), (41, 43, 47),
                 (53,), (59,), (61,))
_SMALL_PRIMES = sum(_TRIAL_GROUPS, ())
_SMALL_IS_PRIME = np.zeros(BATCH_LO + 1, dtype=bool)
_SMALL_IS_PRIME[list(_SMALL_PRIMES)] = True


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses the compositeness of n (d*2^s == n-1, d odd)."""
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: deterministic below 3.3e24, else probabilistic.

    Above the deterministic bound a seeded Miller-Rabin with _MR_ROUNDS
    random bases is used; see is_prime_certified when the caller needs to
    record which regime applied.
    """
    return is_prime_certified(n)[0]


def is_prime_certified(n: int) -> tuple[bool, bool]:
    """Return (is_prime, certified) where certified means non-probabilistic.

    The witness bases are chosen by the size of n from _MR_REGIMES; past
    the last bound the seeded probabilistic regime applies and certified
    is False whatever the verdict.
    """
    if n < 2:
        return False, True
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p, True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for bound, bases in _MR_REGIMES:
        if n < bound:
            return not any(_mr_witness(n, a, d, s) for a in bases), True
    rng = random.Random(_MR_SEED ^ (n & 0xFFFFFFFF))
    for _ in range(_MR_ROUNDS):
        if _mr_witness(n, rng.randrange(2, n - 1), d, s):
            return False, False
    return True, False


# Largest n for which _powmod_batch's products of two residues are exact:
# (n-1)^2 < 2^64 for n < 2^32 in uint64, n^2 < 2^63 up to isqrt(2^63) in int64.
_POWMOD_NMAX = {np.dtype(np.uint64): 2**32 - 1, np.dtype(np.int64): 3_037_000_499}


def _powmod_batch(a, d: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a^d mod n elementwise, for d >= 0 and 0 <= a < n, n a uint64 or int64 array.

    a is a scalar or an array shaped like n; d is cast to n's dtype.  A
    left-to-right ladder over the bits of d.max(): each step squares and
    reduces, then multiplies by a^bit = 1 + (a - 1)*bit and reduces, an
    arithmetic select with no masked copy (in uint64, a - 1 wraps for a = 0
    and the product wraps back).  For the scalar base 2 in uint64 the
    multiply is x << bit, reduced by min(x, x - n), as x - n wraps above x
    unless x >= n: no division.  The ladder starts from a^(top w bits): a
    scalar a takes the largest w <= 6 with a^(2^w - 1) < 2^63, the exact
    integer powers, and one reduction; an array a takes its top bit.
    Raises ValueError unless every product of two residues is exact, that
    is n.max() <= _POWMOD_NMAX of the dtype (2^32 - 1 in uint64,
    3,037,000,499 in int64).
    """
    nmax = _POWMOD_NMAX[n.dtype]
    if n.size and int(n.max()) > nmax:
        raise ValueError(f"_powmod_batch needs n <= {nmax} in {n.dtype}, got {int(n.max())}")
    d = d.astype(n.dtype, copy=False)
    bits = int(d.max(initial=0)).bit_length()
    one = n.dtype.type(1)
    am1 = np.asarray(a, dtype=n.dtype) - one
    w = min(bits, 1)
    if np.ndim(a) == 0:
        while w < min(bits, 6) and int(a) ** (2 ** (w + 1) - 1) < 2**63:
            w += 1
        powers = np.array([int(a) ** j for j in range(2**w)], dtype=n.dtype)
        x = powers[d >> n.dtype.type(bits - w)]
    else:
        x = d >> n.dtype.type(bits - w)
        x *= am1
        x += one
    np.remainder(x, n, out=x)
    t = np.empty_like(n)
    shift = n.dtype == np.uint64 and np.ndim(a) == 0 and int(a) == 2
    for i in reversed(range(bits - w)):
        np.multiply(x, x, out=x)
        np.remainder(x, n, out=x)
        np.right_shift(d, n.dtype.type(i), out=t)
        np.bitwise_and(t, one, out=t)
        if shift:
            np.left_shift(x, t, out=x)
            np.subtract(x, n, out=t)
            np.minimum(x, t, out=x)
        else:
            np.multiply(t, am1, out=t)
            np.add(t, one, out=t)
            np.multiply(x, t, out=x)
            np.remainder(x, n, out=x)
    return x


def is_prime_batch(n: np.ndarray) -> np.ndarray:
    """Deterministic Miller-Rabin on a 1-D array of odd BATCH_LO < n < BATCH_HI.

    The bases of the first regime of _MR_REGIMES run in turn, each on the
    entries no earlier base rejected; every residue is below 2^32, so each
    product is exact in uint64.  With n - 1 = d 2^s, x = a^d comes from
    _powmod_batch, and n passes the base if x is 1 or n - 1.  The squaring
    tail runs only over the undecided entries: the r-th squaring, giving
    a^(d 2^r), reaches only entries with s > r, and an entry leaves once
    x == n - 1 (it passes) or x == 1 (a nontrivial square root of 1 came
    before, so n is composite).  Returns a bool array.
    """
    n = np.asarray(n, dtype=np.uint64)
    if n.size and (int(n.min()) <= BATCH_LO or int(n.max()) >= BATCH_HI
                   or not (n & np.uint64(1)).all()):
        raise ValueError(f"is_prime_batch needs odd n in ({BATCH_LO}, {BATCH_HI})")
    nm1 = n - np.uint64(1)
    # n - 1 = d 2^s: its lowest set bit is a power of two, exact in float64
    s = np.log2((nm1 & (~nm1 + np.uint64(1))).astype(np.float64)).astype(np.uint8)
    del nm1
    size = n.size
    pos = np.arange(size)  # the entries no base has rejected yet
    for a in _MR_REGIMES[0][1]:
        # d = (n - 1) >> s is rebuilt for each base, not kept beside the tail
        x = _powmod_batch(a, (n - np.uint64(1)) >> s, n)
        ok = (x == 1) | (x == n - np.uint64(1))
        # the undecided with an r = 1 squaring to go, compacted in place
        # into the first k entries after each squaring
        live = np.flatnonzero(~ok & (s > 1))
        x = x[live]
        tail = [live, x, n[live], s[live]]
        k, r = live.size, 1
        while k:
            live, xl, nl, sl = (t[:k] for t in tail)
            np.multiply(xl, xl, out=xl)
            np.remainder(xl, nl, out=xl)
            xl += np.uint64(1)  # x == n - 1 with no temporary n - 1
            hit = xl == nl
            xl -= np.uint64(1)
            ok[live[hit]] = True
            r += 1
            keep = np.flatnonzero(~hit & (xl != 1) & (sl > r))
            k = keep.size
            for t in tail:
                t[:k] = t[keep]
        keep = np.flatnonzero(ok)
        pos, n, s = pos[keep], n[keep], s[keep]
    prime = np.zeros(size, dtype=bool)
    prime[pos] = True
    return prime


def prime_mask(n: np.ndarray) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Primality of every entry of a 1-D int64 array of values >= 0.

    trial_division, then certify on its survivors.  Returns (bool mask,
    (# removed by trial division, # batch-tested, # scalar-tested)); the
    three counts sum to the number of entries > BATCH_LO.
    """
    mask, idx, v, removed = trial_division(n)
    mask[idx] = certify(v)[0]
    low = int(np.count_nonzero(v < BATCH_HI))
    return mask, (removed, low, v.size - low)


def trial_division(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The first step of prime_mask, on a 1-D int64 array of values >= 0.

    Values <= BATCH_LO are looked up; larger ones are trial-divided by the
    primes <= BATCH_LO.  Returns (mask, idx, v, removed): mask is the
    verdict at every entry except the survivors, where it is False; idx and
    v are the survivors' positions and values, odd and > BATCH_LO, left for
    certify; removed counts the entries > BATCH_LO that a prime divided.
    """
    n = np.asarray(n, dtype=np.int64)
    mask = np.zeros(n.shape, dtype=bool)
    small = n <= BATCH_LO
    mask[small] = _SMALL_IS_PRIME[n[small]]
    idx = np.flatnonzero(~small)
    v = n[idx]
    above = v.size
    for coprime in _coprime_tables():  # compress as we go
        keep = coprime[v % coprime.size]
        idx, v = idx[keep], v[keep]
    return mask, idx, v, above - v.size


# Largest part certify hands to one is_prime_batch call
BATCH_PART = 2**17


def certify(v: np.ndarray, parts: int = 1, run=map) -> tuple[np.ndarray, int]:
    """The second step of prime_mask: primality of the survivors v of
    trial_division, as (bool array, number of batch parts).

    The values below BATCH_HI go to is_prime_batch in max(parts,
    ceil(count / BATCH_PART)) near-equal parts, through run (map, or a
    thread pool's map); the others to is_prime_certified, deterministic for
    every int64.  The parts change only the scheduling, never a verdict.
    """
    low = v < BATCH_HI
    lv = v[low]
    out = np.empty(v.shape, dtype=bool)
    parts = max(parts, -(-lv.size // BATCH_PART))
    out[low] = np.concatenate(list(run(is_prime_batch, np.array_split(lv, parts))))
    out[~low] = [is_prime_certified(h)[0] for h in v[~low].tolist()]
    return out, parts


@lru_cache(maxsize=1)
def _coprime_tables() -> tuple[np.ndarray, ...]:
    """One table per trial-division group, of size M the group's product:
    table[r] is gcd(r, M) == 1.  Built on first use by strided marking."""
    out = []
    for group in _TRIAL_GROUPS:
        out.append(np.ones(math.prod(group), dtype=bool))
        for p in group:
            out[-1][::p] = False
    return tuple(out)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, as an int64 array (simple Eratosthenes)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] (inclusive)."""
    return [int(p) for p in sieve_primes(hi) if p >= lo]


def _brent_rho(n: int, rng: random.Random) -> int:
    """Brent's cycle-finding Pollard rho; returns a nontrivial factor of composite n."""
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int, trial_limit: int = 10**6, size_limit: int = 2**64) -> dict[int, int]:
    """Full factorization of |n| as {prime: exponent}.

    Trial division up to trial_limit, then Brent rho on cofactors; cofactors
    above size_limit raise FactorizationBudget.  factorize(1) == {}.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    # wheel over residues coprime to 30
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d <= trial_limit:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += increments[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    if n > size_limit and not is_prime(n):
        raise FactorizationBudget(f"composite cofactor {n} exceeds {size_limit}")
    rng = random.Random(0xC0FFEE)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        g = _brent_rho(m, rng)
        stack.append(g)
        stack.append(m // g)
    return out


def tau(n: int, **kw) -> int:
    """Number of divisors of |n|."""
    return math.prod(e + 1 for e in factorize(n, **kw).values())


def _progressions(first: np.ndarray, step, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions first[i] + t step[i] < stop, t >= 0, progression by
    progression, and the count of each.  Each first[i] is below step[i]."""
    cnt = (stop - 1 - first) // step + 1
    # hit j is term j - start of its progression, start = hits of those before
    at = np.repeat(first - step * (np.cumsum(cnt) - cnt), cnt)
    return at + np.repeat(np.broadcast_to(step, cnt.shape), cnt) * np.arange(len(at)), cnt


def _exponents(v: np.ndarray, p, vmax: int) -> np.ndarray:
    """The e with p^e exactly dividing each v in [1, vmax] that its p divides,
    from v % p^(e+1) tests made only while p^(e+1) <= vmax: no division, no wrap."""
    p = np.broadcast_to(p, v.shape)
    e, live = np.ones(len(v), dtype=np.int64), np.arange(len(v))
    while live.size:  # p^e divides v; is p^(e+1), if <= vmax, a divisor too?
        live = live[p[live] ** e[live] <= vmax // p[live]]
        live = live[v[live] % p[live] ** (e[live] + 1) == 0]
        e[live] += 1
    return e


class WindowFactors(Sequence):
    """Factorizations of the integers lo, ..., hi - 1 as one flat table.

    Entry j of sieved = (pos, primes, exps) says that primes[j] ** exps[j]
    exactly divides lo + pos[j].  Those arrays are in the order the sieve
    emits them: the primes up to _STRIDED_MAX, each with its multiples in
    ascending position, then the larger sieving primes the same way, then
    the cofactors, each above every sieving prime.  So each integer's
    entries come with ascending primes, and by_position keeps them so.
    omega() was counted by the sieve itself.  The attributes pos, primes
    and exps hold the same entries ordered by position and, within a
    position, by prime; they and the item offsets are built on first use.
    Item i is the {prime: exponent} dict of lo + i, built on access.
    """

    def __init__(self, size: int, pos: np.ndarray, primes: np.ndarray,
                 exps: np.ndarray, omega: np.ndarray):
        self.sieved = (pos, primes, exps)
        self._size = size
        self._omega = omega

    def by_position(self, idx: np.ndarray) -> np.ndarray:
        """The entry indices idx (into sieved) stably sorted by position."""
        # positions below 2^16 sort by radix
        key = self.sieved[0][idx].astype(np.min_scalar_type(max(self._size - 1, 0)))
        return idx[np.argsort(key, kind="stable")]

    @cached_property
    def _ordered(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(pos, primes, exps, starts) by position; starts[i] is item i's first entry."""
        pos, primes, exps = self.sieved
        order = self.by_position(np.arange(len(pos)))
        starts = np.zeros(self._size + 1, dtype=np.int64)
        np.cumsum(np.bincount(pos, minlength=self._size), out=starts[1:])
        return pos[order], primes[order], exps[order], starts

    @property
    def pos(self) -> np.ndarray:
        return self._ordered[0]

    @property
    def primes(self) -> np.ndarray:
        return self._ordered[1]

    @property
    def exps(self) -> np.ndarray:
        return self._ordered[2]

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i: int) -> dict[int, int]:
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("window index out of range")
        _, primes, exps, starts = self._ordered
        a, b = starts[i], starts[i + 1]
        return dict(zip(primes[a:b].tolist(), exps[a:b].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def omega(self) -> np.ndarray:
        """Omega (prime factors with multiplicity) of every integer, int64."""
        return self._omega


_STRIDED_MAX = 256  # a larger prime has few multiples in a 2^16 block: batch them


def window_factorizations(lo: int, hi: int) -> WindowFactors:
    """Factorize every integer in [lo, hi) by sieving with primes <= sqrt(hi).

    No integer is divided by a prime: primes <= _STRIDED_MAX mark their
    powers with strided slices, the larger ones are expanded into (position,
    prime) pairs by _progressions and take their exponents from _exponents'
    m % p^k tests, as the divisor grid's primes do, and m over the prime
    powers found is 1 or its one prime factor above sqrt(hi).

    Omega(m) is counted as the sieve goes: one per prime power marked, the
    exponent of each batched pair, one for a cofactor above 1.

    Returns a WindowFactors table: flat (position, prime, exponent) arrays
    in sieve order, one entry per prime power exactly dividing some m, with
    Omega per position; the position order and the items, item m - lo
    being the {prime: exponent} dict of m, are built only when read.  lo
    must be at least 1: zero has no factorization.
    """
    if lo < 1:
        raise ValueError(f"window_factorizations needs lo >= 1, got {lo}")
    size = max(hi - lo, 0)
    sieve = sieve_primes(math.isqrt(hi - 1))
    prod = np.ones(size, dtype=np.int64)  # the sieved part of each m
    omega = np.zeros(size, dtype=np.int64)
    pos, ps, es = [], [], []
    for p in sieve[sieve <= _STRIDED_MAX].tolist():
        pos.append(np.arange((-lo) % p, size, p))
        e, pk = np.zeros(len(pos[-1]), dtype=np.int64), p
        while (sk := (-lo) % pk) < size:  # every m = 0 mod p^k from sk on
            prod[sk::pk] *= p
            omega[sk::pk] += 1
            e[sk // p::pk // p] += 1  # e[i] belongs to position (-lo) % p + i p
            pk *= p
        ps.append(np.full(len(e), p, dtype=np.int64))
        es.append(e)
    sp = sieve[sieve > _STRIDED_MAX]
    at, cnt = _progressions((-lo) % sp, sp, size)
    p = np.repeat(sp, cnt)
    e = _exponents(lo + at, p, hi - 1)
    np.multiply.at(prod, at, p ** e)
    np.add.at(omega, at, e)
    cof = np.arange(lo, hi, dtype=np.int64) // prod
    # cofactor < sqrt(hi)^2 and unfactored => prime, above every sieving prime
    left = np.flatnonzero(cof > 1)
    omega[left] += 1
    return WindowFactors(size, np.concatenate(pos + [at, left]),
                         np.concatenate(ps + [p, cof[left]]),
                         np.concatenate(es + [e, np.ones(len(left), dtype=np.int64)]),
                         omega)
