"""Factorization data of f mod p: degree patterns, roots, batch splitting.

Single-prime routines use plain polynomial arithmetic over F_p, and the
single-prime queries (roots, degree patterns) are both read off one full
factorization, monic_factors_mod_p.  The batch routines compute X^p mod
(f, p) for large vectors of primes at once with numpy (square-and-shift
with per-prime bit masks) followed by a vectorized gcd, which is what
makes ideal counting to 2e6 feasible; root counts of a binomial X^n - theta
skip both and come from the n-th power residue criterion.
"""

from __future__ import annotations

import random
from itertools import zip_longest

import numpy as np

from .primes import _powmod_batch, is_prime

# --- single-prime polynomial arithmetic over F_p ----------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(poly: list[int], p: int) -> list[int]:
    return _trim([c % p for c in poly])


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _padd(a: list[int], b: list[int], p: int) -> list[int]:
    return _trim([(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _pdivmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over Z/q.

    The leading coefficient of b must be a unit mod q: any nonzero one
    when q is prime, 1 for the monic divisors of the mod-p^k Hensel lift.
    """
    rem = [c % q for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, q)
    quo = [0] * max(0, len(rem) - db)
    while len(rem) > db:
        c = rem.pop() * inv % q  # cancels the top term, or it was zero
        if c:
            shift = len(rem) - db
            quo[shift] = c
            for i in range(db):
                rem[shift + i] = (rem[shift + i] - c * b[i]) % q
    return _trim(quo), _trim(rem)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _pmod(a, p), _pmod(b, p)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _ppowmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _ddf(g: list[int], p: int):
    """Distinct-degree factorization of squarefree monic g mod p.

    Yields (d, g_d) with g_d the product of the degree-d irreducible
    factors, for each d that has any, in increasing d.
    """
    h = [0, 1]  # X
    d = 0
    while len(g) - 1 > 0:
        d += 1
        if 2 * d > len(g) - 1:
            yield len(g) - 1, g
            return
        h = _ppowmod(h, p, g, p)
        g_d = _pgcd(g, _psub(h, [0, 1], p), p)
        if len(g_d) > 1:
            yield d, g_d
            g = _pdivmod(g, g_d, p)[0]
            h = _pdivmod(h, g, p)[1]


def degree_pattern_mod_p(f: list[int], p: int) -> tuple[list[int], bool]:
    """Degrees (with multiplicity) of the irreducible factors of f mod p.

    Returns (sorted degree list, squarefree flag), both read off
    monic_factors_mod_p.  ValueError unless p is prime and f monic.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if len(_pmod(f, p)) != len(f):
        raise ValueError("leading coefficient vanishes mod p; f must be monic")
    facs = monic_factors_mod_p(f, p)
    degs = sorted(len(fac) - 1 for fac, mult in facs for _ in range(mult))
    return degs, all(mult == 1 for _, mult in facs)


def _pth_root(g: list[int], p: int) -> list[int]:
    """For g with only X^(p*i) terms over F_p, return h with h(X)^p = g."""
    return [g[i] for i in range(0, len(g), p)]


def roots_mod_p(f: list[int], p: int) -> list[int]:
    """Distinct roots of monic f mod p, ascending.

    They are read off the linear factors of monic_factors_mod_p.
    """
    return sorted((-g[0]) % p for g, _ in monic_factors_mod_p(f, p) if len(g) == 2)


def _poly_eval_mod(f: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _edf(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Equal-degree splitting: the degree-d monic irreducible factors of g.

    g is monic, squarefree mod p, and all its factors have degree d.
    Random splitting polynomials drawn from rng (the trace map when p = 2).
    """
    deg = len(g) - 1
    if deg == 0:
        return []
    if deg == d:
        return [g]
    while True:
        a = [rng.randrange(p) for _ in range(deg)] + [1]
        if p == 2:
            acc = t = a
            for _ in range(d - 1):
                acc = _pdivmod(_pmul(acc, acc, p), g, p)[1]
                t = _padd(t, acc, p)
        else:
            t = _psub(_ppowmod(a, (p**d - 1) // 2, g, p), [1], p)
        h = _pgcd(g, t, p)
        if 0 < len(h) - 1 < deg:
            return _edf(h, d, p, rng) + _edf(_pdivmod(g, h, p)[0], d, p, rng)


def monic_factors_mod_p(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Full factorization of monic f mod p as [(factor coeffs, multiplicity)].

    Squarefree part via gcd with the derivative, distinct-degree then
    equal-degree splitting (seeded, deterministic), multiplicities by exact
    division.  Desk scale only: small p or small degree.
    """
    rng = random.Random(0x5EED ^ p)
    # collect distinct irreducible factors of f by peeling squarefree parts
    work = _pmod(f, p)
    irreducibles: list[list[int]] = []
    while len(work) - 1 > 0:
        gc = _pgcd(work, [(i * c) % p for i, c in enumerate(work)][1:], p)
        sqfree = _pdivmod(work, gc, p)[0]
        if len(sqfree) - 1 > 0:
            for d, g_d in _ddf(sqfree, p):
                irreducibles += _edf(g_d, d, p, rng)
            work = gc
        else:
            work = _pth_root(work, p)  # work is a p-th power
    # deduplicate and compute multiplicities by exact division
    seen: dict[tuple[int, ...], list[int]] = {}
    for g in irreducibles:
        seen[tuple(g)] = g
    out = []
    for key in sorted(seen):
        g = seen[key]
        mult = 0
        rem = _pmod(f, p)
        while True:
            q, r = _pdivmod(rem, g, p)
            if r:
                break
            mult += 1
            rem = q
        out.append((list(g), mult))
    return out


# --- batched splitting over many primes --------------------------------------


def batch_root_counts(f: list[int], primes: np.ndarray) -> np.ndarray:
    """nu_p = number of distinct roots of f mod p, for an array of primes.

    Requires deg f >= 2 and primes with deg f * p^2 < 2^63 (ValueError
    otherwise).  For a binomial f = X^n - theta the count is closed form,
    by the n-th power residue criterion (Ireland-Rosen, Prop. 7.1.2): with
    g = gcd(n, p - 1) it is g when theta^((p-1)/g) == 1 mod p, else 0, and
    it is 1 (the root 0) when p | theta.  That holds at the bad primes too,
    p | n included, since x -> x^n on the cyclic group F_p^* has image of
    index g.  Any other f goes the general way: X^p mod (f, p) by
    vectorized square-and-shift, then a vectorized gcd of X^p - X with f,
    still correct where f mod p is not squarefree (the root count of the
    gcd), though callers normally exclude bad primes anyway.
    """
    primes = _batch_primes(f, primes)
    if not any(f[1:-1]) and f[-1] == 1:
        return _binomial_root_counts(len(f) - 1, f[0], primes)
    g = _batch_x_pow_p(f, primes).T.copy()  # X^p mod f
    g[:, 1] = (g[:, 1] - 1) % primes  # X^p - X
    fmat = np.tile(np.array(f, dtype=np.int64), (len(primes), 1)) % primes[:, None]
    return _batch_gcd_degree(fmat, g, primes)


def _binomial_root_counts(n: int, c: int, p: np.ndarray) -> np.ndarray:
    """Distinct roots of X^n + c mod each prime p, by the criterion above.

    When 0 < theta = -c < every p, theta is one residue for all p: it goes
    to _powmod_batch as a scalar base over uint64 moduli, which for
    theta = 2 multiplies by shifts.  uint64 takes p < 2^32, which the
    deg f * p^2 < 2^63 guard of batch_root_counts implies.
    """
    g = np.gcd(n, p - 1)
    if 0 < -c < int(p.min()):
        residue = _powmod_batch(-c, (p - 1) // g, p.astype(np.uint64)) == 1
        return np.where(residue, g, 0)
    t = (p - np.int64(c) % p) % p  # theta = -c mod p
    residue = _powmod_batch(t, (p - 1) // g, p) == 1
    return np.where(t == 0, 1, np.where(residue, g, 0))


def _batch_primes(f: list[int], primes) -> np.ndarray:
    """The primes as int64, once f and they suit the batch routines.

    Raises ValueError unless deg f >= 2 (X mod f is stored as a row with a
    coefficient at X^1) and deg f * p^2 < 2^63 for every prime (the int64
    range of _batch_polymulmod and of a product of two residues).
    """
    if len(f) - 1 < 2:
        raise ValueError("deg f must be >= 2")
    primes = np.asarray(primes, dtype=np.int64)
    pmax = int(primes.max())
    if (len(f) - 1) * pmax**2 >= 2**63:
        raise ValueError(f"batch arithmetic mod {pmax} needs deg f * p^2 < 2^63")
    return primes


def _batch_polymulmod(a: np.ndarray, b: np.ndarray, f_low: np.ndarray,
                      nz: list[int], p: np.ndarray) -> np.ndarray:
    """(a*b) mod (f, p) per column; f monic with low coefficients f_low.

    One polynomial per column (coefficient i in row i), so every step
    works on whole contiguous rows.  a, b and f_low (one column per prime)
    hold residues in [0, p); nz lists the rows i with f_i != 0, the only
    ones a reduction step touches.  Passing b = a squares, each cross
    product once.  Only the leading row of each reduction step and the
    result are reduced mod p: each entry is a sum of at most n products
    below p^2 and at most n - 1 subtracted ones, so it stays within
    (-n*p^2, n*p^2), exact in int64 while n*p^2 < 2^63 (checked by
    _batch_x_pow_p).
    """
    n = a.shape[0]
    prod = np.zeros((2 * n - 1, a.shape[1]), dtype=np.int64)
    if b is a:
        for i in range(n):
            prod[2 * i] += a[i] * a[i]
            prod[2 * i + 1 : i + n] += 2 * a[i] * a[i + 1 :]
    else:
        for i in range(n):
            prod[i : i + n] += a[i] * b
    for d in range(2 * n - 2, n - 1, -1):
        top = prod[d] % p
        for i in nz:
            prod[d - n + i] -= top * f_low[i]
    return prod[:n] % p


def _batch_gcd_degree(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Degree of gcd(a, b) mod p per row, for coefficient arrays a, b."""
    N = a.shape[0]
    w = max(a.shape[1], b.shape[1])
    A = np.zeros((N, w), dtype=np.int64)
    B = np.zeros((N, w), dtype=np.int64)
    A[:, : a.shape[1]] = a % p[:, None]
    B[:, : b.shape[1]] = b % p[:, None]
    degA = _batch_degree(A)
    degB = _batch_degree(B)
    out = np.full(N, -2, dtype=np.int64)
    active = np.ones(N, dtype=bool)
    # Euclid: at most 2*w steps since degrees strictly decrease
    for _ in range(2 * w + 2):
        zeroB = degB < 0
        done = active & zeroB
        out[done] = degA[done]
        active &= ~zeroB
        if not active.any():
            break
        # one remainder step on active rows: A <- A mod B
        idx = np.nonzero(active)[0]
        Ai, Bi, pi = A[idx], B[idx], p[idx]
        dA, dB = degA[idx], degB[idx]
        lead = Bi[np.arange(len(idx)), dB]
        inv = _batch_modinv(lead, pi)
        # repeatedly cancel the top coefficient while degA >= degB
        for _ in range(w):
            live = dA >= dB
            if not live.any():
                break
            rows = np.nonzero(live)[0]
            shift = (dA[rows] - dB[rows]).astype(np.int64)
            coef = Ai[rows, dA[rows]] * inv[rows] % pi[rows]
            # subtract coef * X^shift * B
            for j in range(w):
                tgt = shift + j
                ok = tgt < w
                r2 = rows[ok]
                Ai[r2, tgt[ok]] = (Ai[r2, tgt[ok]] - coef[ok] * Bi[r2, j]) % pi[r2]
            dA = _batch_degree(Ai)
        A[idx], B[idx] = Bi, Ai
        degA[idx], degB[idx] = dB, dA
    return out


def _batch_degree(a: np.ndarray) -> np.ndarray:
    nz = a != 0
    w = a.shape[1]
    return np.where(nz.any(axis=1), w - 1 - np.argmax(nz[:, ::-1], axis=1), -1)


def _batch_modinv(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x^(p-2) mod p elementwise (p prime); products below p^2 < 2^63."""
    return _powmod_batch(x % p, p - 2, p)


def batch_degree_patterns(f: list[int], primes: np.ndarray) -> np.ndarray:
    """Factor-degree counts of f mod p for many primes at once.

    Returns an (N, n) int64 array A with A[i, d-1] = number of degree-d
    irreducible factors of f mod primes[i], each distinct factor counted
    once.  Computed from counts[j-1] = deg gcd(X^(p^j) - X, f), the sum of
    the degrees of the distinct factors whose degree divides j, via
    Moebius-style inversion.  X^(p^j) - X is squarefree, so this holds at
    every prime, where f mod p has repeated factors too.  X^(p^j) comes from
    the Frobenius matrix, whose column i is X^(ip) mod (f, p): h -> h^p is
    F_p-linear, so X^(p^(j+1)) is that matrix times X^(p^j).  Requires
    deg f >= 2 and primes with deg f * p^2 < 2^63 (ValueError otherwise).
    """
    primes = _batch_primes(f, primes)
    n = len(f) - 1
    N = len(primes)
    fmat = np.tile(np.array(f, dtype=np.int64), (N, 1)) % primes[:, None]
    f_low, nz = _batch_f_low(f, primes)
    xp = _batch_x_pow_p(f, primes)
    frob = [np.zeros((n, N), dtype=np.int64), xp]
    frob[0][0] = 1
    for _ in range(2, n):
        frob.append(_batch_polymulmod(frob[-1], xp, f_low, nz, primes))
    # counts[:, j-1] = #roots of f in F_{p^j} = deg gcd(X^(p^j) - X, f)
    hj = xp
    counts = np.zeros((N, n), dtype=np.int64)
    for j in range(1, n + 1):
        if j > 1:
            # n products below p^2 per entry: exact while n*p^2 < 2^63
            hj = sum(frob[i] * hj[i] for i in range(n)) % primes
        g = hj.T.copy()
        g[:, 1] = (g[:, 1] - 1) % primes
        counts[:, j - 1] = _batch_gcd_degree(fmat.copy(), g, primes)
    # counts[:, j-1] = sum_{e | j} e * a_e  ->  solve for a_e ascending
    A = np.zeros((N, n), dtype=np.int64)
    for j in range(1, n + 1):
        s = counts[:, j - 1].copy()
        for e in range(1, j):
            if j % e == 0:
                s -= e * A[:, e - 1]
        A[:, j - 1] = s // j
    return A


def _batch_f_low(f: list[int], primes: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The low coefficients of monic f mod each prime, one column per prime,
    and the rows i with f_i != 0."""
    f_low = np.array(f[:-1], dtype=np.int64)[:, None] % primes
    return f_low, [i for i, c in enumerate(f[:-1]) if c]


def _batch_x_pow_p(f: list[int], primes: np.ndarray) -> np.ndarray:
    """X^p mod (f, p) per column, exponent = the column's own prime.

    Left-to-right binary powering: square, then multiply by X where the
    prime has the bit set.  Multiplying by X is a shift plus one
    reduction row; a prime with fewer bits squares 1 until its top bit.
    The primes come from _batch_primes.
    """
    n = len(f) - 1
    p = primes
    pmax = int(p.max())
    # one polynomial per column, see _batch_polymulmod
    f_low, nz = _batch_f_low(f, p)
    result = np.zeros((n, len(p)), dtype=np.int64)
    result[0] = 1
    for bit in range(pmax.bit_length() - 1, -1, -1):
        result = _batch_polymulmod(result, result, f_low, nz, p)
        shifted = np.empty_like(result)
        shifted[0] = 0
        shifted[1:] = result[:-1]
        for i in nz:
            shifted[i] = (shifted[i] - result[-1] * f_low[i]) % p
        result = np.where(((p >> bit) & 1).astype(bool), shifted, result)
    return result


# --- Hensel lifting for prime-ideal valuations --------------------------------


def _bezout(g: list[int], h: list[int], p: int):
    """s, t with s*g + t*h == 1 mod p for coprime g, h."""
    r0, r1 = _pmod(g, p), _pmod(h, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def lift_root(f: list[int], r: int, p: int, prec: int) -> int:
    """Lift a simple root r of f mod p to the root of f mod p^prec above it.

    Newton's iteration r <- r - f(r) f'(r)^-1 with the modulus squaring up
    to p^prec.  The result is the constant term of -hensel_lift_factor(f,
    [-r, 1], p, prec), found without polynomial division.
    """
    df = [i * c for i, c in enumerate(f)][1:]
    if _poly_eval_mod(f, r, p) != 0:
        raise ValueError(f"{r} is not a root of f mod {p}")
    if _poly_eval_mod(df, r, p) == 0:
        raise ValueError(f"{r} is a multiple root of f mod {p}")
    r %= p
    m = p
    target = p**prec
    while m < target:
        m = min(m * m, target)
        r = (r - _poly_eval_mod(f, r, m) * pow(_poly_eval_mod(df, r, m), -1, m)) % m
    return r


def hensel_lift_factor(f: list[int], g: list[int], p: int, prec: int) -> list[int]:
    """Lift a monic irreducible factor g of f mod p to a factor mod p^prec.

    Requires f squarefree mod p (good prime).  Classic quadratic Hensel
    with Bezout tracking; both g and the cofactor h stay monic.
    """
    h = _pdivmod(f, g, p)[0]
    s, t = _bezout(g, h, p)
    m = p
    target = p**prec
    G, H, S, T = g[:], h[:], s[:], t[:]
    while m < target:
        m2 = min(m * m, target)
        e = _psub(f, _pmul(G, H, m2), m2)
        q_, r_ = _pdivmod(_pmul(S, e, m2), H, m2)
        Gp = _padd(G, _padd(_pmul(T, e, m2), _pmul(q_, G, m2), m2), m2)
        Hp = _padd(H, r_, m2)
        b = _psub(_padd(_pmul(S, Gp, m2), _pmul(T, Hp, m2), m2), [1], m2)
        c_, d_ = _pdivmod(_pmul(S, b, m2), Hp, m2)
        Sp = _psub(S, d_, m2)
        Tp = _psub(T, _padd(_pmul(T, b, m2), _pmul(c_, Gp, m2), m2), m2)
        G, H, S, T = Gp, Hp, Sp, Tp
        m = m2
    return G
