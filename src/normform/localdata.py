"""Local data at primes: splitting, the densities nu / nu_2 / rho, and
ideal-symbol enumeration with Weber-style counting.

Ideals of Z[omega] are handled through splitting symbols at good primes
(p not dividing disc f); bad primes are flagged and excluded from ideal
enumeration, and reports carry the exclusion explicitly.  The local
densities need no such exclusion: they follow from the degrees of the
distinct factors of f mod p at every prime, bad or good.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BadPrime, BudgetExceeded, NotSquarefree
from .fields import (
    FieldSpec,
    embed,
    eval_norm_poly_grid,
    norm_form,
    norm_form_polynomial,
)
from .intlinalg import det_bareiss, rank_mod_p
from .primes import factorize, sieve_primes
from .splitting import (
    _pdivmod,
    _poly_eval_mod,
    batch_degree_patterns,
    batch_root_counts,
    hensel_lift_factor,
    lift_root,
    monic_factors_mod_p,
)


def discriminant(ctx: FieldSpec) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic f."""
    return _discriminant_key(ctx.f_coeffs)


@lru_cache(maxsize=None)
def _discriminant_key(f_coeffs: tuple[int, ...]) -> int:
    f = list(f_coeffs)
    n = len(f) - 1
    fp = [i * c for i, c in enumerate(f)][1:]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, fp)


def resultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) via the Sylvester determinant (exact integers)."""
    da = len(a) - 1
    db = len(b) - 1
    while b and b[-1] == 0:
        b = b[:-1]
        db -= 1
    if db < 0:
        return 0
    size = da + db
    rows = []
    for i in range(db):
        rows.append([0] * i + list(reversed(a)) + [0] * (db - 1 - i))
    for i in range(da):
        rows.append([0] * i + list(reversed(b)) + [0] * (da - 1 - i))
    return det_bareiss(rows)


def is_bad_prime(p: int, ctx: FieldSpec) -> bool:
    return discriminant(ctx) % p == 0


def bad_primes(ctx: FieldSpec) -> list[int]:
    return sorted(factorize(discriminant(ctx)))


@dataclass(frozen=True)
class PrimeIdeal:
    """Splitting symbol (p, degree, label) for a prime of Z[omega], good p only.

    For degree 1 the label is the root r of f mod p (the ideal (p, omega-r));
    for higher degree it is the index of the irreducible factor in a fixed
    deterministic ordering.  factor_coeffs is the monic factor of f mod p.
    """

    p: int
    degree: int
    label: int
    factor_coeffs: tuple[int, ...]

    @property
    def norm(self) -> int:
        return self.p**self.degree


@dataclass(frozen=True)
class IdealSym:
    """Product of prime-ideal symbols with exponents; good-prime support."""

    factors: tuple[tuple[PrimeIdeal, int], ...]

    @property
    def norm(self) -> int:
        return math.prod(pi.norm**e for pi, e in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    @property
    def mu(self) -> int:
        if not self.is_squarefree:
            return 0
        return -1 if len(self.factors) % 2 else 1


@lru_cache(maxsize=None)
def _prime_ideals_above_cached(p: int, f_coeffs: tuple[int, ...]) -> tuple[PrimeIdeal, ...]:
    facs = monic_factors_mod_p(list(f_coeffs), p)
    out = []
    idx_by_degree: dict[int, int] = {}
    for fac, mult in sorted(facs, key=lambda t: (len(t[0]), t[0])):
        if mult != 1:
            raise BadPrime(f"f not squarefree mod {p}")
        d = len(fac) - 1
        if d == 1:
            label = (-fac[0]) % p
        else:
            label = idx_by_degree.get(d, 0)
            idx_by_degree[d] = label + 1
        out.append(PrimeIdeal(p=p, degree=d, label=label,
                              factor_coeffs=tuple(fac)))
    return tuple(out)


def prime_ideals_above(p: int, ctx: FieldSpec) -> list[PrimeIdeal]:
    """Splitting symbols above a good prime p; BadPrime if p | disc(f)."""
    if is_bad_prime(p, ctx):
        raise BadPrime(f"{p} divides disc(f); splitting symbols unavailable")
    return list(_prime_ideals_above_cached(p, ctx.f_coeffs))


def degree1_prime_ideals(p: int, ctx: FieldSpec) -> list[PrimeIdeal]:
    return [pi for pi in prime_ideals_above(p, ctx) if pi.degree == 1]


def nu_brute(p: int, ctx: FieldSpec, budget: int = 10**8) -> int:
    """#{a in [1,p]^(n-k) : N_K(a) = 0 mod p} by exhaustive evaluation."""
    m = ctx.m
    if p**m > budget:
        raise BudgetExceeded(f"p^(n-k) = {p**m} exceeds budget")
    if p**m > 4096:
        axes = np.ix_(*[np.arange(p, dtype=np.int64)] * m)
        vals = eval_norm_poly_grid(norm_form_polynomial(ctx), axes, p)
        return int((vals == 0).sum())
    count = 0
    for a in itertools.product(range(p), repeat=m):
        if norm_form(a, ctx) % p == 0:
            count += 1
    return count


def nu_fast(p: int, ctx: FieldSpec) -> int:
    """nu(p) from the splitting type alone, good p only (exact).

    Inclusion-exclusion over nonempty subsets S of the primes above p:
    imposing divisibility by the primes in S cuts the grid (Z/p)^(n-k) by
    p^rank with rank = min(n-k, sum of degrees in S), since the powers
    1, X, ..., X^(n-k-1) stay independent modulo the product of the factors.
    """
    if is_bad_prime(p, ctx):
        raise BadPrime(f"{p} divides disc(f)")
    degs = [pi.degree for pi in prime_ideals_above(p, ctx)]
    return nu_from_degrees(degs, p, ctx.m)


def nu_from_degrees(degs: list[int], p: int, m: int) -> int:
    """nu(p) from the distinct factor degrees of f mod p, by the
    inclusion-exclusion of nu_fast; m = n - k.  The per-prime oracle of
    nu_polynomial."""
    total = 0
    for size in range(1, len(degs) + 1):
        for S in itertools.combinations(degs, size):
            rank = min(m, sum(S))
            total += (-1) ** (size + 1) * p ** (m - rank)
    return total


def nu2_from_degrees(degs: list[int], p: int, n: int) -> int:
    """nu_2(p) = p^n (1 - prod (1 - p^-d)) over the distinct factor degrees d
    of f mod p: p^n less the units of F_p[X]/(f), which CRT counts, in
    integers: p^n - p^(n - sum d) prod (p^d - 1), with sum d <= n.  The
    per-prime oracle of nu2_polynomial."""
    assert sum(degs) <= n
    return p**n - p ** (n - sum(degs)) * math.prod(p**d - 1 for d in degs)


def nu_polynomial(degs: list[int], m: int) -> tuple[tuple[int, int], ...]:
    """nu(p) = sum c p^e over the returned (e, c), at every p where the
    distinct factors of f mod p have the degrees degs; m = n - k.

    nu_from_degrees' inclusion-exclusion, collected by power of p: a
    subset S of the factors adds (-1)^(|S| + 1) p^(m - min(m, sum S)).
    """
    coef: dict[int, int] = {}
    for size in range(1, len(degs) + 1):
        for S in itertools.combinations(degs, size):
            e = m - min(m, sum(S))
            coef[e] = coef.get(e, 0) + (-1) ** (size + 1)
    return tuple(coef.items())


def nu2_polynomial(degs: list[int], n: int) -> tuple[tuple[int, int], ...]:
    """nu_2(p) = sum c p^e over the returned (e, c), at every p where the
    distinct factors of f mod p have the degrees degs: nu2_from_degrees'
    p^n - p^(n - sum d) prod (p^d - 1), multiplied out."""
    assert sum(degs) <= n
    units = {n - sum(degs): 1}
    for d in degs:  # times p^d - 1
        nxt: dict[int, int] = {}
        for e, c in units.items():
            nxt[e + d] = nxt.get(e + d, 0) + c
            nxt[e] = nxt.get(e, 0) - c
        units = nxt
    coef = {n: 1}
    for e, c in units.items():
        coef[e] = coef.get(e, 0) - c
    return tuple(coef.items())


# --- rho ---------------------------------------------------------------------


def _condition_matrix(prime_ideals: list[PrimeIdeal], m: int) -> np.ndarray:
    """Stacked F_p-linear conditions for divisibility by each ideal.

    Row block for (p, g): the reduction map x -> sum x_i X^(i-1) mod (g, p)
    written on the monomial basis of F_p[X]/(g); column i is X^i mod (g, p).
    """
    p = prime_ideals[0].p
    rows = []
    for pi in prime_ideals:
        cols = [_pdivmod([0] * i + [1], list(pi.factor_coeffs), p)[1] for i in range(m)]
        rows += [[col[t] if t < len(col) else 0 for col in cols] for t in range(pi.degree)]
    return np.array(rows, dtype=np.int64)


def rho(d: IdealSym, ctx: FieldSpec) -> Fraction:
    """Density rho(d): divisible points in [1, N(d)]^(n-k) over N(d)^(n-k-1).

    Squarefree good-support ideals only.  Per rational prime p the count is
    p^((d_sum)(n-k)) / p^rank restricted... concretely rho = prod over p of
    p^(d_sum - rank) with rank the honest F_p-rank of the stacked condition
    matrix; multiplicative across distinct p by CRT.
    """
    if not d.is_squarefree:
        raise NotSquarefree("rho is defined on squarefree symbols here")
    groups: dict[int, list[PrimeIdeal]] = {}
    for pi, e in d.factors:
        groups.setdefault(pi.p, []).append(pi)
    out = Fraction(1)
    for p, pis in groups.items():
        if is_bad_prime(p, ctx):
            raise BadPrime(f"{p} divides disc(f)")
        mat = _condition_matrix(pis, ctx.m)
        rank = rank_mod_p(mat, p)
        dsum = sum(pi.degree for pi in pis)
        out *= Fraction(p) ** (dsum - rank)
    return out


def rho_brute(d: IdealSym, ctx: FieldSpec, budget: int = 10**7) -> Fraction:
    """rho by literal counting over [1, N(d)]^(n-k); small symbols only."""
    N = d.norm
    m = ctx.m
    if N**m > budget:
        raise BudgetExceeded(f"N^m = {N**m} exceeds budget")
    groups: dict[int, list[PrimeIdeal]] = {}
    for pi, e in d.factors:
        groups.setdefault(pi.p, []).append(pi)
    mats = {p: _condition_matrix(pis, ctx.m) for p, pis in groups.items()}
    count = 0
    for x in itertools.product(range(1, N + 1), repeat=m):
        ok = True
        for p, mat in mats.items():
            vec = np.array(x, dtype=np.int64) % p
            if ((mat @ vec) % p != 0).any():
                ok = False
                break
        if ok:
            count += 1
    return Fraction(count, N ** (m - 1))


def rho_group_closed(degs: list[int], p: int, m: int) -> Fraction:
    """Closed form p^(sum d - min(m, sum d)) used by the fast enumerators."""
    s = sum(degs)
    return Fraction(p) ** (s - min(m, s))


# --- ideal enumeration --------------------------------------------------------


def _prime_ideal_norm_table(ctx: FieldSpec, limit: int):
    """All (norm, p, degree) prime-ideal slots with norm <= limit, good p.

    Degree-d slots appear with their multiplicity (number of distinct
    primes of that degree above p).  Uses batched splitting for the degree
    counts; bad primes are skipped entirely.
    """
    ps = sieve_primes(limit)
    ps = ps[~np.isin(ps, bad_primes(ctx))]
    if len(ps) == 0:
        return []
    f = list(ctx.f_coeffs)
    n = ctx.n
    # full patterns only needed for p <= sqrt(limit); above that only
    # degree-1 primes have norm <= limit
    cross = math.isqrt(limit)
    small = ps[ps <= cross]
    large = ps[ps > cross]
    slots: list[tuple[int, int, int, int]] = []  # (norm, p, degree, count)
    if len(small):
        pats = batch_degree_patterns(f, small)
        for i, p in enumerate(small.tolist()):
            for d in range(1, n + 1):
                c = int(pats[i, d - 1])
                if c and p**d <= limit:
                    slots.append((p**d, p, d, c))
    if len(large):
        nu_ps = batch_root_counts(f, large)
        split = nu_ps != 0
        ls = large[split].tolist()
        slots += zip(ls, ls, itertools.repeat(1), nu_ps[split].tolist())
    slots.sort()
    return slots


def ideal_count(Y: int, ctx: FieldSpec, budget: int = 10**7) -> int:
    """Number of good-support ideals of Z[omega] with norm <= Y.

    Multiplicative DFS over prime-ideal slots sorted by norm; includes the
    unit ideal.  Bad-prime support is excluded (reported by callers).
    Leaves are collapsed: once q^2 > cap, each remaining slot of norm
    <= cap contributes exactly its multiplicity, read off a prefix sum.
    """
    if Y < 1:
        return 0
    if Y > budget:
        raise BudgetExceeded(f"Y = {Y} exceeds budget {budget}")
    slots = _prime_ideal_norm_table(ctx, int(Y))
    norms = [s[0] for s in slots]
    counts = [s[3] for s in slots]
    cum = [0, *itertools.accumulate(counts)]  # cum[j] = sum of counts[:j]

    def count_from(i: int, cap: int) -> int:
        # ideals supported on slots[i:] with norm <= cap, incl. the unit ideal;
        # a slot holding c distinct primes of norm q contributes
        # C(t+c-1, c-1) exponent patterns of total q-exponent t.  Each level
        # divides cap by a norm >= 2, so the depth stays below log2(Y)
        cnt = 1
        for j in range(i, len(norms)):
            q = norms[j]
            if q > cap:
                break
            if q * q > cap:
                # only t = 1 fits, and cap // q < q leaves the unit ideal
                # after it: slot j onward adds its multiplicity c
                return cnt + cum[bisect.bisect_right(norms, cap, j)] - cum[j]
            c = counts[j]
            t = 1
            qt = q
            while qt <= cap:
                cnt += math.comb(t + c - 1, c - 1) * count_from(j + 1, cap // qt)
                t += 1
                qt *= q
        return cnt

    return count_from(0, int(Y))


def gamma_estimate(Y: int, ctx: FieldSpec, budget: int = 10**7) -> float:
    """Weber-style estimator of the zeta residue: good-support ideals / Y.

    Converges to gamma_K times the product of (1 - 1/N(P)) over primes P
    above bad p (the exclusion factor); reports carry this caveat.
    """
    return ideal_count(Y, ctx, budget=budget) / Y


def squarefree_ideal_symbols(ctx: FieldSpec, limit: int, budget: int = 10**6):
    """Yield (factors, norm, mu, rho) over squarefree good-support ideals.

    factors is a tuple of (p, degree, label_index) triples; rho uses the
    closed-form group density (validated against rho() elsewhere).  The
    unit ideal is yielded first with factors=(), norm=1, mu=1, rho=1.
    """
    if limit > budget * 10:
        raise BudgetExceeded(f"limit {limit} exceeds budget")
    slots = []
    for (q, p, d, c) in _prime_ideal_norm_table(ctx, int(limit) - 1):
        for label in range(c):
            slots.append((q, p, d, label))
    slots.sort()
    norms = [s[0] for s in slots]
    m = ctx.m

    def rho_of(stack) -> Fraction:
        groups: dict[int, list[int]] = {}
        for (q, p, d, label) in stack:
            groups.setdefault(p, []).append(d)
        out = Fraction(1)
        for p, degs in groups.items():
            out *= rho_group_closed(degs, p, m)
        return out

    stack: list[tuple[int, int, int, int]] = []

    def dfs(i: int, norm_acc: int):
        yield (tuple(stack), norm_acc,
               -1 if len(stack) % 2 else 1, rho_of(stack))
        for j in range(i, len(slots)):
            q = norms[j]
            if norm_acc * q >= limit:
                break
            stack.append(slots[j])
            yield from dfs(j + 1, norm_acc * q)
            stack.pop()

    yield from dfs(0, 1)


# --- exact ideal divisor function --------------------------------------------


def ideal_valuations(x, ctx: FieldSpec, fac: dict[int, int]) -> dict | None:
    """Valuations v_P(alpha) for alpha with norm factorization fac.

    alpha = sum x_i omega^(i-1) is the order element for incomplete vector
    x, and A(X) = sum x_i X^(i-1).  Returns {PrimeIdeal: v}, or None when
    some p | N(alpha) is bad or fac does not match N(alpha).

    A good prime P = (p, g(omega)) contains alpha exactly when g divides A
    mod p.  So when A is linear mod p (a_1 != 0 mod p and the higher
    coefficients vanish), the only candidate is (p, omega - r) with
    r = -a_0/a_1 mod p, and none at all if f(r) != 0 mod p; f is not
    factored mod p.  For any other A mod p, in particular when p divides
    the content of x, every prime above p is a candidate.

    Valuations are read mod p^(v_p + 1) from v_p(Res(g_lift, A)) = d*v_P,
    where g_lift is the Hensel lift of the factor g of P.  For degree 1,
    g_lift = X - r_lift and the resultant is A(r_lift), so the root is
    lifted by Newton and A evaluated there.  The valuations above p must
    add up to v_p, or the result is None.
    """
    A = list(embed(x, ctx))
    disc = discriminant(ctx)
    out: dict[PrimeIdeal, int] = {}
    for p, vp in fac.items():
        if disc % p == 0:
            return None
        prec = vp + 1
        q = p**prec
        assigned = 0
        for pi in _candidate_ideals(A, p, ctx.f_coeffs):
            if pi.degree == 1:
                r = _poly_eval_mod(A, _lifted_root(ctx.f_coeffs, pi.label, p, prec), q)
            else:
                gl = _lifted_factor(ctx.f_coeffs, pi.factor_coeffs, p, prec)
                r = resultant(list(gl), A) % q
            v = 0
            while v < prec and r % p == 0 and r != 0:
                r //= p
                v += 1
            if r == 0:
                v = prec  # saturated; cannot happen for correct prec
            if v % pi.degree != 0:
                # valuation in the unramified completion is a multiple of d
                return None
            vP = v // pi.degree
            if vP:
                out[pi] = vP
                assigned += pi.degree * vP
        if assigned != vp:
            return None  # inconsistency guard
    return out


def _candidate_ideals(A: list[int], p: int,
                      f_coeffs: tuple[int, ...]) -> tuple[PrimeIdeal, ...]:
    """The primes above the good prime p that can contain alpha (see
    ideal_valuations): one or none when A is linear mod p, else all."""
    a = [c % p for c in A]
    if a[1] == 0 or any(a[2:]):
        return _prime_ideals_above_cached(p, f_coeffs)
    r = -a[0] * pow(a[1], -1, p) % p
    if _poly_eval_mod(f_coeffs, r, p):
        return ()
    return (PrimeIdeal(p, 1, r, ((-r) % p, 1)),)


@lru_cache(maxsize=2**16)
def _lifted_root(f_coeffs: tuple[int, ...], r: int, p: int, prec: int) -> int:
    """lift_root of f; the same root lift recurs across points."""
    return lift_root(list(f_coeffs), r, p, prec)


@lru_cache(maxsize=2**16)
def _lifted_factor(f_coeffs: tuple[int, ...], g: tuple[int, ...], p: int,
                   prec: int) -> tuple[int, ...]:
    """hensel_lift_factor reduced mod p^prec; the same lift recurs across points."""
    q = p**prec
    gl = hensel_lift_factor(list(f_coeffs), [c % p for c in g], p, prec)
    return tuple(c % q for c in gl)


def ideal_tau(x, ctx: FieldSpec, fac: dict[int, int]) -> int | None:
    """tau of the ideal generated by alpha(x), or None if not resolvable."""
    vals = ideal_valuations(x, ctx, fac)
    if vals is None:
        return None
    return math.prod(v + 1 for v in vals.values())
