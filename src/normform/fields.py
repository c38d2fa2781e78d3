"""Exact arithmetic in the order Z[omega] via integer coordinate vectors.

Elements are length-n integer vectors (a_1, ..., a_n) standing for
sum_i a_i * omega^(i-1), with omega a root of a monic irreducible
f in Z[X].  Coefficients are stored constant-term first throughout.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateDegree,
    NonMonic,
    ReducibleDetected,
    ValidationError,
    ZeroVector,
)
from .intlinalg import det_bareiss
from .primes import factorize

Vec = tuple[int, ...]


@dataclass(frozen=True)
class FieldSpec:
    """Ambient data: degree n, omitted-coordinate count k, and f.

    f_coeffs holds the n+1 coefficients of monic f, constant term first
    (so f_coeffs[-1] == 1).  pure_theta is set when f == X^n - theta.
    """

    n: int
    k: int
    f_coeffs: Vec
    pure_theta: int | None = None

    @property
    def m(self) -> int:
        """Number of free coordinates n - k."""
        return self.n - self.k

    def to_json_dict(self) -> dict:
        return {"f": list(self.f_coeffs), "k": self.k}

    @classmethod
    def from_json_dict(cls, d) -> "FieldSpec":
        f, k = (d.get("f"), d.get("k")) if isinstance(d, dict) else (None, None)
        if isinstance(d, dict) and set(d) - {"f", "k"}:
            raise ValidationError(f"unknown field keys: {sorted(set(d) - {'f', 'k'})}")
        if not (isinstance(f, (list, tuple)) and all(type(c) is int for c in f)
                and type(k) is int):
            raise ValidationError("config needs a 'field' object {f: [...], k: int}")
        if not f or f[-1] != 1:
            raise NonMonic("serialized f must end with the leading 1")
        return make_context(f[:-1], k)


def make_context(f_coeffs: list[int], k: int) -> FieldSpec:
    """Validate (f, k) and build the shared context.

    f_coeffs are the n low-order coefficients of monic f, constant term
    first; the leading 1 is implicit.  Rejects degree < 2, rational roots
    and repeated factors.  The rational root candidates are the divisors
    of f(0), from primes.factorize: a constant term it cannot split (a
    composite cofactor above 2^64) raises FactorizationBudget, CLI exit 3.
    A pure f = X^n - theta is certified irreducible by Capelli's theorem
    (Lang, Algebra, VI Thm. 9.1): it is reducible exactly when theta is a
    q-th power for a prime q | n, or 4 | n and theta = -4c^4.  For any
    other f, irreducibility beyond the rational root and squarefree tests
    is the caller's assertion, not checked here.
    """
    f = [int(c) for c in f_coeffs] + [1]
    n = len(f) - 1
    if n < 2:
        raise DegenerateDegree(f"degree must be >= 2, got {n}")
    if not 0 <= k < n:
        raise DegenerateDegree(f"need 0 <= k < n, got k={k}, n={n}")
    # rational root test: candidates divide the constant term
    c0 = f[0]
    if c0 == 0:
        raise ReducibleDetected("rational root 0 (zero constant term)")
    divisors = [1]
    for p, e in factorize(c0).items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    for r in (r for d in sorted(divisors) for r in (d, -d)):
        if _poly_eval_int(f, r) == 0:
            raise ReducibleDetected(f"rational root {r}")
    pure = -f[0] if all(c == 0 for c in f[1:n]) else None
    ctx = FieldSpec(n=n, k=k, f_coeffs=tuple(f), pure_theta=pure)
    # N(f'(omega)) = Res(f, f') for monic f, zero exactly when gcd(f, f') != 1
    if norm([i * c for i, c in enumerate(f)][1:], ctx) == 0:
        raise ReducibleDetected("repeated factor (gcd(f, f') nontrivial)")
    if pure is not None:
        _require_capelli(n, pure)
    return ctx


def _require_capelli(n: int, theta: int) -> None:
    """Raise ReducibleDetected when X^n - theta factors over Q (Capelli).

    Divisors q of n are tried in increasing order, so the first q-th power
    found is for a prime q: a d-th power is a q-th power for each q | d.
    """
    for q in range(2, n + 1):
        if n % q == 0 and _is_power(theta, q):
            raise ReducibleDetected(f"X^{n} - ({theta}) factors: {theta} = b^{q}")
    if n % 4 == 0 and theta < 0 and -theta % 4 == 0 and _is_power(-theta // 4, 4):
        raise ReducibleDetected(f"X^{n} - ({theta}) factors: {theta} = -4 c^4")


def _is_power(a: int, q: int) -> bool:
    """True when the integer a is the q-th power of an integer."""
    if a < 0:
        return q % 2 == 1 and _is_power(-a, q)
    r = _iroot(a, q)
    return r**q == a


def _iroot(a: int, q: int) -> int:
    """floor(a^(1/q)) for an integer a >= 0, by integer Newton iteration."""
    if a < 2:
        return a
    x = 1 << -(-a.bit_length() // q)  # 2^ceil(bits/q) > a^(1/q)
    while True:
        y = ((q - 1) * x + a // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def _poly_eval_int(f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def diamond(a, b, ctx: FieldSpec) -> Vec:
    """Coordinate vector of (sum a_i omega^(i-1)) * (sum b_i omega^(i-1)).

    Schoolbook product followed by reduction mod f; one code path for both
    pure and general fields.
    """
    n = ctx.n
    if len(a) != n or len(b) != n:
        raise ValidationError(f"operands must have length {n}")
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    f = ctx.f_coeffs
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(n):
                if f[j]:
                    prod[d - n + j] -= c * f[j]
    return tuple(prod[:n])


def embed(x, ctx: FieldSpec) -> Vec:
    """Zero-pad an incomplete vector (length n-k) to a full order element."""
    x = tuple(int(t) for t in x)
    if len(x) != ctx.m:
        raise ValidationError(f"incomplete vector must have length {ctx.m}")
    return x + (0,) * ctx.k


def mul_matrix(v, ctx: FieldSpec) -> list[list[int]]:
    """n x n integer matrix M with M @ x == diamond(x, v) for all x.

    Column i is diamond(e_i, v); row j is the linear functional giving
    coordinate j+1 of the product.
    """
    n = ctx.n
    cols = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        cols.append(diamond(e, v, ctx))
    return [[cols[i][j] for i in range(n)] for j in range(n)]


def norm(v, ctx: FieldSpec) -> int:
    """Field norm of the order element v: det of its multiplication matrix."""
    return det_bareiss(mul_matrix(v, ctx))


def norm_form(x, ctx: FieldSpec) -> int:
    """The incomplete norm form: norm of the zero-padded embedding of x."""
    return norm(embed(x, ctx), ctx)


def constraint_rows(v, ctx: FieldSpec) -> list[list[int]]:
    """k x n matrix whose kernel is the lattice {x : (x*v) has last k coords 0}.

    Row i is the functional giving coordinate n-i (1-indexed) of
    diamond(x, v); in the pure case this equals T^i(rev v) with
    T(v)_j = v_{j+1} (j < n), theta*v_1 (j = n).
    """
    if all(t == 0 for t in v):
        raise ZeroVector("constraint rows of the zero vector")
    M = mul_matrix(v, ctx)
    return [M[ctx.n - 1 - i] for i in range(ctx.k)]


# --- symbolic norm form -----------------------------------------------------

def _homogeneous_exponents(n: int, m: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the degree-n monomials in m variables."""
    if m == 1:
        return [(n,)]
    out = []
    for e in range(n + 1):
        for rest in _homogeneous_exponents(n - e, m - 1):
            out.append((e,) + rest)
    return out


@lru_cache(maxsize=None)
def norm_form_polynomial(ctx: FieldSpec) -> Mapping[tuple[int, ...], int]:
    """The incomplete norm form as a read-only {exponent tuple: coefficient}.

    Gregory-Newton interpolation of N(y, 1), of total degree <= n, from its
    values on the simplex |y| <= n, unisolvent for that degree (Chung & Yao,
    SIAM J. Numer. Anal. 14, 1977): integer forward differences one axis at
    a time, then binomials to monomials by signed Stirling numbers of the
    first kind, scaled by n! to stay in the integers.  Keys follow
    _homogeneous_exponents(n, m), zeros omitted.  Cached per (f, k).
    """
    n, m = ctx.n, ctx.m
    exps = _homogeneous_exponents(n, m)
    table = {ex[:-1]: norm_form(ex[:-1] + (1,), ctx) for ex in exps}
    _along_axes(table, n, lambda line: [
        sum((-1) ** (t - u) * math.comb(t, u) * line[u] for u in range(t + 1))
        for t in range(len(line))])  # Delta^t
    fact = math.factorial(n)
    for a in table:  # n! times the coefficient of prod binom(y_i, a_i)
        table[a] *= fact // math.prod(map(math.factorial, a))
    stirling = [[1] + [0] * n]  # stirling[a][j] = s(a, j)
    for a in range(n):
        stirling.append([0] + [stirling[a][j - 1] - a * stirling[a][j]
                               for j in range(1, n + 1)])
    _along_axes(table, n, lambda line: [
        sum(stirling[a][j] * line[a] for a in range(j, len(line)))
        for j in range(len(line))])
    coeffs = {ex: table[ex[:-1]] // fact for ex in exps if table[ex[:-1]]}
    rng = random.Random(17)
    pts = [tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(4)]
    if any(v % fact for v in table.values()) or any(  # exact spot check
            sum(c * math.prod(x**e for x, e in zip(pt, ex)) for ex, c in coeffs.items())
            != norm_form(pt, ctx) for pt in pts):
        raise RuntimeError(f"norm form interpolation failed for {ctx}")
    return MappingProxyType(coeffs)


def _along_axes(table: dict, n: int, line_map) -> None:
    """Replace each line of the simplex table {a: int for |a| <= n} along
    axis i by line_map(line), for each axis i in turn."""
    for i in range(len(next(iter(table)))):
        for a in [a for a in table if a[i] == 0]:
            keys = [a[:i] + (t,) + a[i + 1:] for t in range(n - sum(a) + 1)]
            table.update(zip(keys, line_map([table[key] for key in keys])))


def eval_norm_poly_grid(coeffs: Mapping[tuple[int, ...], int], grids,
                        p: int | None = None) -> np.ndarray:
    """Values of the polynomial coeffs on broadcastable int64 grids.

    grids[i] holds x_(i+1): open np.ix_ grids, full meshgrids or
    equal-length columns; the result has their broadcast shape.  Horner's
    scheme in x_1, whose coefficients (polynomials in x_2..x_m) are built
    on the broadcast of the remaining grids only.

    Without p the values are exact: BudgetExceeded unless
    sum |c| * max(max|x|, 1)^deg < 2^62, which bounds every coefficient,
    term, partial sum and Horner step.  With p every step is reduced mod
    p, exact for 1 < p < 2^31 (ValidationError otherwise), into [0, p).
    """
    grids = [np.asarray(g, dtype=np.int64) for g in grids]
    shape = np.broadcast_shapes(*(g.shape for g in grids))
    if p is None:
        deg = max(sum(ex) for ex in coeffs)
        big = max((max(-int(g.min()), int(g.max())) for g in grids if g.size),
                  default=0)
        if sum(abs(c) for c in coeffs.values()) * max(big, 1)**deg >= 2**62:
            raise BudgetExceeded("norm values overflow the vectorized int64 path")
    elif not 1 < p < 2**31:
        raise ValidationError(f"modulus {p} is outside (1, 2^31)")
    else:
        grids = [g % p for g in grids]

    def red(a):
        return a if p is None else a % p

    x1, tail = grids[0], grids[1:]
    top = max((e for ex in coeffs for e in ex[1:]), default=0)
    pows = []  # pows[i][e] = x_(i+2)^e
    for g in tail:
        row = [np.int64(1)]
        for _ in range(top):
            row.append(red(row[-1] * g))
        pows.append(row)
    inner: dict[int, np.ndarray] = {}
    for ex, c in coeffs.items():
        term = np.int64(red(int(c)))
        for row, e in zip(pows, ex[1:]):
            if e:
                term = red(term * row[e])
        inner[ex[0]] = red(inner.get(ex[0], 0) + term)
    out = np.int64(0)
    for e1 in range(max(inner), -1, -1):
        out = red(out * x1 + inner.get(e1, 0))
    out = np.asarray(out)
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()
